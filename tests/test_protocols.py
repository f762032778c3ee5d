"""Census and ranking of the four-signal measurement protocol family."""

import json
import re
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    complex_step_gradient,
    entry_model_value,
    expm_propagator,
    model_m_optimal,
    one_branch,
    zero_delay_oriented,
)
from spinrelax.design import DelayGrid
from spinrelax.protocols import (
    IDEAL_RANKING_PARAMS,
    OPTIMAL_LABEL,
    ROBUST_LABEL,
    census,
    enumerate_measurements,
    enumerate_protocols,
    measurement_curves,
    minimal_cost,
    rank_protocols,
    raw_protocol_count,
    sensitivity_ratio_curve,
)
from spinrelax.protocols import _CLASS_MIX, _probe_lattice  # white box
from spinrelax import protocols, signals
from spinrelax.rates import RatePair, model_gradient, model_m
from spinrelax.signals import (
    OPTIMAL_PROTOCOL,
    ROBUST_PROTOCOL,
    STATE_INDEX,
    Measurement,
    ProtocolSpec,
    SignalParams,
    expected_counts,
)

RATES = (1.0, 3.0)


def kernel(measurement):
    """The measurement's curves, served in both slots."""
    return measurement_curves(ProtocolSpec(plus=measurement, minus=measurement))


def mirrored(measurement):
    """The measurement with the |+1> and |-1> levels exchanged."""
    swap = {"+": "-", "-": "+", "0": "0"}
    first, second = measurement.first, measurement.second
    return Measurement((swap[first[0]], swap[first[1]]), (swap[second[0]], swap[second[1]]))


# Delays over [1e-3, 50] ms with tau = 0, rates over [0.05, 100] /ms.
tau_arrays = st.lists(
    st.one_of(st.just(0.0), st.floats(1e-3, 50.0)), min_size=1, max_size=20
).map(np.array)
rate_pairs = st.tuples(*[st.floats(np.log(0.05), np.log(100.0))] * 2).map(np.exp)


def normalized_expectation(measurement, tau, rates, params):
    """Test-side normalized measurement from full expected counts."""
    pair = [measurement.first, measurement.second]
    pair.sort(key=lambda s: s[0] != s[1])  # bright (prep == read) first
    (p1, r1), (p2, r2) = pair
    num = expected_counts(p1, r1, tau, rates, params) - expected_counts(
        p2, r2, tau, rates, params
    )
    den = expected_counts(p1, r1, 0.0, rates, params) - expected_counts(
        p2, r2, 0.0, rates, params
    )
    return num / den


def exact_zero_delay_count(signal, params):
    """c B_read B_prep s of one signal in rational arithmetic, per f0 and
    repetition and without background: the exact value of the params' floats.

    A pi pulse on level k exchanges the populations of |0> and |k> with
    probability 1 - eta."""
    eta = {"+": Fraction(params.eta_plus), "-": Fraction(params.eta_minus)}

    def pulse(label, pops):
        if label == "0":
            return pops
        k, e, out = STATE_INDEX[label], eta[label], list(pops)
        out[1], out[k] = e * pops[1] + (1 - e) * pops[k], (1 - e) * pops[1] + e * pops[k]
        return out

    alpha, dim = Fraction(params.alpha), 1 - Fraction(params.contrast_C)
    pumped = [(1 - alpha) / 2, alpha, (1 - alpha) / 2]
    prep, read = signal
    return sum(y * p for y, p in zip([dim, 1, dim], pulse(read, pulse(prep, pumped))))


class TestCensusCounts:
    def test_raw_count(self):
        assert raw_protocol_count() == 3 ** 8 == 6561

    def test_valid_count(self):
        assert census().valid_count == 1296

    def test_usable_measurements(self):
        measurements = enumerate_measurements()
        assert len(measurements) == 36
        # exactly one self-reverting signal each
        for m in measurements:
            brights = [s for s in (m.first, m.second) if s[0] == s[1]]
            assert len(brights) == 1

    def test_report_counts(self):
        report = census()
        assert report.raw_count == 6561
        assert report.valid_count == 1296
        assert report.measurement_count == 36
        assert report.function_class_count == 9
        assert report.distinct_function_count == 7
        assert report.independent_count == 36

    def test_independent_set_is_pairs_of_distinct_classes(self):
        protocols = enumerate_protocols()
        labels = {p.label for p in protocols}
        assert len(labels) == 36
        for p in protocols:
            assert p.plus.label != p.minus.label

    def test_pinned_protocols_present(self):
        labels = {p.label for p in enumerate_protocols()}
        assert ROBUST_LABEL in labels
        assert OPTIMAL_LABEL in labels

    def test_pinned_protocols_equal_reference_specs(self):
        by_label = {p.label: p for p in enumerate_protocols()}
        assert by_label[ROBUST_LABEL] == ROBUST_PROTOCOL
        assert by_label[OPTIMAL_LABEL] == OPTIMAL_PROTOCOL


def class_key(m):
    """Test-side key: bright level plus the unordered dark pair."""
    bright = m.first if m.first[0] == m.first[1] else m.second
    dark = m.second if bright is m.first else m.first
    return bright[0], tuple(sorted(dark))


def lattice_signature(measurement):
    taus, gps, gms = _probe_lattice(5)
    value = normalized_expectation(measurement, taus, (gps, gms), IDEAL_RANKING_PARAMS)
    return np.ravel(value)


class TestClassStructure:
    def test_nine_classes_of_four(self):
        by_key = {}
        for m in enumerate_measurements():
            by_key.setdefault(class_key(m), []).append(m)
        assert set(by_key) == set(_CLASS_MIX)
        assert [len(members) for members in by_key.values()] == [4] * 9

    def test_symbolic_keys_match_numeric_classes(self):
        by_key = {}
        for m in enumerate_measurements():
            by_key.setdefault(class_key(m), []).append(lattice_signature(m))
        distinct = []
        for first, *rest in by_key.values():
            for sig in rest:
                np.testing.assert_allclose(sig, first, rtol=0, atol=1e-12)
            if not any(np.max(np.abs(first - ref)) <= 1e-12 for ref in distinct):
                distinct.append(first)
        assert len(distinct) == 7 == census().distinct_function_count

    @pytest.mark.parametrize("key", list(_CLASS_MIX), ids=lambda k: k[0] + "".join(k[1]))
    def test_census_rejects_swapped_class_mix(self, key, monkeypatch):
        # Only `key` is given another class's mix: the one-call check still
        # tests each measurement on its own, so a member of `key` is named.
        table = dict(_CLASS_MIX)
        keys = list(_CLASS_MIX)
        later = keys[keys.index(key) + 1 :] + keys
        table[key] = next(_CLASS_MIX[k] for k in later if _CLASS_MIX[k] != _CLASS_MIX[key])
        monkeypatch.setattr("spinrelax.protocols._CLASS_MIX", table)
        with pytest.raises(RuntimeError, match="deviates from its class kernel") as raised:
            census()
        named = str(raised.value).split()[1]
        assert named in {m.label for m in enumerate_measurements() if class_key(m) == key}

    def test_enumeration_reads_no_counts(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("enumeration evaluated expected signals")

        monkeypatch.setattr("spinrelax.signals._signal_counts", fail)
        assert len(enumerate_protocols()) == 36

    def test_row_sum_identity_merges_three_classes(self):
        # P_aa - P_cd with {a, c, d} all three levels equals
        # 1 - P_01 - P_02 - P_12 for every rate pair, checked on expm
        rng = np.random.default_rng(11)
        merged = [
            Measurement(first=("-", "0"), second=("+", "+")),
            Measurement(first=("+", "0"), second=("-", "-")),
            Measurement(first=("+", "-"), second=("0", "0")),
        ]
        for _ in range(20):
            gp, gm = np.exp(rng.uniform(np.log(0.1), np.log(10.0), 2))
            tau = float(rng.uniform(0.02, 3.0))
            p = expm_propagator(tau, gp, gm)
            complement = 1.0 - p[0, 1] - p[0, 2] - p[1, 2]
            for m in merged:
                value = one_branch(kernel(m))(tau, (gp, gm), "+")
                assert value == pytest.approx(complement, abs=1e-12)

    def test_model_value_matches_expm_oracle(self):
        rng = np.random.default_rng(3)
        measurements = enumerate_measurements()
        state_index = {"-": 0, "0": 1, "+": 2}
        for _ in range(30):
            m = measurements[rng.integers(len(measurements))]
            gp, gm = np.exp(rng.uniform(np.log(0.1), np.log(10.0), 2))
            tau = float(rng.uniform(0.02, 3.0))
            p = expm_propagator(tau, gp, gm)
            bright = m.first if m.first[0] == m.first[1] else m.second
            dark = m.second if bright is m.first else m.first
            a = state_index[bright[0]]
            c, d = state_index[dark[1]], state_index[dark[0]]
            expected = p[a, a] - p[c, d]
            assert one_branch(kernel(m))(tau, (gp, gm), "+") == pytest.approx(expected, abs=1e-12)

    def test_positive_zero_delay_denominator(self):
        # The oriented denominator, first minus second signal at tau = 0, is
        # positive in exact arithmetic at the edges of the parameter domain,
        # where the rounded counts can tie or invert.
        edges = product(
            [np.nextafter(1 / 3, 1), 0.8, 1.0],
            *[[0.0, 0.25, np.nextafter(0.5, 0)]] * 2,
            [1e-300, 0.24, np.nextafter(1, 0)],
        )
        for alpha, eta_plus, eta_minus, contrast in edges:
            params = SignalParams(
                alpha=alpha, eta_plus=eta_plus, eta_minus=eta_minus, contrast_C=contrast
            )
            for m in enumerate_measurements():
                pair = m.oriented()
                first = exact_zero_delay_count(pair.first, params)
                assert first > exact_zero_delay_count(pair.second, params), (m.label, params)


class TestOrientation:
    def test_bright_first_is_the_positive_zero_delay_order(self):
        # Measurement.oriented puts the bright (self-reverting) signal first
        # by its labels; the oracle orders by the rounded tau = 0 counts.
        # The two rules agree for every measurement inside the domain.
        rng = np.random.default_rng(66)
        for _ in range(100):
            params = SignalParams(
                f0=float(np.exp(rng.uniform(np.log(1e-4), 0.0))),
                contrast_C=float(rng.uniform(0.01, 0.99)),
                alpha=float(1.0 - rng.uniform(0.0, 2.0 / 3.0 - 1e-9)),
                eta_plus=float(rng.uniform(0.0, 0.4999)),
                eta_minus=float(rng.uniform(0.0, 0.4999)),
                background=float(rng.choice([0.0, np.exp(rng.uniform(np.log(1e-5), 0.0))])),
                repetitions_R=int(rng.integers(1, 10**7)),
            )
            for m in enumerate_measurements():
                assert m.oriented() == zero_delay_oriented(m, params), (m.label, params)


class TestEtaCensus:
    def test_exactly_two_insensitive_measurements(self):
        report = census()
        assert set(report.eta_insensitive_measurements) == {"(+0,00)", "(-0,00)"}, (
            "pulse-error-insensitive classes differ from the expected pair: "
            f"{report.eta_insensitive_measurements}"
        )

    def test_exactly_one_insensitive_protocol(self):
        report = census()
        assert report.eta_insensitive_protocols == (ROBUST_LABEL,), (
            "pulse-error-insensitive protocols differ from the expected single "
            f"robust pair: {report.eta_insensitive_protocols}"
        )

    def test_direct_eta_independence_of_robust_pair(self):
        base = SignalParams(
            f0=0.02, contrast_C=0.24, alpha=0.8, eta_plus=0.0, eta_minus=0.0
        )
        bumped = SignalParams(
            f0=0.02, contrast_C=0.24, alpha=0.8, eta_plus=0.09, eta_minus=0.04
        )
        taus = np.geomspace(0.02, 2.0, 7)
        robust = [p for p in enumerate_protocols() if p.label == ROBUST_LABEL][0]
        optimal = [p for p in enumerate_protocols() if p.label == OPTIMAL_LABEL][0]
        for m in (robust.plus, robust.minus):
            a = normalized_expectation(m, taus, RATES, base)
            b = normalized_expectation(m, taus, RATES, bumped)
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)
        # the sensitive reference moves by much more than the tag tolerance
        a = normalized_expectation(optimal.plus, taus, RATES, base)
        b = normalized_expectation(optimal.plus, taus, RATES, bumped)
        assert np.max(np.abs(a - b)) > 1e-3


class TestMeasurementCurves:
    def test_robust_protocol_uses_closed_form(self):
        curves = measurement_curves(ROBUST_PROTOCOL)
        taus, gps, gms = _probe_lattice(9)
        for branch in "+-":
            value = one_branch(curves)(taus, (gps, gms), branch)
            assert np.array_equal(value, model_m(taus, (gps, gms), branch))
            got = curves.gradient(taus, (gps, gms), branch)
            want = model_gradient(taus, (gps, gms), branch)
            for g, w in zip(got, want):
                assert np.array_equal(g, w)
        for tau_minus in (taus, taus[::-1]):
            plus, minus = curves.pair_value(taus, tau_minus, (gps, gms))
            assert np.array_equal(plus, model_m(taus, (gps, gms), "+"))
            assert np.array_equal(minus, model_m(tau_minus, (gps, gms), "-"))

    @settings(max_examples=60, deadline=None)
    @given(taus=tau_arrays, rates=rate_pairs)
    def test_closed_form_classes_match_entry_model(self, taus, rates):
        # Every measurement's kernel against the bright-minus-dark entry of
        # the full propagator and its complex-step gradient.  Independent
        # key: a dark signal moving population between |0> and one branch
        # level, against the bright |0> signal, is that branch's model_m.
        robust = 0
        for m in enumerate_measurements():
            curves = kernel(m)
            want = entry_model_value(m, taus, rates)
            value = one_branch(curves)(taus, rates, "+")
            np.testing.assert_allclose(value, want, rtol=0, atol=1e-12)
            oracle = complex_step_gradient(m, taus, rates)
            for got, want in zip(curves.gradient(taus, rates, "+"), oracle):
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
            bright = m.first if m.first[0] == m.first[1] else m.second
            dark = m.second if bright is m.first else m.first
            if bright == ("0", "0") and "0" in dark:
                branch = dark[0] if dark[1] == "0" else dark[1]
                robust += 1
                closed_value = model_m(taus, rates, branch)
                closed_gradient = model_gradient(taus, rates, branch)
                for slot in "+-":
                    assert np.array_equal(one_branch(curves)(taus, rates, slot), closed_value)
                    for got, want in zip(curves.gradient(taus, rates, slot), closed_gradient):
                        assert np.array_equal(got, want)
        assert robust == 8

    @settings(max_examples=60, deadline=None)
    @given(taus=tau_arrays, rates=rate_pairs)
    def test_mirror_symmetry(self, taus, rates):
        # Exchanging the levels and the rates maps each class onto its mirror.
        gp, gm = rates
        for m in enumerate_measurements():
            curves, mirror = kernel(m), kernel(mirrored(m))
            want = one_branch(mirror)(taus, (gm, gp), "+")
            value = one_branch(curves)(taus, (gp, gm), "+")
            np.testing.assert_allclose(value, want, rtol=0, atol=1e-12)
            d_plus, d_minus = curves.gradient(taus, (gp, gm), "+")
            m_plus, m_minus = mirror.gradient(taus, (gm, gp), "+")
            np.testing.assert_allclose(d_plus, m_minus, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(d_minus, m_plus, rtol=1e-12, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        taus=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=20).map(np.array),
        rates=st.tuples(*[st.floats(np.log(0.05), np.log(50.0))] * 2).map(np.exp),
    )
    def test_optimal_protocol_is_closed_form(self, taus, rates):
        curves = measurement_curves(OPTIMAL_PROTOCOL)
        for branch in "+-":
            np.testing.assert_allclose(
                one_branch(curves)(taus, rates, branch),
                model_m_optimal(taus, rates, 0.0, branch),
                rtol=0,
                atol=1e-12,
            )


@pytest.fixture(scope="module")
def ranking():
    return rank_protocols(RATES)


@pytest.fixture(scope="module")
def curve():
    return sensitivity_ratio_curve(ratios=np.geomspace(0.125, 8.0, 9))


class TestRanking:
    def test_reference_ratio_is_exactly_one(self, ranking):
        ref = [e for e in ranking.entries if e.label == OPTIMAL_LABEL][0]
        assert ref.cost_ratio == 1.0

    def test_reference_ranks_first(self, ranking):
        assert ranking.entries[0].label == OPTIMAL_LABEL
        ratios = [e.cost_ratio for e in ranking.entries]
        assert ratios == sorted(ratios)
        assert all(r >= 1.0 for r in ratios)

    def test_robust_ratio_in_band(self, ranking):
        rob = [e for e in ranking.entries if e.label == ROBUST_LABEL][0]
        assert 1.2 <= rob.cost_ratio <= 1.6

    def test_all_entries_finite_and_on_grid(self, ranking):
        grid = DelayGrid.default()
        lo, hi = grid.taus[0], grid.taus[-1]
        assert len(ranking.entries) == 36
        for e in ranking.entries:
            assert np.isfinite(e.cost)
            assert lo <= e.delays.tau_plus <= hi
            assert lo <= e.delays.tau_minus <= hi

    def test_reproducible(self, ranking):
        again = rank_protocols(RATES)
        assert again == ranking

    def test_rate_rescaling_preserves_ratios(self, ranking):
        # double the rates on a halved, point-aligned grid: every optimal
        # delay halves, every cost scales by 1/sqrt(2), ratios are unchanged
        grid = DelayGrid.default()
        halved = DelayGrid(taus=grid.taus / 2.0)
        scaled = rank_protocols((2.0 * RATES[0], 2.0 * RATES[1]), grid=halved)
        by_label = {e.label: e for e in scaled.entries}
        for e in ranking.entries:
            s = by_label[e.label]
            assert s.delays.tau_plus == pytest.approx(e.delays.tau_plus / 2.0, rel=1e-12)
            assert s.delays.tau_minus == pytest.approx(e.delays.tau_minus / 2.0, rel=1e-12)
            assert s.cost == pytest.approx(e.cost / np.sqrt(2.0), rel=1e-9)
            assert s.cost_ratio == pytest.approx(e.cost_ratio, rel=1e-9)

    def test_text_export(self, ranking):
        assert len(ranking.table) == 36
        assert all(len(row) == len(ranking.COLUMNS) for row in ranking.table)
        first = ranking.table[0]
        assert first[0] == OPTIMAL_LABEL
        assert first[4] == 1.0

    def test_json_export(self, ranking):
        entries = [dict(zip(ranking.COLUMNS, row)) for row in ranking.table]
        payload = json.loads(
            json.dumps({"reference": ranking.reference_label, "entries": entries})
        )
        assert payload["reference"] == OPTIMAL_LABEL
        assert len(payload["entries"]) == 36
        assert payload["entries"] == entries
        labels = {e["protocol"] for e in payload["entries"]}
        assert ROBUST_LABEL in labels


class TestSensitivitySweep:
    def test_band(self, curve):
        for _, _, _, ratio in curve:
            assert 1.2 <= ratio <= 1.6

    def test_exchange_symmetry(self, curve):
        ratios = [row[3] for row in curve]
        np.testing.assert_allclose(ratios, ratios[::-1], rtol=1e-9)

    def test_equal_rates_equal_delays(self):
        robust = [p for p in enumerate_protocols() if p.label == ROBUST_LABEL][0]
        delays, _ = minimal_cost(robust, (1.0, 1.0))
        assert delays.tau_plus == delays.tau_minus


class TestSigmaTables:
    def test_one_table_per_distinct_measurement(self, monkeypatch):
        shapes = []
        original = protocols.sigma_m_from_expectations

        def counting(*expectations):
            shapes.append(np.shape(expectations[0]))
            return original(*expectations)

        monkeypatch.setattr(protocols, "sigma_m_from_expectations", counting)
        rank_protocols(RatePair(1.0, 3.0))
        size = DelayGrid.default().taus.size
        # 36 protocols pair 9 measurement classes: one grid-wide table each.
        assert shapes == [(size,)] * 9
        shapes.clear()
        sensitivity_ratio_curve([0.5, 2.0, 4.0])
        # The sweep's 4 measurements: one table each, one row per ratio.
        assert shapes == [(3, size)] * 4

    def test_one_gradient_table_per_distinct_measurement(self, monkeypatch):
        calls = []
        original = protocols._gradient

        def counting(tau, *args):
            calls.append(np.shape(tau))
            return original(tau, *args)

        monkeypatch.setattr(protocols, "_gradient", counting)
        rank_protocols(RatePair(1.0, 3.0))
        # The 36 protocols' 72 slots hold 9 measurements: one grid-wide gradient each.
        assert calls == [DelayGrid.default().taus.shape] * 9

    def test_one_counts_call_per_table_set(self, monkeypatch):
        calls = []
        original = signals._signal_counts

        def counting(signal_list, *args):
            calls.append(len(signal_list))
            return original(signal_list, *args)

        monkeypatch.setattr(signals, "_signal_counts", counting)
        rank_protocols(RatePair(1.0, 3.0))
        sensitivity_ratio_curve(np.geomspace(0.125, 8.0, 25))
        census()
        # One call each: the ranking (its 9 measurements use 6 signals), the
        # sweep (5), the class check (all 9) and the two pulse-error probes.
        assert calls == [6, 5, 9, 6, 6]

    @pytest.mark.parametrize(
        "params",
        [
            IDEAL_RANKING_PARAMS,
            SignalParams(alpha=0.7, eta_plus=0.08, eta_minus=0.03, background=0.004),
        ],
        ids=["ideal", "errors"],
    )
    def test_sweep_rows_equal_per_ratio_minimal_cost(self, params):
        ratios = [0.25, 1.0, 4.0, 0.37, 1 / 0.37, 11.0]
        rows = sensitivity_ratio_curve(ratios, params)
        for r, row in zip(ratios, rows):
            rates = (np.sqrt(r), 1.0 / np.sqrt(r))
            robust = minimal_cost(ROBUST_PROTOCOL, rates, params)[1]
            optimal = minimal_cost(OPTIMAL_PROTOCOL, rates, params)[1]
            assert row == (r, robust, optimal, robust / optimal)

    def test_tables_equal_per_protocol_tables(self):
        rates = RatePair(0.7, 2.9)
        ranked = rank_protocols(rates)
        for entry in ranked.entries:
            protocol = next(p for p in enumerate_protocols() if p.label == entry.label)
            assert minimal_cost(protocol, rates) == (entry.delays, entry.cost)


class TestRateDomain:
    @pytest.mark.parametrize(
        "rates", [(-1.0, 2.0), (np.nan, 1.0), (1.0, np.inf), (0.0, 1.0), (2.0, -0.0)]
    )
    def test_rates_outside_ratepair_raise(self, rates):
        with pytest.raises(ValueError, match="rates must be"):
            minimal_cost(ROBUST_PROTOCOL, rates)
        with pytest.raises(ValueError, match="rates must be"):
            rank_protocols(rates)

    @pytest.mark.parametrize("ratios", [2.0, [[0.5, 2.0]]], ids=["scalar", "2-D"])
    def test_ratios_not_1d_raise(self, ratios, monkeypatch):
        monkeypatch.setattr(protocols, "_sigma_tables", None)  # raises before any table
        with pytest.raises(ValueError, match="ratios must be a 1-D"):
            sensitivity_ratio_curve(ratios)

    def test_empty_ratios_give_no_rows(self):
        assert sensitivity_ratio_curve([]) == []

    @pytest.mark.parametrize("ratio", [-1.0, 0.0, np.inf, -np.inf, np.nan])
    def test_ratio_outside_domain_raises(self, ratio):
        with pytest.raises(ValueError, match="rate ratios must be positive and finite"):
            sensitivity_ratio_curve([2.0, ratio])

    @pytest.mark.parametrize("ratio", [1e100, 1e-200])
    def test_ratio_beyond_the_counts_model_raises(self, ratio):
        # 1e100 returned the row (1e100, inf, inf, nan); 1e-200 overflowed the
        # eigenvectors and raised "sigma_m entries must be positive".
        with pytest.raises(ValueError, match=re.escape(f"rate ratio {ratio:g} is beyond")):
            sensitivity_ratio_curve([2.0, ratio])

    def test_ratios_within_range_give_finite_rows(self):
        rows = sensitivity_ratio_curve(np.geomspace(1e-8, 1e12, 6))
        assert np.all(np.isfinite(rows)) and np.all(np.array(rows)[:, 1:] > 0.0)
