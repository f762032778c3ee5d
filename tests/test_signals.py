"""Measurement model: five-factor chain, difference identities, Poisson sampling."""

import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    brute_expected_counts,
    chain_expected_signals,
    drift_schedule,
    expected_difference,
    looped_sample_signals,
    model_m_optimal,
)
from spinrelax.design import DelayGrid
from spinrelax.experiments import ExperimentConfig, _Run
from spinrelax.protocols import enumerate_measurements
from spinrelax import signals
from spinrelax.rates import RatePair, model_m
from spinrelax.signals import (
    OPTIMAL_PROTOCOL,
    ROBUST_PROTOCOL,
    Measurement,
    ProtocolSpec,
    _DRIFTABLE,
    SignalParams,
    _block_means,
    _stack_blocks,
    expected_counts,
    expected_signals,
    pulse_matrix,
    sample_signals,
)

FIG_PARAMS = SignalParams()  # f0=0.02, C=0.24, alpha=0.8, eta=0.05, R=1e6


def random_params(rng, r=10**6):
    return SignalParams(
        f0=float(10 ** rng.uniform(-2.0, 0.0)),
        contrast_C=float(rng.uniform(0.05, 0.95)),
        alpha=float(rng.uniform(0.4, 1.0)),
        eta_plus=float(rng.uniform(0.0, 0.45)),
        eta_minus=float(rng.uniform(0.0, 0.45)),
        background=float(rng.uniform(0.0, 0.1)),
        repetitions_R=r,
    )


class TestSignalParams:
    def test_rejects_invalid(self):
        bad = [
            dict(f0=0.0),
            dict(contrast_C=0.0),
            dict(contrast_C=1.0),
            dict(contrast_C=-0.1),
            dict(alpha=1.0 / 3.0),
            dict(alpha=1.2),
            dict(eta_plus=0.5),
            dict(eta_minus=-0.01),
            dict(background=-1.0),
            dict(repetitions_R=0),
        ]
        for kwargs in bad:
            with pytest.raises(ValueError):
                SignalParams(**kwargs)

    def test_boolean_repetitions_rejected(self):
        # True is an int equal to 1; a run would go ahead with R = 1.
        for flag in (True, np.True_):
            with pytest.raises(ValueError, match="repetitions_R must be a positive integer"):
                SignalParams(repetitions_R=flag)
        assert SignalParams(repetitions_R=np.int64(7)).repetitions_R == 7
        assert SignalParams(repetitions_R=1e6).repetitions_R == 10**6


class TestPulseMatrices:
    def test_involution_at_zero_error(self):
        params = SignalParams(eta_plus=0.0, eta_minus=0.0)
        for label in "+-":
            b = pulse_matrix(label, params)
            assert np.allclose(b @ b, np.eye(3))

    def test_row_stochastic(self):
        params = SignalParams(eta_plus=0.3, eta_minus=0.12)
        for label in "+-0":
            b = pulse_matrix(label, params)
            assert np.allclose(b.sum(axis=1), 1.0)
            assert np.all(b >= 0.0)


class TestExpectedCounts:
    def test_polarized_identity_readout(self):
        params = SignalParams(alpha=1.0, background=0.0, repetitions_R=1000)
        got = expected_counts("0", "0", 0.0, RatePair(1.0, 3.0), params)
        assert np.isclose(got, 1000 * params.f0, atol=1e-12)

    def test_perfect_pulse_reads_contrast(self):
        params = SignalParams(alpha=1.0, eta_plus=0.0, background=0.0, repetitions_R=1000)
        got = expected_counts("0", "+", 0.0, RatePair(1.0, 3.0), params)
        assert np.isclose(got, 1000 * params.f0 * (1.0 - params.contrast_C), atol=1e-12)

    def test_matches_brute_force_chain(self):
        rng = np.random.default_rng(41)
        for _ in range(150):
            params = random_params(rng)
            gp, gm = np.exp(rng.uniform(np.log(0.1), np.log(30.0), 2))
            tau = float(10 ** rng.uniform(-3, 0.7))
            prep, read = rng.choice(list("+0-"), 2)
            got = expected_counts(prep, read, tau, RatePair(gp, gm), params)
            want = brute_expected_counts(
                prep,
                read,
                tau,
                gp,
                gm,
                params.f0,
                params.contrast_C,
                params.alpha,
                params.eta_plus,
                params.eta_minus,
                params.background,
                params.repetitions_R,
            )
            assert abs(got - want) < 1e-9 * max(1.0, abs(want))

    def test_fig_configuration_value(self):
        got = expected_counts("0", "0", 1.0, RatePair(1.0, 3.0), FIG_PARAMS)
        want = brute_expected_counts(
            "0", "0", 1.0, 1.0, 3.0, 0.02, 0.24, 0.8, 0.05, 0.05, 0.0, 10**6
        )
        assert abs(got - want) < 1e-6

    def test_linear_in_f0_and_r(self):
        base = SignalParams(background=0.0)
        doubled_f0 = SignalParams(f0=0.04, background=0.0)
        r = RatePair(1.0, 3.0)
        s1 = expected_counts("+", "0", 0.3, r, base)
        assert np.isclose(expected_counts("+", "0", 0.3, r, doubled_f0), 2.0 * s1)
        half_r = SignalParams(background=0.0, repetitions_R=500000)
        assert np.isclose(expected_counts("+", "0", 0.3, r, half_r), 0.5 * s1)


class TestExpectedDifference:
    def test_closed_form_matches_generic(self):
        rng = np.random.default_rng(43)
        r_rates = RatePair(1.0, 3.0)
        for _ in range(100):
            params = random_params(rng)
            tau = float(10 ** rng.uniform(-3, 0.7))
            for meas in (ROBUST_PROTOCOL.plus, ROBUST_PROTOCOL.minus):
                closed = expected_difference(meas, tau, r_rates, params)
                first = expected_counts(meas.first[0], meas.first[1], tau, r_rates, params)
                second = expected_counts(meas.second[0], meas.second[1], tau, r_rates, params)
                # Agreement is limited by cancellation: the generic path
                # subtracts two ~R*f0 sized evaluations.
                tol = 1e-12 * max(abs(first), abs(second), 1.0)
                assert abs(closed - (first - second)) < tol

    def test_zero_tau_ideal_value(self):
        params = SignalParams(alpha=1.0, background=0.0, repetitions_R=1000)
        meas = ROBUST_PROTOCOL.plus.oriented()
        got = expected_difference(meas, 0.0, RatePair(1.0, 1.0), params)
        want = 1000 * params.contrast_C * params.f0 * (1.0 - params.eta_plus)
        assert np.isclose(got, want, atol=1e-12)

    def test_background_cancels(self):
        r = RatePair(0.7, 2.2)
        flat = SignalParams(background=0.0)
        bumpy = SignalParams(background=lambda tau: 0.3 + 0.1 * tau)
        for meas in (ROBUST_PROTOCOL.plus, OPTIMAL_PROTOCOL.minus):
            a = expected_difference(meas, 0.8, r, flat)
            b = expected_difference(meas, 0.8, r, bumpy)
            assert np.isclose(a, b, rtol=1e-12)

    def test_normalized_robust_equals_model_everywhere(self):
        # The central drift-insensitivity identity: the normalized robust
        # difference equals model_m for any parameter values whatsoever.
        rng = np.random.default_rng(47)
        for _ in range(300):
            params = random_params(rng)
            gp, gm = np.exp(rng.uniform(np.log(0.1), np.log(30.0), 2))
            rates = RatePair(gp, gm)
            tau = float(10 ** rng.uniform(-3, 0.7))
            for branch, meas in (("+", ROBUST_PROTOCOL.plus), ("-", ROBUST_PROTOCOL.minus)):
                ratio = expected_difference(meas, tau, rates, params) / expected_difference(
                    meas, 0.0, rates, params
                )
                assert abs(ratio - model_m(tau, rates, branch)) < 1e-12

    def test_normalized_optimal_equals_closed_form(self):
        # Cross-module identity for the highest-sensitivity pair, including
        # pulse error; pump fidelity and photon yields still cancel.
        rng = np.random.default_rng(53)
        for _ in range(100):
            params = random_params(rng)
            gp, gm = np.exp(rng.uniform(np.log(0.2), np.log(10.0), 2))
            rates = RatePair(gp, gm)
            tau = float(10 ** rng.uniform(-2, 0.5))
            for branch, meas in (("+", OPTIMAL_PROTOCOL.plus), ("-", OPTIMAL_PROTOCOL.minus)):
                eta = params.eta_plus if branch == "+" else params.eta_minus
                ratio = expected_difference(meas, tau, rates, params) / expected_difference(
                    meas, 0.0, rates, params
                )
                want = model_m_optimal(tau, rates, eta, branch)
                assert abs(ratio - want) < 1e-12


# Members of the two closed-form measurement classes, both signal orders,
# with the branch whose model_m their normalized difference equals.
CLOSED_FORM_MEMBERS = [
    (branch, Measurement(a, b))
    for branch in "+-"
    for dark in ((branch, "0"), ("0", branch))
    for a, b in ((dark, ("0", "0")), (("0", "0"), dark))
]


def block_stack(blocks):
    """The parameter stack whose block i is blocks[i]: every field drifts to it at t = i."""
    drifts = {name: (lambda t, name=name: getattr(blocks[t], name)) for name in _DRIFTABLE}
    return _stack_blocks(blocks[0], drifts, range(len(blocks)), [p.repetitions_R for p in blocks])


class TestExpectedSignals:
    def test_delay_array_equals_scalar_calls(self):
        rates = RatePair(0.7, 2.9)
        constant = [
            SignalParams(repetitions_R=1000),
            SignalParams(
                f0=0.05, alpha=0.6, eta_plus=0.2, eta_minus=0.1, background=0.01, repetitions_R=7
            ),
        ]
        sloped = [
            SignalParams(background=lambda tau: 0.002 + 0.001 * tau),
            SignalParams(alpha=0.9, background=lambda tau: 0.01 * tau, repetitions_R=999),
        ]
        grid = DelayGrid.default().taus
        taus = np.array([[0.0, grid[0], 0.4], [1.3, grid[-1], 10.0]])
        for protocol in (ROBUST_PROTOCOL, OPTIMAL_PROTOCOL):
            for meas in (protocol.plus, protocol.minus):
                for oriented in (meas, Measurement(meas.second, meas.first)):
                    for chosen in map(block_stack, (constant, sloped, sloped[:1])):
                        got = expected_signals(oriented, taus, rates, chosen)
                        assert got.shape == taus.shape + (len(chosen.background), 4)
                        for idx in np.ndindex(taus.shape):
                            want = expected_signals(oriented, float(taus[idx]), rates, chosen)
                            assert want.shape == (len(chosen.background), 4)
                            assert np.array_equal(got[idx], want)
                        # The tau = 0 columns do not depend on the delay.
                        assert np.all(got[..., 2:] == got[0, 0, :, 2:])

    def test_scalar_delay_matches_expected_counts(self):
        rates = RatePair(1.0, 3.0)
        params = SignalParams(background=lambda tau: 0.003 * tau)
        for meas in (OPTIMAL_PROTOCOL.plus, ROBUST_PROTOCOL.minus):
            got = expected_signals(meas, 0.8, rates, params)[0]
            signals = (meas.first, meas.second) * 2
            for k, ((prep, read), tau) in enumerate(zip(signals, (0.8, 0.8, 0.0, 0.0))):
                assert got[k] == expected_counts(prep, read, tau, rates, params)

    @settings(max_examples=300, deadline=None)
    @given(
        member=st.sampled_from(CLOSED_FORM_MEMBERS),
        f0=st.floats(min_value=1e-3, max_value=1.0),
        contrast=st.floats(min_value=0.0, max_value=0.99, exclude_min=True),
        alpha=st.floats(min_value=0.34, max_value=1.0),
        eta_plus=st.floats(min_value=0.0, max_value=0.49),
        eta_minus=st.floats(min_value=0.0, max_value=0.49),
        background=st.tuples(
            st.floats(min_value=0.0, max_value=0.1), st.floats(min_value=0.0, max_value=0.1)
        ),
        repetitions=st.integers(min_value=1, max_value=10**7),
        gp=st.floats(min_value=0.05, max_value=50.0),
        gm=st.floats(min_value=0.05, max_value=50.0),
        tau=st.floats(min_value=1e-3, max_value=10.0),
    )
    def test_closed_form_pairs_are_drift_insensitive(
        self, member, f0, contrast, alpha, eta_plus, eta_minus, background, repetitions, gp, gm, tau
    ):
        # The robust identity on the generic four-count path: the tau
        # difference is model_m times the tau = 0 difference, whatever the
        # photon yields, pumping, pulse errors and background.
        branch, meas = member
        offset, slope = background
        params = SignalParams(
            f0=f0,
            contrast_C=contrast,
            alpha=alpha,
            eta_plus=eta_plus,
            eta_minus=eta_minus,
            background=lambda t: offset + slope * t,
            repetitions_R=repetitions,
        )
        rates = RatePair(gp, gm)
        e1t, e2t, e10, e20 = expected_signals(meas, tau, rates, params)[0]
        deviation = (e1t - e2t) - model_m(tau, rates, branch) * (e10 - e20)
        assert abs(deviation) <= 1e-13 * (e1t + e2t + e10 + e20)


def drifted_stack(params, n_blocks):
    """n_blocks parameter blocks at t = 0, 1, ...: f0 rising, contrast, pumping
    and both pulse errors falling toward their domain edges, each block with
    its own repetitions; a callable background stays callable per block."""
    n = n_blocks
    fall = lambda value, low: lambda t: low + (value - low) * (n - t) / n  # noqa: E731
    drifts = {
        "f0": lambda t: params.f0 * (1.0 + 0.1 * t),
        "contrast_C": fall(params.contrast_C, 0.0),
        "alpha": fall(params.alpha, 1.0 / 3.0),
        "eta_plus": fall(params.eta_plus, 0.0),
        "eta_minus": fall(params.eta_minus, 0.0),
    }
    if callable(params.background):
        drifts["background"] = lambda t: lambda tau: params.background(tau) * (1.0 + t)
    else:
        drifts["background"] = lambda t: params.background * (1.0 + t)
    reps = [params.repetitions_R + b for b in range(n)]
    return _stack_blocks(params, drifts, list(range(n)), reps)


class TestClosedFormCounts:
    """expected_signals' counts, a constant plus two decays per signal and
    block, against the propagator chain they replaced: to rounding at tau,
    bit for bit at tau = 0."""

    @settings(max_examples=300, deadline=None)
    @given(
        measurement=st.sampled_from(enumerate_measurements()),
        f0=st.floats(min_value=1e-3, max_value=1.0),
        contrast=st.floats(min_value=0.01, max_value=0.99),
        alpha=st.floats(min_value=0.34, max_value=1.0),
        etas=st.tuples(*[st.floats(min_value=0.0, max_value=0.49)] * 2),
        level=st.floats(min_value=0.0, max_value=0.1),
        callable_background=st.booleans(),
        repetitions=st.integers(min_value=1, max_value=10**7),
        n_blocks=st.one_of(st.none(), st.integers(min_value=1, max_value=6)),
        log_rates=st.tuples(*[st.floats(np.log(0.05), np.log(50.0))] * 2),
        taus=st.lists(
            st.one_of(st.just(0.0), st.floats(min_value=1e-4, max_value=20.0)),
            min_size=1,
            max_size=8,
        ),
    )
    def test_matches_propagator_chain(
        self, measurement, f0, contrast, alpha, etas, level, callable_background,
        repetitions, n_blocks, log_rates, taus,
    ):
        params = SignalParams(
            f0=f0,
            contrast_C=contrast,
            alpha=alpha,
            eta_plus=etas[0],
            eta_minus=etas[1],
            background=(lambda tau: level * (1.0 + tau)) if callable_background else level,
            repetitions_R=repetitions,
        )
        blocks = params if n_blocks is None else drifted_stack(params, n_blocks)
        rates = tuple(np.exp(log_rates))
        taus = np.array(taus)
        got = expected_signals(measurement, taus, rates, blocks)
        want = chain_expected_signals(measurement, taus, rates, blocks)
        assert got.shape == want.shape == taus.shape + (n_blocks or 1, 4)
        assert np.array_equal(got[..., 2:], want[..., 2:])
        assert np.array_equal(got[taus == 0.0][..., :2], want[taus == 0.0][..., :2])
        assert np.all(np.abs(got - want) <= 1e-12 * want)


class TestMeasurementSpec:
    def test_rejects_bad_pairs(self):
        with pytest.raises(ValueError):
            Measurement(("0", "0"), ("0", "0"))  # identical
        with pytest.raises(ValueError):
            Measurement(("0", "0"), ("+", "+"))  # two self-reverting
        with pytest.raises(ValueError):
            Measurement(("+", "0"), ("0", "-"))  # no self-reverting signal
        with pytest.raises(ValueError):
            Measurement(("x", "0"), ("0", "0"))

    def test_labels(self):
        assert ROBUST_PROTOCOL.label == "(+0,00),(-0,00)"
        assert OPTIMAL_PROTOCOL.label == "(+0,++),(-0,--)"

    def test_oriented_puts_bright_first(self):
        meas = ROBUST_PROTOCOL.plus.oriented()
        assert meas.first == ("0", "0")
        assert meas.second == ("+", "0")
        # Orientation is idempotent.
        assert meas.oriented() == meas


class TestSampling:
    def test_reproducible_given_seed(self):
        r = RatePair(1.0, 3.0)
        a = sample_signals(ROBUST_PROTOCOL.plus, 0.4, r, FIG_PARAMS, np.random.default_rng(5))
        b = sample_signals(ROBUST_PROTOCOL.plus, 0.4, r, FIG_PARAMS, np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_sample_statistics(self):
        params = SignalParams(alpha=1.0, background=0.0, repetitions_R=10**6)
        mu = float(expected_counts("0", "0", 0.0, RatePair(1.0, 1.0), params))
        assert np.isclose(mu, 20000.0)
        rng = np.random.default_rng(59)
        draws = rng.poisson(mu, size=10**5)
        assert abs(draws.mean() - mu) < 3.0 * np.sqrt(mu / 10**5)
        assert abs(draws.var() / mu - 1.0) < 0.05

    def test_sampled_means_track_expectations(self):
        r = RatePair(1.0, 3.0)
        rng = np.random.default_rng(61)
        sums = np.zeros(4)
        n = 300
        for _ in range(n):
            sums += sample_signals(ROBUST_PROTOCOL.plus, 0.4, r, FIG_PARAMS, rng)
        means = sums / n
        expect = expected_signals(ROBUST_PROTOCOL.plus, 0.4, r, FIG_PARAMS)[0]
        sigma = np.sqrt(expect / n)
        assert np.all(np.abs(means - expect) < 5.0 * sigma)

    @pytest.mark.parametrize("block_reps", [0, -5, 2.5, 1000.0, True])
    @pytest.mark.parametrize("drifts", [None, {"alpha": lambda t: 0.8 - 0.02 * t}])
    def test_block_reps_must_be_a_positive_integer(self, block_reps, drifts):
        # Under drift -5 drew four zero counts and 2.5 raised a drift-domain error.
        r = RatePair(1.0, 3.0)
        schedule = (drifts, 0.0, 5.0, block_reps)
        rng = np.random.default_rng(7)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="block_reps must be a positive integer"):
            sample_signals(ROBUST_PROTOCOL.plus, 0.4, r, FIG_PARAMS, rng, *schedule)
        assert rng.bit_generator.state == before
        with pytest.raises(ValueError, match="block_reps must be a positive integer"):
            _block_means(ROBUST_PROTOCOL.plus, 0.4, r, FIG_PARAMS, *schedule)

    @pytest.mark.parametrize(
        "t_start, duration_s, message",
        [
            (math.nan, 5.0, "t_start must be finite"),
            (math.inf, 5.0, "t_start must be finite"),
            (-math.inf, 5.0, "t_start must be finite"),
            (0.0, -5.0, "duration_s must be nonnegative and finite"),
            (0.0, math.nan, "duration_s must be nonnegative and finite"),
            (0.0, math.inf, "duration_s must be nonnegative and finite"),
        ],
    )
    @pytest.mark.parametrize("drifts", [None, {"alpha": lambda t: max(0.8 - 0.02 * t, 0.5)}])
    def test_block_times_must_be_finite_and_forward(self, t_start, duration_s, message, drifts):
        # duration_s = -5 ran the blocks backward, t_start = nan was blamed on
        # alpha, and t_start = inf under the clamped drift drew counts.
        r = RatePair(1.0, 3.0)
        schedule = (drifts, t_start, duration_s)
        rng = np.random.default_rng(7)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match=message):
            sample_signals(ROBUST_PROTOCOL.plus, 0.4, r, FIG_PARAMS, rng, *schedule)
        assert rng.bit_generator.state == before
        with pytest.raises(ValueError, match=message):
            _block_means(ROBUST_PROTOCOL.plus, 0.4, r, FIG_PARAMS, *schedule)

    def test_drift_blocks_reproducible_and_consistent(self):
        r = RatePair(1.0, 3.0)
        drifts = {"alpha": lambda t: 0.8 - 0.02 * t}
        kwargs = dict(drifts=drifts, t_start=0.0, duration_s=5.0, block_reps=997)
        a = sample_signals(
            ROBUST_PROTOCOL.plus, 0.4, r, FIG_PARAMS, np.random.default_rng(7), **kwargs
        )
        b = sample_signals(
            ROBUST_PROTOCOL.plus, 0.4, r, FIG_PARAMS, np.random.default_rng(7), **kwargs
        )
        assert np.array_equal(a, b)
        # With equal-size blocks and a linear drift of a parameter the
        # expectation is affine in, the block average is the midpoint value.
        _, totals = _block_means(ROBUST_PROTOCOL.plus, 0.4, r, FIG_PARAMS, drifts, 0.0, 5.0, 1000)
        mid_params = SignalParams(alpha=0.8 - 0.02 * 2.5)
        want = expected_counts("+", "0", 0.4, r, mid_params)
        assert np.isclose(totals[0], want, rtol=1e-9)

    def test_drift_violating_invariants_raises(self):
        r = RatePair(1.0, 3.0)
        with pytest.raises(ValueError):
            sample_signals(
                ROBUST_PROTOCOL.plus,
                0.4,
                r,
                FIG_PARAMS,
                np.random.default_rng(1),
                drifts={"alpha": lambda t: 0.2},
                duration_s=1.0,
            )


# Every drift stays inside the parameter domain over t in [1, 6] s.
SAMPLER_DRIFTS = {
    "static": None,
    "empty": {},
    "alpha": {"alpha": lambda t: 0.8 - 0.02 * t},
    "f0": {"f0": lambda t: 0.02 * (1.0 + 0.5 * t)},
    "eta": {"eta_plus": lambda t: 0.05 + 0.01 * t, "eta_minus": lambda t: 0.1 - 0.01 * t},
    "background": {"background": lambda t: 0.01 * t},
    "callable-background": {"background": lambda t: (lambda tau: 0.001 * t + 0.002 * tau)},
}


class TestStackedSampler:
    """sample_signals against the block-by-block loop: identical counts,
    generator state and expected totals, not merely close."""

    @staticmethod
    def assert_same_as_loop(
        measurement, tau, params, seed=11, drifts=None, t_start=0.0, duration_s=0.0, block_reps=1000
    ):
        rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
        rates = RatePair(1.0, 3.0)
        schedule = (drifts, t_start, duration_s, block_reps)
        got = sample_signals(measurement, tau, rates, params, rng_new, *schedule)
        want_counts, want_totals = looped_sample_signals(
            measurement, tau, rates, params, rng_old, *schedule
        )
        assert got.shape == (4,) and got.dtype.kind == "i"
        assert np.array_equal(got, want_counts)
        assert rng_new.bit_generator.state == rng_old.bit_generator.state
        _, totals = _block_means(measurement, tau, rates, params, *schedule)
        assert totals.tolist() == want_totals

    @pytest.mark.parametrize("block_reps", [1000, 997, 10**5])
    @pytest.mark.parametrize("drift", sorted(SAMPLER_DRIFTS))
    def test_matches_block_loop(self, drift, block_reps):
        taus = DelayGrid.default().taus
        params_list = (
            SignalParams(repetitions_R=20000),
            SignalParams(background=lambda tau: 0.002 + 0.001 * tau, repetitions_R=19997),
        )
        for protocol in (ROBUST_PROTOCOL, OPTIMAL_PROTOCOL):
            for meas in (protocol.plus, protocol.minus):
                for oriented in (meas, Measurement(meas.second, meas.first)):
                    for params in params_list:
                        for tau in (float(taus[0]), float(taus[-1])):
                            self.assert_same_as_loop(
                                oriented,
                                tau,
                                params,
                                drifts=SAMPLER_DRIFTS[drift],
                                t_start=1.0,
                                duration_s=5.0,
                                block_reps=block_reps,
                            )

    def test_matches_block_loop_at_full_size(self):
        # 1000 blocks at the default R, as in a drifting adaptive run.
        meas = ROBUST_PROTOCOL.plus.oriented()
        self.assert_same_as_loop(
            meas, 0.4, FIG_PARAMS, drifts=SAMPLER_DRIFTS["alpha"], t_start=1.0, duration_s=5.0
        )
        self.assert_same_as_loop(meas, 0.4, FIG_PARAMS)

    def test_shared_callable_background_is_called_once_per_delay(self):
        # An undrifted callable background is the same object in every one of
        # the 1,000 blocks: it is called once at 0, with the delay-independent
        # count terms, then once at tau, and the counts and generator state
        # are the block-by-block loop's.
        calls = []

        def background(tau):
            calls.append(tau)
            return 0.002 + 0.001 * tau

        params = SignalParams(background=background)
        meas, rates = ROBUST_PROTOCOL.plus, RatePair(1.0, 3.0)
        schedule = (SAMPLER_DRIFTS["alpha"], 1.0, 5.0)
        rng_new, rng_old = np.random.default_rng(5), np.random.default_rng(5)
        got = sample_signals(meas, 0.4, rates, params, rng_new, *schedule)
        assert calls == [0.0, 0.4]
        want, _ = looped_sample_signals(meas, 0.4, rates, params, rng_old, *schedule)
        assert got.tolist() == want
        assert rng_new.bit_generator.state == rng_old.bit_generator.state

    def test_negative_background_names_signal_delay_and_block(self):
        meas = ROBUST_PROTOCOL.plus
        # Negative at tau > 0 from the third of four blocks on (t = 11, 13, 15, 17 s).
        drifts = {"background": lambda t: (lambda tau: -1.0 if t > 14 and tau > 0 else 0.0)}
        params = SignalParams(repetitions_R=4000)
        with pytest.raises(
            ValueError, match=r"signal \(\+, 0\) at tau = 0\.4 ms in the block at t = 15 s"
        ):
            sample_signals(
                meas,
                0.4,
                RatePair(1.0, 3.0),
                params,
                np.random.default_rng(1),
                drifts=drifts,
                t_start=10.0,
                duration_s=8.0,
            )
        static = SignalParams(background=lambda tau: -1.0)
        with pytest.raises(ValueError, match=r"signal \(\+, 0\) at tau = 0\.4 ms \(check"):
            sample_signals(meas, 0.4, RatePair(1.0, 3.0), static, np.random.default_rng(1))


    @pytest.mark.parametrize("drift", sorted(SAMPLER_DRIFTS))
    def test_noiseless_acquisition_equals_block_sums(self, drift):
        rates, params = RatePair(1.0, 3.0), SignalParams(repetitions_R=19997)
        config = ExperimentConfig(
            true_rates=rates, params=params, noiseless=True, drifts=SAMPLER_DRIFTS[drift]
        )
        for protocol in (ROBUST_PROTOCOL, OPTIMAL_PROTOCOL):
            for meas in (protocol.plus, protocol.minus):
                got = _Run(config).four(meas, 0.4, 1.0, 5.0)
                _, want = looped_sample_signals(
                    meas, 0.4, rates, params, np.random.default_rng(0),
                    drifts=SAMPLER_DRIFTS[drift], t_start=1.0, duration_s=5.0,
                )
                assert got.dtype == float and got.tolist() == want

    @pytest.mark.parametrize("noiseless", [False, True], ids=["noisy", "noiseless"])
    @pytest.mark.parametrize(
        "background", [0.004, lambda tau: 0.002 + 0.001 * tau], ids=["constant", "callable"]
    )
    def test_static_run_counts_are_block_means(self, background, noiseless):
        # A static run builds each measurement's count terms once and then only
        # its decays per delay: the same bits as a fresh _block_means call.
        rates, params = RatePair(1.0, 3.0), SignalParams(background=background, repetitions_R=19997)
        taus = DelayGrid.default().taus
        delays = (0.0, float(taus[0]), float(taus[taus.size // 2]), float(taus[-1]))
        for protocol in (ROBUST_PROTOCOL, OPTIMAL_PROTOCOL):
            config = ExperimentConfig(
                true_rates=rates, params=params, protocol=protocol, noiseless=noiseless, seed=4
            )
            run, rng = _Run(config), np.random.default_rng(4)
            # Twice over: the second pass draws from the kept means.
            for tau in delays * 2:
                for meas in (protocol.plus, protocol.minus, run.plus, run.minus):
                    got = run.four(meas, tau, 1.0, 5.0)
                    means, totals = _block_means(meas, tau, rates, params, None, 1.0, 5.0)
                    kept = run._static[(meas, tau)]
                    assert [a.tobytes() for a in kept] == [means.tobytes(), totals.tobytes()]
                    want = totals if noiseless else signals._draw(means, rng)
                    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert run.rng.bit_generator.state == rng.bit_generator.state

    def test_drifted_call_builds_constant_number_of_params(self, monkeypatch):
        built = []
        check = SignalParams.__post_init__
        monkeypatch.setattr(SignalParams, "__post_init__", lambda self: built.append(check(self)))

        def count(params):
            built.clear()
            sample_signals(
                ROBUST_PROTOCOL.plus, 0.4, RatePair(1.0, 3.0), params, np.random.default_rng(2),
                drifts=SAMPLER_DRIFTS["eta"], t_start=1.0, duration_s=5.0,
            )
            return len(built)

        few, many = SignalParams(repetitions_R=10**4), SignalParams(repetitions_R=10**6)
        assert count(few) == count(many) <= 1  # 10 and 1,000 blocks

    def test_only_drift_callables_run_once_per_block(self):
        # Calls made from signals' own frames: at most one per block per
        # drift callable, plus a number that does not grow with the blocks.
        def calls(params):
            count = 0

            def profile(frame, event, arg):
                nonlocal count
                caller = frame.f_back if event == "call" else frame
                if event in ("call", "c_call") and caller.f_code.co_filename == signals.__file__:
                    count += 1

            sys.setprofile(profile)
            try:
                sample_signals(
                    ROBUST_PROTOCOL.plus, 0.4, RatePair(1.0, 3.0), params,
                    np.random.default_rng(2), drifts=SAMPLER_DRIFTS["eta"],
                    t_start=1.0, duration_s=5.0,
                )
            finally:
                sys.setprofile(None)
            return count

        drift_callables = len(SAMPLER_DRIFTS["eta"])
        # An undrifted callable background is one object every block shares.
        for background in (0.0, lambda tau: 0.002 + 0.001 * tau):
            few, many = (SignalParams(background=background, repetitions_R=r) for r in (1e4, 1e6))
            assert calls(many) - drift_callables * 1000 <= calls(few) - drift_callables * 10

    @pytest.mark.parametrize("duration_s", [1e-7, 123456.789])
    def test_drift_callables_get_float_block_times(self, duration_s):
        seen = []
        drifts = {"alpha": lambda t: seen.append(t) or 0.8}
        sample_signals(
            ROBUST_PROTOCOL.plus, 0.4, RatePair(1.0, 3.0), SignalParams(repetitions_R=19997),
            np.random.default_rng(2), drifts=drifts, t_start=0.1, duration_s=duration_s,
            block_reps=997,
        )
        n_blocks = math.ceil(19997 / 997)
        assert seen == [0.1 + (b + 0.5) / n_blocks * duration_s for b in range(n_blocks)]
        assert {type(t) for t in seen} == {float}


FIELD_ORDER = [f.name for f in dataclasses.fields(SignalParams)]
# Values on or just past each driftable field's domain boundary.
OUT_OF_DOMAIN = [
    ("f0", 0.0),
    ("f0", math.nan),
    ("f0", math.inf),
    ("contrast_C", 0.0),
    ("contrast_C", 1.0),
    ("alpha", 1.0 / 3.0),
    ("eta_plus", 0.5),
    ("eta_minus", 0.5),
    ("background", -1e-12),
    ("background", math.nan),
]


class TestStackedDomainCheck:
    """The drift stack's one-pass domain check against the per-block
    SignalParams of the looped sampler: the same error text, and no draw."""

    @staticmethod
    def messages(params, drifts, block_reps):
        kwargs = dict(drifts=drifts, t_start=1.0, duration_s=5.0, block_reps=block_reps)
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        with pytest.raises(ValueError) as got:
            sample_signals(ROBUST_PROTOCOL.plus, 0.4, RatePair(1.0, 3.0), params, rng, **kwargs)
        assert rng.bit_generator.state == before
        with pytest.raises(ValueError) as want:
            looped_sample_signals(
                ROBUST_PROTOCOL.plus, 0.4, RatePair(1.0, 3.0), params,
                np.random.default_rng(3), **kwargs,
            )
        return str(got.value), str(want.value)

    @staticmethod
    def failing(params, failures, block_reps):
        """Drifts taking each (field, value) out of the domain from its block on."""
        n_blocks = math.ceil(params.repetitions_R / block_reps)
        drifts = {}
        for (name, value), block in failures:
            # Block b's time is 1 + (b + 0.5) / n * 5 s; switch half a block earlier.
            t_from = 1.0 + block / n_blocks * 5.0
            inside = getattr(params, name)
            drifts[name] = lambda t, v=value, t0=t_from, w=inside: v if t > t0 else w
        return drifts

    @settings(max_examples=200, deadline=None)
    @given(
        failures=st.lists(
            st.tuples(st.sampled_from(OUT_OF_DOMAIN), st.integers(0, 9)),
            min_size=1,
            max_size=3,
            unique_by=lambda failure: failure[0][0],
        ),
        block_reps=st.sampled_from([1000, 997]),
        callable_background=st.booleans(),
    )
    def test_matches_per_block_oracle(self, failures, block_reps, callable_background):
        params = SignalParams(repetitions_R=10**4)  # 10 or 11 blocks
        drifts = self.failing(params, failures, block_reps)
        if callable_background and "background" not in drifts:
            drifts["background"] = lambda t: (lambda tau: 0.001 * t + 0.002 * tau)
        got, want = self.messages(params, drifts, block_reps)
        assert got == want
        # The first failing block, then its first failing field in field order.
        block = min(b for _, b in failures)
        name = min((n for (n, _), b in failures if b == block), key=FIELD_ORDER.index)
        t = 1.0 + (block + 0.5) / math.ceil(params.repetitions_R / block_reps) * 5.0
        assert got.startswith(f"drift schedule at t = {t:.6g} s: {name} must ")

    def test_same_block_names_earlier_field(self):
        params = SignalParams(repetitions_R=10**4)
        # Listed against field order; both leave the domain from block 4 on.
        failures = [(("eta_minus", 0.5), 4), (("alpha", 1.0 / 3.0), 4), (("f0", 0.0), 4)]
        got, want = self.messages(params, self.failing(params, failures, 1000), 1000)
        assert got == want == "drift schedule at t = 3.25 s: f0 must be positive"
        # The first failing block decides before field order does.
        failures = [(("f0", math.nan), 6), (("eta_plus", 0.5), 5)]
        got, want = self.messages(params, self.failing(params, failures, 1000), 1000)
        assert got == want == "drift schedule at t = 3.75 s: eta_plus must lie in [0, 0.5)"


class TestDriftSchedule:
    def test_constant_schedule_is_identity(self):
        assert drift_schedule(FIG_PARAMS, 12.0, None) == FIG_PARAMS
        assert drift_schedule(FIG_PARAMS, 12.0, {}) == FIG_PARAMS

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            drift_schedule(FIG_PARAMS, 0.0, {"repetitions_R": lambda t: 10})
        with pytest.raises(ValueError, match="cannot drift unknown fields"):
            sample_signals(
                ROBUST_PROTOCOL.plus, 0.4, RatePair(1.0, 3.0), FIG_PARAMS,
                np.random.default_rng(1), drifts={"repetitions_R": lambda t: 10}, duration_s=1.0,
            )

    def test_f0_drift_leaves_normalized_measurement_unchanged(self):
        r = RatePair(1.0, 3.0)
        drifted = drift_schedule(FIG_PARAMS, 3.0, {"f0": lambda t: 0.02 * (1.0 + 0.5 * t)})
        assert drifted.f0 == 0.02 * 2.5
        for branch, meas in (("+", ROBUST_PROTOCOL.plus), ("-", ROBUST_PROTOCOL.minus)):
            ratio = expected_difference(meas, 0.6, r, drifted) / expected_difference(
                meas, 0.0, r, drifted
            )
            assert abs(ratio - model_m(0.6, r, branch)) < 1e-12
