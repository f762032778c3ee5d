"""Tests for the bias-reduced ratio estimator."""

import dataclasses
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from oracles import expected_difference
from spinrelax import estimator
from spinrelax.estimator import (
    BiasStudyResult,
    EstimationError,
    RatioEstimate,
    _estimates,
    bias_study,
    measurement_estimate,
    reciprocal_mode,
    sigma_m_from_expectations,
)
from spinrelax.rates import RatePair
from spinrelax.signals import ROBUST_PROTOCOL, SignalParams, expected_signals, sample_signals

FIG_PARAMS = SignalParams()
RATES = RatePair(1.0, 3.0)


def log_posterior(z, delta, sigma):
    """Log density of the reciprocal under Gaussian denominator noise.

    Transforming a flat-prior Gaussian over the denominator to its
    reciprocal z contributes a 1/z^2 Jacobian; this is the density
    whose mode and curvature the estimator must reproduce.
    """
    return -2.0 * np.log(z) - (delta - 1.0 / z) ** 2 / (2.0 * sigma**2)


class TestReciprocalMode:
    def test_frozen_values(self):
        z, sigma_z = reciprocal_mode(1.0, 1.0)
        assert z == 0.5
        assert sigma_z == pytest.approx(0.25 / np.sqrt(1.5), rel=1e-15)
        z, _ = reciprocal_mode(3.0, 1.0)
        assert z == pytest.approx((np.sqrt(17.0) - 3.0) / 4.0, rel=1e-15)

    def test_matches_numerical_mode_and_curvature(self):
        # Independent route: maximize the log density directly and take
        # the curvature width by central differences at the maximum.
        for delta, sigma in [(1.0, 1.0), (3.0, 1.0), (50.0, 5.0), (-2.0, 1.5), (0.0, 0.7)]:
            z, sigma_z = reciprocal_mode(delta, sigma)
            res = minimize_scalar(
                lambda v: -log_posterior(v, delta, sigma),
                bounds=(z / 50.0, z * 50.0),
                method="bounded",
                options={"xatol": 1e-14},
            )
            assert res.x == pytest.approx(z, rel=1e-6)
            h = 1e-5 * z
            curv = (
                log_posterior(z + h, delta, sigma)
                - 2.0 * log_posterior(z, delta, sigma)
                + log_posterior(z - h, delta, sigma)
            ) / h**2
            assert sigma_z == pytest.approx(1.0 / np.sqrt(-curv), rel=1e-4)

    def test_exact_limit_at_zero_sigma(self):
        assert reciprocal_mode(4.0, 0.0) == (0.25, 0.0)
        assert reciprocal_mode(-4.0, 0.0) == (-0.25, 0.0)
        with pytest.raises(EstimationError):
            reciprocal_mode(0.0, 0.0)

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            reciprocal_mode(1.0, -1.0)

    @given(
        delta=st.floats(-1e3, 1e3),
        sigma=st.floats(1e-3, 1e3),
    )
    @settings(max_examples=300, deadline=None)
    def test_positive_and_below_reciprocal_bound(self, delta, sigma):
        # The mode is always positive and z * delta < 1 strictly, so the
        # estimate never crosses the singularity of the naive 1/delta.
        # (Ranges keep 8 sigma^2 above float resolution of delta^2.)
        z, sigma_z = reciprocal_mode(delta, sigma)
        assert z > 0.0
        assert z * delta < 1.0
        assert sigma_z > 0.0
        assert np.isfinite(sigma_z)

    def test_monotone_in_sigma(self):
        sigmas = np.geomspace(1e-3, 1e3, 41)
        z, _ = reciprocal_mode(10.0, sigmas)
        assert np.all(np.diff(z) < 0.0)
        assert z[0] == pytest.approx(0.1, rel=1e-4)

    def test_linear_limit_high_snr(self):
        z, sigma_z = reciprocal_mode(500.0, 1.0)
        assert z == pytest.approx(1.0 / 500.0, rel=1e-3)
        # Linear error propagation of 1/delta: sigma / delta^2.
        assert sigma_z == pytest.approx(1.0 / 500.0**2, rel=1e-3)

    def test_vectorized(self):
        z, s = reciprocal_mode([1.0, 3.0], [1.0, 1.0])
        assert z.shape == (2,)
        assert z[0] == 0.5
        assert s[1] > 0.0


class TestMeasurementEstimate:
    def test_linear_propagation_limit(self):
        est = measurement_estimate(np.array([900000, 300000, 1000000, 200000]))
        a, delta = 600000.0, 800000.0
        assert est.m_bar == pytest.approx(a / delta, rel=1e-3)
        var_lin = (a / delta) ** 2 * ((900000 + 300000) / a**2 + (1200000) / delta**2)
        assert est.sigma_m == pytest.approx(np.sqrt(var_lin), rel=1e-3)
        assert not est.delta_nonpositive

    def test_zero_numerator_keeps_positive_sigma(self):
        est = measurement_estimate(np.array([0, 0, 100, 20]))
        assert est.m_bar == 0.0
        assert est.sigma_m > 0.0
        assert est.sigma_m == pytest.approx(est.z_max, rel=1e-12)

    def test_nonpositive_denominator_is_flagged_not_fatal(self):
        est = measurement_estimate(np.array([40, 10, 20, 35]))
        assert est.delta_nonpositive
        assert est.m_bar > 0.0  # mode of the reciprocal stays positive
        assert np.isfinite(est.sigma_m)

    def test_all_zero_counts_rejected(self):
        with pytest.raises(EstimationError):
            measurement_estimate(np.array([0, 0, 0, 0]))

    def test_empty_denominator_rejected(self):
        with pytest.raises(EstimationError):
            measurement_estimate(np.array([5, 3, 0, 0]))

    @pytest.mark.parametrize(
        "counts", [[1, 2, 3], [1, 2, 3, 4, 5], [[1, 2], [3, 4]], [5, -1, 20, 3], [5, 1, np.nan, 3]]
    )
    def test_rejects_malformed_counts(self, counts):
        with pytest.raises(ValueError, match="four nonnegative") as raised:
            measurement_estimate(np.array(counts))
        assert not isinstance(raised.value, EstimationError)

    @settings(max_examples=300, deadline=None)
    @given(
        counts=st.one_of(
            st.lists(st.integers(0, 10**7), min_size=4, max_size=4),
            st.lists(st.floats(0.0, 1e7), min_size=4, max_size=4),
        )
    )
    def test_agrees_with_expectation_path_bit_for_bit(self, counts):
        # Sampled counts (ints) and noiseless totals (floats) take the ratio
        # kernel the expectation path takes: wherever var_a is not floored,
        # the two agree exactly.
        s1t, s2t, s10, s20 = counts
        assume(s1t + s2t >= 1 and s10 + s20 >= 1)
        est = measurement_estimate(np.array(counts))
        m, sigma_m = sigma_m_from_expectations(*counts)
        assert (est.m_bar, est.sigma_m) == (m, sigma_m)

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.lists(
            st.one_of(
                st.lists(st.integers(0, 10**7), min_size=4, max_size=4),
                # Noiseless totals: zero, or far above the subnormal range.
                st.lists(st.just(0.0) | st.floats(1e-3, 1e7), min_size=4, max_size=4),
                st.lists(st.integers(0, 60), min_size=2, max_size=2).map(lambda a: a + [0, 0]),
                st.just([0, 0, 0, 0]),
            ),
            min_size=1,
            max_size=12,
        )
    )
    @example(rows=[[0, 0, 0, 0], [40, 10, 300, 100], [7, 3, 0, 0], [0, 0, 5, 0], [2, 9, 0, 4]])
    def test_rows_equal_one_estimate_each(self, rows):
        # The vectorized estimate of an (n, 4) stack against n scalar calls,
        # bit for bit; exactly the rows the scalar call rejects are flagged.
        fields, usable = _estimates(np.array(rows))
        assert usable.shape == (len(rows),)
        for i, row in enumerate(rows):
            try:
                est = measurement_estimate(np.array(row))
            except EstimationError:
                assert not usable[i] and row[2] == row[3] == 0
                assert all(np.isnan(f[i]) for f in fields)
                continue
            assert usable[i]
            got = np.array([f[i] for f in fields])
            assert got.tobytes() == np.array(dataclasses.astuple(est)).tobytes()

    def test_monte_carlo_mean_matches_model(self):
        # Sampled estimates at the reference configuration should average
        # to the noiseless normalized difference within the standard error.
        rng = np.random.default_rng(11)
        meas = ROBUST_PROTOCOL.plus.oriented()
        tau = 0.4
        truth = expected_difference(meas, tau, RATES, FIG_PARAMS) / expected_difference(
            meas, 0.0, RATES, FIG_PARAMS
        )
        values = []
        for _ in range(400):
            counts = sample_signals(meas, tau, RATES, FIG_PARAMS, rng)
            values.append(measurement_estimate(counts).m_bar)
        values = np.asarray(values)
        sem = values.std() / np.sqrt(values.size)
        assert abs(values.mean() - truth) < 4.0 * sem
        assert abs(values.mean() - truth) < 0.01 * abs(truth)


class TestBiasStudy:
    def test_rows_and_text_columns(self):
        result = bias_study(
            FIG_PARAMS, RATES, 0.4, [1000, 10000], replicates=2000, seed=3
        )
        assert [row.repetitions for row in result.rows] == [1000, 10000]
        assert [row[0] for row in result.table] == [1000, 10000]
        assert all(len(row) == len(BiasStudyResult.COLUMNS) for row in result.table)

    def test_low_r_counts_nonpositive_denominators(self):
        result = bias_study(FIG_PARAMS, RATES, 0.4, [50], replicates=3000, seed=5)
        row = result.rows[0]
        assert row.zero_denominator_count > 0
        assert np.isfinite(row.mean_ratio_nonlinear)

    def test_converged_nonlinear_beats_linear_at_lower_r(self):
        # The headline comparison: once R is large enough for the nonlinear
        # estimator to converge (1e6), its residual bias is below the linear
        # estimator's bias at every lower tested R.
        result = bias_study(
            FIG_PARAMS, RATES, 0.4, [10**3, 10**4, 10**5, 10**6], replicates=10000, seed=7
        )
        nl_converged = abs(result.rows[-1].mean_ratio_nonlinear - 1.0)
        for row in result.rows[:-1]:
            assert nl_converged < abs(row.mean_ratio_linear - 1.0)

    def test_rowwise_advantage_at_intermediate_r(self):
        # At R=1e4 the denominator is a few sigma from zero: the regime the
        # mode-based estimate is built for, winning by a wide margin.
        result = bias_study(FIG_PARAMS, RATES, 0.4, [10**4], replicates=20000, seed=7)
        row = result.rows[0]
        assert abs(row.mean_ratio_nonlinear - 1.0) < 0.5 * abs(row.mean_ratio_linear - 1.0)

    def test_small_r_bias_visible(self):
        result = bias_study(FIG_PARAMS, RATES, 0.4, [10**3], replicates=10000, seed=7)
        assert abs(result.rows[0].mean_ratio_nonlinear - 1.0) > 0.05

    def test_high_r_bias_below_percent(self):
        result = bias_study(FIG_PARAMS, RATES, 0.4, [10**6], replicates=10000, seed=9)
        row = result.rows[0]
        assert abs(row.mean_ratio_nonlinear - 1.0) < 0.01
        assert abs(row.mean_ratio_m - 1.0) < 0.01

    def test_variance_source_paths_agree(self):
        # sigma_Delta from the counts, as bias_study takes it, against the
        # exact sigma_Delta of the known expectations on the same draws.
        replicates, r = 20000, 10000
        counts = bias_study(FIG_PARAMS, RATES, 0.4, [r], replicates=replicates, seed=13)
        params = replace(FIG_PARAMS, repetitions_R=r)
        means = expected_signals(ROBUST_PROTOCOL.plus.oriented(), 0.4, RATES, params)[0]
        rng = np.random.default_rng(13)
        _, _, s10, s20 = (rng.poisson(mean, size=replicates) for mean in means)
        z_exact, _ = reciprocal_mode((s10 - s20).astype(float), np.sqrt(means[2] + means[3]))
        a = counts.rows[0].mean_ratio_nonlinear
        b = float(z_exact.mean() * (means[2] - means[3]))
        assert abs(a - b) < 0.01 * abs(b)

    def test_low_r_means_are_the_floored_reciprocal_mode_of_the_draws(self):
        # At R = 50 both tau = 0 counts are often zero; such a draw's
        # sigma_Delta^2 is floored at one count before the reciprocal mode.
        replicates, r = 3000, 50
        row = bias_study(FIG_PARAMS, RATES, 0.4, [r], replicates=replicates, seed=5).rows[0]
        params = replace(FIG_PARAMS, repetitions_R=r)
        means = expected_signals(ROBUST_PROTOCOL.plus.oriented(), 0.4, RATES, params)[0]
        rng = np.random.default_rng(5)
        s1t, s2t, s10, s20 = (rng.poisson(mean, size=replicates) for mean in means)
        assert np.count_nonzero(s10 + s20 == 0) > 100
        z, _ = reciprocal_mode((s10 - s20).astype(float), np.sqrt(np.maximum(s10 + s20, 1.0)))
        delta_true = float(means[2] - means[3])
        m_true = float(means[0] - means[1]) / delta_true
        assert row.mean_ratio_nonlinear == float(z.mean() / (1.0 / delta_true))
        assert row.std_nonlinear == float(z.std() / (1.0 / delta_true))
        assert row.mean_ratio_m == float(((s1t - s2t) * z).mean() / m_true)

    def test_seed_reproducibility(self):
        a = bias_study(FIG_PARAMS, RATES, 0.4, [2000], replicates=2000, seed=21)
        b = bias_study(FIG_PARAMS, RATES, 0.4, [2000], replicates=2000, seed=21)
        assert a == b

    def test_non_whole_repetitions_raise(self):
        # int(1500.7) used to run R = 1500 and report it as asked.
        with pytest.raises(ValueError, match="repetitions_R must be a positive integer"):
            bias_study(FIG_PARAMS, RATES, 0.4, [1500.7], replicates=1000)

    def test_whole_float_repetitions_equal_integers(self):
        floats = bias_study(FIG_PARAMS, RATES, 0.4, [1e3, 1e4], replicates=2000, seed=3)
        ints = bias_study(FIG_PARAMS, RATES, 0.4, [1000, 10000], replicates=2000, seed=3)
        assert floats == ints
        assert [type(row.repetitions) for row in floats.rows] == [int, int]

    def test_validation(self):
        with pytest.raises(ValueError):
            bias_study(FIG_PARAMS, RATES, 0.4, [1000], replicates=10)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("replicates", 999),
            ("replicates", 1000.5),
            ("replicates", "2000"),
            ("replicates", True),
            ("r_values", []),
            ("r_values", np.array([], dtype=int)),
        ],
    )
    def test_bad_arguments_name_the_parameter(self, monkeypatch, name, value):
        # 1000.5 and "2000" used to reach numpy's TypeError, and an empty
        # r_values returned None for m_true and delta_per_repetition.
        def no_draw(*args):
            raise AssertionError("drew before checking its arguments")

        monkeypatch.setattr(estimator, "expected_signals", no_draw)
        arguments = {"r_values": [1000], "replicates": 2000, name: value}
        with pytest.raises(ValueError, match=f"^{name} must"):
            bias_study(FIG_PARAMS, RATES, 0.4, **arguments)
