"""Tests for the grid posterior: updates, moments, regridding, calibration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from oracles import ROBUST_CURVES, chi_squared_field, log_likelihood, scipy_regrid_weights
from spinrelax.estimator import measurement_estimate
from spinrelax.posterior import (
    DEFAULT_BOUNDS,
    MeasurementPair,
    PosteriorGrid,
    UpdateRejected,
    _bilinear,
    _log_normalizer,
    bayes_update,
    initial_grid,
    moments,
    regrid,
)
from spinrelax.protocols import measurement_curves
from spinrelax.rates import RatePair, model_m
from spinrelax.signals import OPTIMAL_PROTOCOL, ROBUST_PROTOCOL, SignalParams, sample_signals

TRUTH = RatePair(1.0, 3.0)
# The robust protocol's two-branch model, as bayes_update takes it.
LIKELIHOOD = ROBUST_CURVES.pair_value


def truth_pair(tau_plus=0.3, tau_minus=0.5, sigma=0.05):
    """Pair whose values sit exactly on the model curve at TRUTH."""
    return MeasurementPair(
        m_plus=float(model_m(tau_plus, TRUTH, "+")),
        m_minus=float(model_m(tau_minus, TRUTH, "-")),
        sigma_plus=sigma,
        sigma_minus=sigma,
        tau_plus=tau_plus,
        tau_minus=tau_minus,
    )


def log_uniform_grid(size):
    """Prior flat in log rate over DEFAULT_BOUNDS: weight 1/(G+ G-)."""
    axis = np.linspace(*DEFAULT_BOUNDS, size)
    return PosteriorGrid(axis, axis.copy(), -(np.log(axis)[:, None] + np.log(axis)[None, :]))


class TestGridConstruction:
    def test_initial_grid_shape_and_normalization(self):
        grid = initial_grid()
        assert grid.shape == (200, 200)
        assert grid.gamma_plus_axis[0] == DEFAULT_BOUNDS[0]
        assert grid.gamma_plus_axis[-1] == DEFAULT_BOUNDS[1]
        assert abs(grid.weights.sum() - 1.0) < 1e-12
        assert np.ptp(grid.weights) < 1e-18  # flat prior

    def test_log_uniform_prior(self):
        grid = log_uniform_grid(50)
        w = grid.weights
        gp, gm = grid.meshes()
        product = w * gp * gm
        assert np.allclose(product, product[0, 0], rtol=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            initial_grid(bounds=(2.0, 1.0))
        with pytest.raises(ValueError):
            PosteriorGrid(
                gamma_plus_axis=np.array([1.0, 0.5]),
                gamma_minus_axis=np.array([1.0, 2.0]),
                log_weights=np.zeros((2, 2)),
            )
        with pytest.raises(ValueError):
            PosteriorGrid(
                gamma_plus_axis=np.array([1.0, 200.0]),
                gamma_minus_axis=np.array([1.0, 2.0]),
                log_weights=np.zeros((2, 2)),
            )

    @pytest.mark.parametrize("bounds", [(0.1, np.inf), (0.0, 5.0), (np.nan, 5.0)])
    def test_initial_grid_needs_finite_positive_bounds(self, bounds):
        with pytest.raises(ValueError, match="0 < lo < hi < inf"):
            initial_grid(bounds=bounds)

    @pytest.mark.parametrize("end", [np.inf, np.nan])
    def test_rejects_non_finite_axes(self, end):
        # A NaN axis difference fails no `<= 0` check, so the values are checked.
        axis = np.array([0.1, 1.0, end])
        with pytest.raises(ValueError, match="axes must be finite"):
            PosteriorGrid(axis, axis.copy(), np.zeros((3, 3)), hard_bounds=(0.1, np.inf))

    @pytest.mark.parametrize("size", [3.7, 3.0, True])
    def test_initial_grid_size_must_be_an_integer(self, size):
        with pytest.raises(ValueError, match="size must be a positive integer"):
            initial_grid(size=size)

    @pytest.mark.parametrize("size", [2.5, 3.0, True, 0, -4])
    def test_regrid_size_must_be_a_positive_integer(self, size):
        with pytest.raises(ValueError, match="size must be a positive integer"):
            regrid(initial_grid(size=20), size)

    @pytest.mark.parametrize("fill", [-np.inf, np.inf])
    def test_rejects_non_finite_maximum(self, fill):
        # All -inf leaves nothing to normalize; any +inf is the maximum.
        lw = np.full((5, 5), -np.inf) if fill < 0 else np.zeros((5, 5))
        lw[2, 3] = fill
        axis = np.linspace(1.0, 2.0, 5)
        with pytest.raises(ValueError, match="finite maximum"):
            PosteriorGrid(axis, axis.copy(), lw)

    def test_weights_are_read_only(self):
        grid = initial_grid(size=10)
        assert grid.weights is grid.weights
        with pytest.raises(ValueError):
            grid.weights[0, 0] = 1.0

    def test_measurement_pair_validation(self):
        with pytest.raises(ValueError):
            truth_pair(sigma=0.0)
        with pytest.raises(ValueError):
            truth_pair(tau_plus=0.0)


class TestLogLikelihood:
    def test_maximum_at_truth_node(self):
        # Axes chosen to contain the true rates exactly: zero residual there,
        # strictly positive chi^2 anywhere else.
        axis = np.linspace(0.5, 4.5, 81)
        grid = PosteriorGrid(axis, axis.copy(), np.zeros((81, 81)))
        gp, gm = grid.meshes()
        ll = log_likelihood(truth_pair(), (gp, gm))
        i, j = np.unravel_index(np.argmax(ll), ll.shape)
        assert grid.gamma_plus_axis[i] == pytest.approx(TRUTH.gamma_plus, abs=1e-12)
        assert grid.gamma_minus_axis[j] == pytest.approx(TRUTH.gamma_minus, abs=1e-12)
        assert ll[i, j] == pytest.approx(0.0, abs=1e-20)

    def test_doubling_sigma_quarters_values(self):
        pair = truth_pair(sigma=0.05)
        wide = truth_pair(sigma=0.10)
        for rates in [RatePair(0.5, 2.0), RatePair(4.0, 1.0)]:
            assert log_likelihood(wide, rates) == pytest.approx(
                log_likelihood(pair, rates) / 4.0, rel=1e-12
            )

    def test_exchange_invariance(self):
        pair = MeasurementPair(0.1, 0.3, 0.05, 0.04, 0.2, 0.7)
        a = log_likelihood(pair, RatePair(1.0, 3.0))
        b = log_likelihood(pair.swapped(), RatePair(3.0, 1.0))
        assert a == pytest.approx(b, rel=1e-14)


class TestBayesUpdate:
    def test_flat_likelihood_preserves_prior(self):
        grid = log_uniform_grid(60)
        pair = truth_pair(sigma=1e12)
        updated = bayes_update(grid, pair, model=LIKELIHOOD)
        assert np.allclose(updated.weights, grid.weights, atol=1e-15)

    def test_product_rule(self):
        # Two updates with the same pair equal one update at sigma/sqrt(2),
        # which doubles every chi^2 exponent.
        grid = initial_grid(size=60)
        pair = truth_pair(sigma=0.08)
        twice = bayes_update(bayes_update(grid, pair, model=LIKELIHOOD), pair, model=LIKELIHOOD)
        half_sigma = MeasurementPair(
            pair.m_plus,
            pair.m_minus,
            pair.sigma_plus / np.sqrt(2.0),
            pair.sigma_minus / np.sqrt(2.0),
            pair.tau_plus,
            pair.tau_minus,
        )
        once = bayes_update(grid, half_sigma, model=LIKELIHOOD)
        assert np.allclose(twice.weights, once.weights, atol=1e-13)

    def test_update_commutativity(self):
        rng = np.random.default_rng(4)
        pairs = [
            MeasurementPair(
                m_plus=rng.uniform(-0.1, 0.9),
                m_minus=rng.uniform(-0.1, 0.9),
                sigma_plus=rng.uniform(0.02, 0.3),
                sigma_minus=rng.uniform(0.02, 0.3),
                tau_plus=rng.uniform(0.05, 1.0),
                tau_minus=rng.uniform(0.05, 1.0),
            )
            for _ in range(6)
        ]
        grid = initial_grid(size=50)
        forward = grid
        for p in pairs:
            forward = bayes_update(forward, p, model=LIKELIHOOD)
        backward = grid
        for p in reversed(pairs):
            backward = bayes_update(backward, p, model=LIKELIHOOD)
        assert np.allclose(forward.weights, backward.weights, atol=1e-10)

    def test_rejects_impossible_measurement(self):
        grid = initial_grid(size=40)
        pair = MeasurementPair(1e200, 0.1, 1e-150, 0.05, 0.3, 0.3)
        with pytest.raises(UpdateRejected):
            bayes_update(grid, pair, model=LIKELIHOOD)

    def test_posterior_exchange_invariance(self):
        grid = initial_grid(size=40)
        pair = MeasurementPair(0.2, 0.4, 0.05, 0.07, 0.3, 0.6)
        a = bayes_update(grid, pair, model=LIKELIHOOD)
        b = bayes_update(grid, pair.swapped(), model=LIKELIHOOD)
        assert np.allclose(a.weights, b.weights.T, atol=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(
        protocol=st.sampled_from([ROBUST_PROTOCOL, OPTIMAL_PROTOCOL]),
        size=st.one_of(st.integers(2, 80), st.just(200)),
        flat=st.booleans(),
        values=st.tuples(*[st.floats(-0.2, 1.0)] * 2),
        sigmas=st.tuples(*[st.sampled_from([1e-150, 1e-3, 0.05, 1e12])] * 2),
        taus=st.tuples(*[st.floats(1e-3, 10.0)] * 2),
        equal_delays=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_per_branch_oracle(
        self, protocol, size, flat, values, sigmas, taus, equal_delays, seed
    ):
        # The two-branch likelihood against one branch-model call per branch.
        rng = np.random.default_rng(seed)
        axes = (np.sort(rng.uniform(0.055, 100.0, size)) for _ in range(2))
        prior = np.zeros((size, size)) if flat else rng.normal(size=(size, size))
        grid = PosteriorGrid(*axes, prior)
        tau_plus, tau_minus = (taus[0], taus[0]) if equal_delays else taus
        pair = MeasurementPair(*values, *sigmas, tau_plus, tau_minus)
        curves = measurement_curves(protocol)
        lw = grid.log_weights - chi_squared_field(pair, *grid.meshes(), curves.value)
        if not np.isfinite(lw.max()):
            with pytest.raises(UpdateRejected):
                bayes_update(grid, pair, model=curves.pair_value)
            return
        want = PosteriorGrid(grid.gamma_plus_axis, grid.gamma_minus_axis, lw)
        got = bayes_update(grid, pair, model=curves.pair_value)
        assert np.array_equal(got.log_weights, want.log_weights)


class TestMoments:
    def test_two_point_grid(self):
        grid = PosteriorGrid(
            gamma_plus_axis=np.array([1.0, 3.0]),
            gamma_minus_axis=np.array([1.0, 3.0]),
            log_weights=np.log(np.full((2, 2), 0.25)),
        )
        mom = moments(grid)
        assert mom.mean_plus == pytest.approx(2.0, abs=1e-12)
        assert mom.mean_minus == pytest.approx(2.0, abs=1e-12)
        assert mom.sigma_plus == pytest.approx(1.0, abs=1e-12)
        assert mom.sigma_minus == pytest.approx(1.0, abs=1e-12)
        assert mom.covariance == pytest.approx(0.0, abs=1e-12)

    def test_uniform_rectangle(self):
        axis = np.linspace(1.0, 5.0, 200)
        grid = PosteriorGrid(axis, axis.copy(), np.zeros((200, 200)))
        mom = moments(grid)
        assert mom.mean_plus == pytest.approx(3.0, rel=1e-10)
        assert mom.sigma_plus == pytest.approx(4.0 / np.sqrt(12.0), rel=0.02)


class TestRegrid:
    def make_gaussian_grid(self, mean=(2.0, 5.0), sigma=(0.3, 0.6)):
        axis_p = np.linspace(0.1, 10.0, 150)
        axis_m = np.linspace(0.1, 12.0, 150)
        lw = -(
            ((axis_p[:, None] - mean[0]) / sigma[0]) ** 2
            + ((axis_m[None, :] - mean[1]) / sigma[1]) ** 2
        ) / 2.0
        return PosteriorGrid(axis_p, axis_m, lw)

    def test_moments_preserved(self):
        grid = self.make_gaussian_grid()
        before = moments(grid)
        after = moments(regrid(grid))
        assert after.mean_plus == pytest.approx(before.mean_plus, rel=0.005)
        assert after.mean_minus == pytest.approx(before.mean_minus, rel=0.005)
        assert after.sigma_plus == pytest.approx(before.sigma_plus, rel=0.005)
        assert after.sigma_minus == pytest.approx(before.sigma_minus, rel=0.005)

    def test_span_is_ten_sigma(self):
        # Narrow enough that mean +- 10 sigma stays inside the hard bounds.
        grid = self.make_gaussian_grid(sigma=(0.1, 0.15))
        mom = moments(grid)
        new = regrid(grid)
        assert new.gamma_plus_axis[0] == pytest.approx(
            mom.mean_plus - 10.0 * mom.sigma_plus, rel=1e-9
        )
        assert new.gamma_plus_axis[-1] == pytest.approx(
            mom.mean_plus + 10.0 * mom.sigma_plus, rel=1e-9
        )
        assert abs(new.weights.sum() - 1.0) < 1e-12

    def test_wide_posterior_clamps_to_hard_bounds(self):
        grid = initial_grid()  # flat: 10 sigma exceeds the support
        new = regrid(grid)
        assert new.gamma_plus_axis[0] == DEFAULT_BOUNDS[0]
        assert new.gamma_plus_axis[-1] == DEFAULT_BOUNDS[1]

    def test_delta_posterior_minimum_span(self):
        axis = np.linspace(1.0, 5.0, 41)  # cell = 0.1
        lw = np.full((41, 41), -np.inf)
        lw[20, 10] = 0.0
        grid = PosteriorGrid(axis, axis, lw)
        new = regrid(grid)
        span = new.gamma_plus_axis[-1] - new.gamma_plus_axis[0]
        assert span == pytest.approx(0.2, rel=1e-9)  # 2 old cells
        assert abs(new.weights.sum() - 1.0) < 1e-12
        mom = moments(new)
        assert mom.mean_plus == pytest.approx(3.0, rel=1e-6)
        assert mom.mean_minus == pytest.approx(2.0, rel=1e-6)


def _query_axis(axis, window, rng, q):
    """q query points placed against the old axis as `window` says."""
    lo, hi = axis[0], axis[-1]
    span = hi - lo
    if window == "inside":
        return np.sort(rng.uniform(lo, hi, q))
    if window == "on nodes":
        return np.concatenate([[lo], np.sort(rng.choice(axis, q)), [hi]])
    if window == "partly outside":
        return np.linspace(lo - rng.uniform(0.0, 1.0) * span, hi - rng.uniform(-1.0, 0.9) * span, q)
    side = hi + rng.uniform(1e-9, 1.0) * span if rng.random() < 0.5 else lo - 2.0 * span
    return np.linspace(side, side + rng.uniform(0.0, 1.0) * span, q)


WINDOWS = ["inside", "on nodes", "partly outside", "wholly outside"]


EPS = np.finfo(float).eps
TINY = np.finfo(float).smallest_subnormal


class TestKernelsMatchScipy:
    """The posterior's numpy kernels against scipy, to rounding.

    Both interpolators form the same convex combination of four corner values
    from the same cell fractions, in a different order: each result is within
    about 7 roundings of the exact value, so 16 eps of the largest value
    (plus 16 subnormal spacings where products underflow) bounds their gap.
    Both log-sum-exps take the same exps of the same shifted values and differ
    only in how they sum them (pairwise, a few tens of roundings for these
    sizes) and take the log, so 64 eps of (1 + |result|) bounds their gap.
    """

    @settings(max_examples=300, deadline=None)
    @given(
        sizes=st.tuples(st.integers(2, 260), st.integers(2, 260)),
        queries=st.tuples(st.integers(1, 80), st.integers(1, 80)),
        windows=st.tuples(st.sampled_from(WINDOWS), st.sampled_from(WINDOWS)),
        scale=st.sampled_from([1e-300, 1.0, 1e300]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bilinear_equals_regular_grid_interpolator(self, sizes, queries, windows, scale, seed):
        rng = np.random.default_rng(seed)
        gp, gm = (rng.uniform(-5.0, 5.0) + np.cumsum(rng.uniform(1e-3, 1.0, n)) for n in sizes)
        values = rng.random(sizes) * scale
        new_gp = _query_axis(gp, windows[0], rng, queries[0])
        new_gm = _query_axis(gm, windows[1], rng, queries[1])
        got = _bilinear(gp, gm, values, new_gp, new_gm)
        want = scipy_regrid_weights(gp, gm, values, new_gp, new_gm)
        assert got.shape == want.shape and got.flags.c_contiguous
        outside = ((new_gp < gp[0]) | (new_gp > gp[-1]))[:, None] | (new_gm < gm[0]) | (
            new_gm > gm[-1]
        )
        assert np.all(got[outside] == 0.0) and np.all(want[outside] == 0.0)
        assert np.all(np.abs(got - want) <= 16 * EPS * values.max() + 16 * TINY)

    @settings(max_examples=300, deadline=None)
    @given(
        shape=st.one_of(
            st.tuples(st.integers(1, 500)),
            st.tuples(st.integers(1, 60), st.integers(1, 60)),
            st.just((200, 200)),
        ),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
        neg_inf_share=st.sampled_from([0.0, 0.3, 0.95]),
        tie_share=st.sampled_from([0.0, 0.2, 0.9, 0.999]),
        all_equal=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_log_normalizer_equals_logsumexp(
        self, shape, scale, neg_inf_share, tie_share, all_equal, seed
    ):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=shape) * scale
        if all_equal:
            a[...] = a.flat[0]
        a[rng.random(shape) < tie_share] = a.max()
        drop = rng.random(shape) < neg_inf_share
        drop.flat[np.argmax(a)] = False
        a[drop] = -np.inf
        before = a.copy()
        want = logsumexp(a)
        assert abs(_log_normalizer(a) - want) <= 64 * EPS * (1.0 + abs(want))
        assert np.array_equal(a, before)


class TestKernelProperties:
    """Properties of the posterior kernels that need no reference implementation."""

    @settings(max_examples=200, deadline=None)
    @given(
        sizes=st.tuples(st.integers(2, 120), st.integers(2, 120)),
        queries=st.tuples(st.integers(1, 60), st.integers(1, 60)),
        windows=st.tuples(*[st.sampled_from(["inside", "on nodes"])] * 2),
        coefficients=st.tuples(*[st.sampled_from([0.0, -3.0, 1.0, 1e3])] * 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bilinear_reproduces_bilinear_functions(
        self, sizes, queries, windows, coefficients, seed
    ):
        # a + b x + c y + d x y is linear along each axis, so each separable
        # step interpolates it exactly.  The cell fractions are rounded, which
        # moves each point by a few ulp of its axis: 32 eps of the terms'
        # magnitudes bounds the error.
        rng = np.random.default_rng(seed)
        gp, gm = (rng.uniform(-5.0, 5.0) + np.cumsum(rng.uniform(1e-3, 1.0, n)) for n in sizes)
        a, b, c, d = coefficients

        def f(x, y):
            return a + b * x + c * y + d * x * y

        new_gp = _query_axis(gp, windows[0], rng, queries[0])
        new_gm = _query_axis(gm, windows[1], rng, queries[1])
        got = _bilinear(gp, gm, f(gp[:, None], gm[None, :]), new_gp, new_gm)
        x, y = np.abs(gp).max(), np.abs(gm).max()
        bound = 32 * EPS * (abs(a) + abs(b) * x + abs(c) * y + abs(d) * x * y)
        assert np.all(np.abs(got - f(new_gp[:, None], new_gm[None, :])) <= bound)

    @settings(max_examples=200, deadline=None)
    @given(
        shape=st.one_of(st.tuples(st.integers(1, 500)), st.just((200, 200))),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
        neg_inf_share=st.sampled_from([0.0, 0.5]),
        shift=st.sampled_from([-1e3, -1.0, 0.5, 7.0, 1e3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_log_normalizer_shifts_with_its_input(self, shape, scale, neg_inf_share, shift, seed):
        # The shifted copies of a and a + c differ by a few roundings of
        # |a| + |c|, and the sums and logs round alike on both sides: 64 eps
        # of (1 + max|a| + |c| + log(size)) bounds the gap.
        rng = np.random.default_rng(seed)
        a = rng.normal(size=shape) * scale
        drop = rng.random(shape) < neg_inf_share
        drop.flat[np.argmax(a)] = False
        a[drop] = -np.inf
        got, want = _log_normalizer(a + shift), _log_normalizer(a) + shift
        magnitude = 1.0 + np.abs(a[np.isfinite(a)]).max() + abs(shift) + np.log(a.size)
        assert abs(got - want) <= 64 * EPS * magnitude


class TestCalibration:
    def test_posterior_covers_truth(self):
        # Simulated experiments at fixed delays: the 2 sigma posterior
        # interval should cover the true rate in >= 90% of runs per rate.
        params = SignalParams(repetitions_R=10**6)
        n_runs, n_iter = 100, 12
        hits_p = hits_m = 0
        rng = np.random.default_rng(77)
        meas_p = ROBUST_PROTOCOL.plus.oriented(params)
        meas_m = ROBUST_PROTOCOL.minus.oriented(params)
        for _ in range(n_runs):
            grid = initial_grid(size=100)
            for _ in range(n_iter):
                four_p = sample_signals(meas_p, 0.35, TRUTH, params, rng)
                four_m = sample_signals(meas_m, 0.35, TRUTH, params, rng)
                est_p = measurement_estimate(four_p)
                est_m = measurement_estimate(four_m)
                pair = MeasurementPair(
                    m_plus=est_p.m_bar,
                    m_minus=est_m.m_bar,
                    sigma_plus=est_p.sigma_m,
                    sigma_minus=est_m.sigma_m,
                    tau_plus=0.35,
                    tau_minus=0.35,
                )
                grid = regrid(bayes_update(grid, pair, model=LIKELIHOOD))
            mom = moments(grid)
            if abs(mom.mean_plus - TRUTH.gamma_plus) < 2.0 * mom.sigma_plus:
                hits_p += 1
            if abs(mom.mean_minus - TRUTH.gamma_minus) < 2.0 * mom.sigma_minus:
                hits_m += 1
        assert hits_p >= 0.9 * n_runs
        assert hits_m >= 0.9 * n_runs

    def test_sigma_shrinks_with_updates(self):
        params = SignalParams(repetitions_R=10**6)
        rng = np.random.default_rng(5)
        meas_p = ROBUST_PROTOCOL.plus.oriented(params)
        meas_m = ROBUST_PROTOCOL.minus.oriented(params)
        grid = initial_grid(size=100)
        sigmas = []
        for _ in range(8):
            est_p = measurement_estimate(sample_signals(meas_p, 0.3, TRUTH, params, rng))
            est_m = measurement_estimate(sample_signals(meas_m, 0.3, TRUTH, params, rng))
            pair = MeasurementPair(
                est_p.m_bar, est_m.m_bar, est_p.sigma_m, est_m.sigma_m, 0.3, 0.3
            )
            grid = regrid(bayes_update(grid, pair, model=LIKELIHOOD))
            mom = moments(grid)
            sigmas.append(mom.sigma_plus + mom.sigma_minus)
        assert sigmas[-1] < 0.25 * sigmas[0]
