"""Tests for delay selection: Gaussian approximation, cost, optimizers."""

import dataclasses
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinrelax.design import (
    DEFAULT_GRID,
    BranchCurves,
    DelayGrid,
    DelayPair,
    ParticleCloud,
    TimingModel,
    UninformativeDesign,
    _BLOCK,
    _DELAYS,
    _FINE,
    _bounded_argmin,
    _branch_variances,
    _curve_tables,
    _det_bound,
    approx_cost_surface,
    cost_surface,
    gaussian_sigma,
    nob_select_delays,
    pf_select_delays,
)
from oracles import (
    ROBUST_CURVES,
    choice_from_grid,
    cost,
    dense_branch_variances,
    dense_pf_select_delays,
    exhaustive_argmin,
    expected_measurement,
    jacobian_sigma,
    one_branch,
)
from spinrelax.posterior import (
    MeasurementPair,
    PosteriorGrid,
    bayes_update,
    initial_grid,
    moments,
    regrid,
)
from spinrelax.protocols import (
    IDEAL_RANKING_PARAMS,
    _CLASS_MIX,
    _canonical_measurement,
    _sigma_tables,
    measurement_curves,
    minimal_cost,
)
from spinrelax import design
from spinrelax import rates as rates_module
from spinrelax.rates import BRANCHES, RatePair, model_gradient, model_m
from spinrelax.signals import OPTIMAL_PROTOCOL, ROBUST_PROTOCOL, ProtocolSpec, SignalParams

RATES = RatePair(1.0, 3.0)
TIMING = TimingModel(repetitions_R=10**6)
EPS = np.finfo(float).eps
# Nine protocols that put each of the 9 measurement classes once in the plus
# slot and once in the minus slot, so the kernel runs every class mix.
CLASS_PROTOCOLS = [
    ProtocolSpec(_canonical_measurement(key), _canonical_measurement(nxt))
    for key, nxt in zip(_CLASS_MIX, [*_CLASS_MIX][1:] + [*_CLASS_MIX][:1])
]


def sigma_callables(protocol, rates):
    """The protocol's two ideal-parameter sigma_M tables, as callables of the delay array."""

    def table(measurement):
        def sigma(taus):
            tables = _sigma_tables([protocol], rates, IDEAL_RANKING_PARAMS, DelayGrid(taus))
            return tables[measurement]

        return sigma

    return table(protocol.plus), table(protocol.minus)


class TestTimingModel:
    def test_reference_duration(self):
        # 1e6 repetitions at 100 us per branch delay: 2 R (0.1 + 0.1) ms = 400 s.
        assert TIMING.duration_seconds(0.1, 0.1) == pytest.approx(400.0, rel=1e-12)

    def test_overhead_and_per_shot(self):
        t = TimingModel(repetitions_R=1000, overhead_T0=2.5, per_shot_time=1e-6)
        base = 2.0 * 1000 * 0.3 * 1e-3
        assert t.duration_seconds(0.1, 0.2) == pytest.approx(base + 8e-3 + 2.5, rel=1e-12)
        # The delay part alone, in the operation order every clock relies on.
        assert t.delay_seconds(0.1, 0.2) == 2.0 * 1000 * (0.1 + 0.2) * 1e-3

    def test_duty_cycle(self):
        t = TimingModel(repetitions_R=1000, overhead_T0=0.0)
        assert t.duty_cycle(0.1, 0.2) == pytest.approx(1.0, rel=1e-12)
        t2 = TimingModel(repetitions_R=1000, overhead_T0=0.6)
        assert t2.duty_cycle(0.1, 0.2) == pytest.approx(0.5, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            TimingModel(repetitions_R=0)
        with pytest.raises(ValueError):
            TimingModel(repetitions_R=10, overhead_T0=-1.0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                TimingModel(repetitions_R=10, overhead_T0=bad)
            with pytest.raises(ValueError, match="finite"):
                TimingModel(repetitions_R=10, per_shot_time=bad)
        with pytest.raises(ValueError):
            DelayPair(0.0, 0.1)

    def test_boolean_repetitions_rejected(self):
        # True is an int equal to 1; a run would go ahead with R = 1.
        for flag in (True, np.True_):
            with pytest.raises(ValueError, match="repetitions_R must be a positive integer"):
                TimingModel(repetitions_R=flag)


class TestGaussianSigma:
    def test_dual_path_agreement(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            rates = RatePair(rng.uniform(0.1, 20.0), rng.uniform(0.1, 20.0))
            delays = DelayPair(rng.uniform(0.01, 3.0), rng.uniform(0.01, 3.0))
            sigma_m = (rng.uniform(0.001, 0.1), rng.uniform(0.001, 0.1))
            approx = gaussian_sigma(delays, rates, sigma_m, ROBUST_CURVES)
            cov = jacobian_sigma(delays, rates, sigma_m)
            assert approx.sigma_gamma_plus == pytest.approx(np.sqrt(cov[0, 0]), rel=1e-12)
            assert approx.sigma_gamma_minus == pytest.approx(np.sqrt(cov[1, 1]), rel=1e-12)
            assert approx.covariance == pytest.approx(cov[0, 1], rel=1e-9, abs=1e-15)
        # 2,000 designs across the default prior and delay span, where the
        # determinant can be tiny, after a named one whose widths overflow:
        # it must raise UninformativeDesign, not warn and return infinities.
        designs = [(DelayPair(5.0, 0.01), RatePair(60.0, 100.0), (0.05, 0.05))]
        rng = np.random.default_rng(1)
        for _ in range(2000):
            gp, gm = rng.uniform(0.06, 99, 2)
            tau_plus, tau_minus = np.exp(rng.uniform(np.log(3e-3), np.log(5.5), 2))
            sigma_m = rng.uniform(1e-3, 0.1, 2)
            designs.append((DelayPair(tau_plus, tau_minus), RatePair(gp, gm), tuple(sigma_m)))
        for delays, rates, sigma_m in designs:
            try:
                # An overflow in the oracle marks a design beyond float range.
                with np.errstate(all="ignore"):
                    cov = jacobian_sigma(delays, rates, sigma_m)
                finite = np.isfinite(cov).all()
            except UninformativeDesign:
                finite = False
            if not finite:
                with pytest.raises(UninformativeDesign):
                    gaussian_sigma(delays, rates, sigma_m, ROBUST_CURVES)
                continue
            approx = gaussian_sigma(delays, rates, sigma_m, ROBUST_CURVES)
            assert approx.sigma_gamma_plus == pytest.approx(np.sqrt(cov[0, 0]), rel=1e-10)
            assert approx.sigma_gamma_minus == pytest.approx(np.sqrt(cov[1, 1]), rel=1e-10)
            assert approx.covariance == pytest.approx(cov[0, 1], rel=1e-9)

    def test_exchange_symmetry(self):
        delays = DelayPair(0.2, 0.7)
        sigma_m = (0.02, 0.05)
        a = gaussian_sigma(delays, RATES, sigma_m, ROBUST_CURVES)
        b = gaussian_sigma(
            DelayPair(delays.tau_minus, delays.tau_plus),
            RATES.swapped(),
            (sigma_m[1], sigma_m[0]),
            ROBUST_CURVES,
        )
        assert a.sigma_gamma_plus == pytest.approx(b.sigma_gamma_minus, rel=1e-12)
        assert a.sigma_gamma_minus == pytest.approx(b.sigma_gamma_plus, rel=1e-12)
        assert a.covariance == pytest.approx(b.covariance, rel=1e-12)

    def test_singular_design_raises(self):
        # A gradient with identical rows carries information about only one
        # rate combination.
        flat = BranchCurves(
            gradient=lambda tau, rates, branch: (np.ones_like(tau), np.ones_like(tau)),
            pair_value=ROBUST_CURVES.pair_value,
        )
        with pytest.raises(UninformativeDesign):
            gaussian_sigma(DelayPair(0.1, 0.2), RATES, (0.05, 0.05), flat)

    def grid_sigma_errors(self, delays, s_plus, s_minus):
        """Relative deviation of gaussian_sigma from the exact grid posterior."""
        approx = gaussian_sigma(delays, RATES, (s_plus, s_minus), ROBUST_CURVES)
        axis_p = np.linspace(
            max(0.056, RATES.gamma_plus - 8 * approx.sigma_gamma_plus),
            RATES.gamma_plus + 8 * approx.sigma_gamma_plus,
            500,
        )
        axis_m = np.linspace(
            max(0.056, RATES.gamma_minus - 8 * approx.sigma_gamma_minus),
            RATES.gamma_minus + 8 * approx.sigma_gamma_minus,
            500,
        )
        grid = PosteriorGrid(axis_p, axis_m, np.zeros((500, 500)))
        pair = MeasurementPair(
            m_plus=float(model_m(delays.tau_plus, RATES, "+")),
            m_minus=float(model_m(delays.tau_minus, RATES, "-")),
            sigma_plus=s_plus,
            sigma_minus=s_minus,
            tau_plus=delays.tau_plus,
            tau_minus=delays.tau_minus,
        )
        mom = moments(bayes_update(grid, pair, model=ROBUST_CURVES.pair_value))
        return (
            abs(mom.sigma_plus / approx.sigma_gamma_plus - 1.0),
            abs(mom.sigma_minus / approx.sigma_gamma_minus - 1.0),
            np.sign(mom.covariance) == np.sign(approx.covariance),
        )

    def test_matches_grid_posterior_sigma(self):
        # Oracle: exact single-pair posterior on a fine grid around truth.
        # One reference-configuration pair leaves ~34% fractional rate
        # uncertainty, where the exact posterior is visibly skewed: measured
        # deviation 9%/5%. The curvature approximation converges
        # quadratically as sigma_M shrinks, reaching 2%/1% at half the
        # single-pair sigma (two pooled pairs) and <0.5% at a quarter.
        params = SignalParams()
        delays = nob_select_delays(RATES, TIMING, ROBUST_CURVES)
        _, s_plus = expected_measurement(ROBUST_PROTOCOL.plus, delays.tau_plus, RATES, params)
        _, s_minus = expected_measurement(
            ROBUST_PROTOCOL.minus, delays.tau_minus, RATES, params
        )
        err_p, err_m, cov_sign_ok = self.grid_sigma_errors(delays, s_plus, s_minus)
        assert err_p < 0.10 and err_m < 0.10
        assert cov_sign_ok
        half_p, half_m, _ = self.grid_sigma_errors(delays, s_plus / 2.0, s_minus / 2.0)
        assert half_p < 0.05 and half_m < 0.05
        assert half_p < 0.4 * err_p and half_m < 0.4 * err_m  # quadratic shrink


class TestDelayGrid:
    @pytest.mark.parametrize(
        "lo, hi", [(-1.0, 5.0), (0.0, 5.0), (5.0, 1.0), (1.0, np.inf), (np.nan, 5.0)]
    )
    def test_bad_bounds_raise_before_geomspace(self, lo, hi):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="positive and strictly increasing"):
                DelayGrid.from_bounds(lo, hi, 10)

    @pytest.mark.parametrize(
        "make", [DelayGrid.default, DelayGrid.wide, lambda size: DelayGrid.from_bounds(1, 2, size)]
    )
    @pytest.mark.parametrize("size", [2.5, 3.0, True])
    def test_size_must_be_an_integer(self, make, size):
        with pytest.raises(ValueError, match="size must be a positive integer"):
            make(size)

    @pytest.mark.parametrize(
        "taus", [[0.1, np.nan, 1.0], [0.1, np.inf], [np.nan, 0.1], [-np.inf, 0.1]]
    )
    def test_non_finite_delays_rejected(self, taus):
        with pytest.raises(ValueError, match="delay grid must be finite"):
            DelayGrid(taus)

    def test_taus_are_a_read_only_copy(self):
        # Grids are shared (DEFAULT_GRID), so no caller may write into one.
        source = np.geomspace(0.1, 1.0, 5)
        grid = DelayGrid(source)
        source[0] = 0.05
        assert grid.taus[0] == 0.1
        for taus in (grid.taus, DEFAULT_GRID.taus):
            with pytest.raises(ValueError):
                taus[0] = 1.0


class TestCost:
    @pytest.mark.parametrize("sigma_m", [(0.1,), (0.1, 0.2, 0.3)])
    def test_sigma_m_needs_one_entry_per_branch(self, sigma_m):
        # zip would pair the branches with the first two of three entries,
        # or leave the minus branch without tables for one.
        grid = DelayGrid.from_bounds(0.01, 3.0, 10)
        with pytest.raises(ValueError, match="zip"):
            cost_surface(grid, RATES, sigma_m, TIMING, ROBUST_CURVES)
        with pytest.raises(ValueError, match="zip"):
            gaussian_sigma(DelayPair(0.3, 0.6), RATES, sigma_m, ROBUST_CURVES)

    def test_sigma_scaling_is_linear(self):
        delays = DelayPair(0.3, 0.6)
        base = cost(delays, RATES, (0.02, 0.03), TIMING)
        for k in (0.1, 3.0, 10.0):
            scaled = cost(delays, RATES, (0.02 * k, 0.03 * k), TIMING)
            assert scaled == pytest.approx(k * base, rel=1e-12)

    def test_exchange_symmetry(self):
        a = cost(DelayPair(0.2, 0.7), RATES, (0.02, 0.05), TIMING)
        b = cost(DelayPair(0.7, 0.2), RATES.swapped(), (0.05, 0.02), TIMING)
        assert a == pytest.approx(b, rel=1e-12)

    def test_shot_noise_r_invariance(self):
        # Shot-noise-limited, T0 = 0: quadrupling R halves sigma_M and
        # quadruples T; the two effects cancel exactly in the cost.
        delays = DelayPair(0.4, 0.8)
        sigma = (0.04, 0.03)
        base = cost(delays, RATES, sigma, TimingModel(repetitions_R=10**6))
        quad = cost(
            delays,
            RATES,
            (sigma[0] / 2.0, sigma[1] / 2.0),
            TimingModel(repetitions_R=4 * 10**6),
        )
        assert quad == pytest.approx(base, rel=1e-12)

    def test_uninformative_design_costs_infinity(self):
        flat = BranchCurves(
            gradient=lambda tau, rates, branch: (np.ones_like(tau), np.ones_like(tau)),
            pair_value=ROBUST_CURVES.pair_value,
        )
        assert cost(DelayPair(0.1, 0.2), RATES, (0.05, 0.05), TIMING, flat) == np.inf

    def test_unique_interior_minimum(self):
        grid = DelayGrid.default(size=1000)
        surface = cost_surface(grid, RATES, (0.05, 0.05), TIMING, ROBUST_CURVES)
        i, j = np.unravel_index(np.argmin(surface), surface.shape)
        assert 0 < i < grid.taus.size - 1
        assert 0 < j < grid.taus.size - 1
        assert np.count_nonzero(surface == surface[i, j]) == 1


class TestSurfaces:
    def test_full_equals_sigma_times_approx(self):
        grid = DelayGrid.default(size=200)
        sigma = 0.037
        full = cost_surface(grid, RATES, (sigma, sigma), TIMING, ROBUST_CURVES)
        approx = approx_cost_surface(grid, RATES, TIMING, ROBUST_CURVES)
        assert np.allclose(full, sigma * approx, rtol=1e-12)

    def test_argmin_agreement_random_rates(self):
        rng = np.random.default_rng(3)
        grid = DelayGrid.default(size=300)
        for _ in range(50):
            rates = RatePair(rng.uniform(0.1, 30.0), rng.uniform(0.1, 30.0))
            full = cost_surface(grid, rates, (1.0, 1.0), TIMING, ROBUST_CURVES)
            approx = approx_cost_surface(grid, rates, TIMING, ROBUST_CURVES)
            fi, fj = np.unravel_index(np.argmin(full), full.shape)
            ai, aj = np.unravel_index(np.argmin(approx), approx.shape)
            assert abs(fi - ai) <= 1 and abs(fj - aj) <= 1

    def test_tau_dependent_sigma_supported(self):
        grid = DelayGrid.default(size=50)
        params = SignalParams()

        def sig_plus(taus):
            return expected_measurement(ROBUST_PROTOCOL.plus, taus, RATES, params)[1]

        def sig_minus(taus):
            return expected_measurement(ROBUST_PROTOCOL.minus, taus, RATES, params)[1]

        surface = cost_surface(grid, RATES, (sig_plus, sig_minus), TIMING, ROBUST_CURVES)
        assert np.all(np.isfinite(surface))
        # Spot-check one cell against the scalar path.
        i, j = 20, 35
        delays = DelayPair(grid.taus[i], grid.taus[j])
        scalar = cost(
            delays,
            RATES,
            (float(sig_plus(np.array(delays.tau_plus))), float(sig_minus(np.array(delays.tau_minus)))),
            TIMING,
        )
        assert surface[i, j] == pytest.approx(scalar, rel=1e-12)


GRID_KINDS = {
    "default": DelayGrid.default,
    "wide": DelayGrid.wide,
    "bounds": lambda size: DelayGrid.from_bounds(0.01, 20.0, size),
    # Short delays only: slow rates put the minimum on the last row and column.
    "short": lambda size: DelayGrid.from_bounds(1e-3, 0.05, size),
}
# Gradient components exchanged: the cross terms b, c dominate the determinant.
SWAPPED_CURVES = BranchCurves(
    gradient=lambda tau, rates, branch: model_gradient(tau, rates, branch)[::-1],
    pair_value=ROBUST_CURVES.pair_value,
)
TIMINGS = (TIMING, TimingModel(repetitions_R=10**4, overhead_T0=0.5, per_shot_time=1e-6))


def kernel_and_exhaustive(grid, rates, timing, curves=ROBUST_CURVES, sigma_m=None):
    """Bounded argmin and np.argmin over the public surface, both as (i, j, value).

    sigma_m None selects the sigma-free approximate cost.
    """
    taus = (grid.taus, grid.taus)
    if sigma_m is None:
        got = _bounded_argmin(grid, rates, timing, _curve_tables(taus, rates, (1.0, 1.0), curves))
        surface = approx_cost_surface(grid, rates, timing, curves)
    else:
        got = _bounded_argmin(grid, rates, timing, _curve_tables(taus, rates, sigma_m, curves))
        surface = cost_surface(grid, rates, sigma_m, timing, curves)
    want = exhaustive_argmin(surface)
    # repr tells NaN, -0.0 and every float bit pattern apart.
    assert got[:2] == want[:2] and repr(got[2]) == repr(want[2])
    return got, surface


class TestBoundedArgmin:
    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(sorted(GRID_KINDS)),
        size=st.one_of(
            st.integers(2, 25), st.integers(26, 300), st.sampled_from([997, 1000, 1013])
        ),
        log_rates=st.tuples(*[st.floats(np.log(0.06), np.log(90.0))] * 2),
        curves_kind=st.sampled_from(["closed form", "optimal", "swapped"]),
        sigma=st.sampled_from(["approx", "scalar", "callable"]),
        scalars=st.tuples(*[st.floats(1e-3, 1.0)] * 2),
        timing=st.sampled_from(TIMINGS),
    )
    def test_matches_exhaustive_argmin(
        self, kind, size, log_rates, curves_kind, sigma, scalars, timing
    ):
        grid = GRID_KINDS[kind](size)
        rates = tuple(np.exp(log_rates))
        # The robust protocol's curves are model_m; the optimal protocol's
        # are the same kernel with mixing rates gamma_+ - gamma_- and back.
        protocol = OPTIMAL_PROTOCOL if curves_kind == "optimal" else ROBUST_PROTOCOL
        curves = {
            "closed form": ROBUST_CURVES,
            "optimal": measurement_curves(OPTIMAL_PROTOCOL),
            "swapped": SWAPPED_CURVES,
        }[curves_kind]
        sigma_m = {
            "approx": None,
            "scalar": scalars,
            "callable": sigma_callables(protocol, rates),
        }[sigma]
        kernel_and_exhaustive(grid, rates, timing, curves, sigma_m)

    @pytest.mark.parametrize("kind", sorted(GRID_KINDS))
    def test_unit_sigma_cost_is_the_approximate_cost(self, kind):
        grid = GRID_KINDS[kind](300)
        for curves in (ROBUST_CURVES, measurement_curves(OPTIMAL_PROTOCOL), SWAPPED_CURVES):
            for rates in (RATES, (0.07, 60.0)):
                full = cost_surface(grid, rates, (1.0, 1.0), TIMING, curves)
                approx = approx_cost_surface(grid, rates, TIMING, curves)
                assert full.tobytes() == approx.tobytes()

    @pytest.mark.parametrize("sigma_m", [None, (0.03, 0.03)])
    def test_symmetric_tie_takes_row_major_first(self, sigma_m):
        # Both slots measure the plus branch: det is antisymmetric, so the
        # diagonal is singular and at rates (2, 2) every cost has its mirror.
        mirrored = BranchCurves(
            gradient=lambda tau, rates, branch: model_gradient(tau, rates, "+"),
            pair_value=ROBUST_CURVES.pair_value,
        )
        grid = DelayGrid.default(size=137)
        (i, j, _), surface = kernel_and_exhaustive(grid, (2.0, 2.0), TIMING, mirrored, sigma_m)
        assert np.count_nonzero(surface == surface[i, j]) == 2
        assert surface[j, i] == surface[i, j] and i < j

    @pytest.mark.parametrize("sigma_m", [None, (0.03, 0.03)])
    def test_all_infinite_surface_gives_first_cell(self, sigma_m):
        flat = BranchCurves(
            gradient=lambda tau, rates, branch: (np.ones_like(tau), np.ones_like(tau)),
            pair_value=ROBUST_CURVES.pair_value,
        )
        got, surface = kernel_and_exhaustive(DelayGrid.default(), RATES, TIMING, flat, sigma_m)
        assert np.all(surface == np.inf) and got == (0, 0, np.inf)

    def test_nan_gradient_table_gives_first_nan_cell(self):
        grid = DelayGrid.default(size=300)
        poisoned = grid.taus[123]

        def gradient(tau, rates, branch):
            g_plus, g_minus = model_gradient(tau, rates, branch)
            return np.where(tau == poisoned, np.nan, g_plus), g_minus

        curves = BranchCurves(gradient=gradient, pair_value=ROBUST_CURVES.pair_value)
        got, _ = kernel_and_exhaustive(grid, RATES, TIMING, curves)
        assert got[:2] == (0, 123) and np.isnan(got[2])

    def test_nan_sigma_table_matches_exhaustive(self):
        # A NaN sigma_M is no uncertainty: the bounded argmin's tables and
        # the full surface both reject it, as they reject sigma_M <= 0.
        grid = DelayGrid.default()

        def sigma_plus(taus):
            return np.where(np.arange(taus.size) == 400, np.nan, 0.02)

        for sigma_m in ((sigma_plus, 0.03), (0.03, np.nan)):
            with pytest.raises(ValueError, match="sigma_m entries must be positive"):
                _curve_tables((grid.taus, grid.taus), RATES, sigma_m, ROBUST_CURVES)
            with pytest.raises(ValueError, match="sigma_m entries must be positive"):
                cost_surface(grid, RATES, sigma_m, TIMING, ROBUST_CURVES)

    def test_selectors_use_the_kernel(self):
        grid = DelayGrid.wide(size=640)
        i, j, _ = exhaustive_argmin(approx_cost_surface(grid, RATES, TIMING, ROBUST_CURVES))
        chosen = nob_select_delays(RATES, TIMING, ROBUST_CURVES, grid)
        assert chosen == DelayPair(grid.taus[i], grid.taus[j])
        sigma_m = sigma_callables(OPTIMAL_PROTOCOL, RATES)
        timing = TimingModel(repetitions_R=IDEAL_RANKING_PARAMS.repetitions_R)
        surface = cost_surface(grid, RATES, sigma_m, timing, measurement_curves(OPTIMAL_PROTOCOL))
        i, j, value = exhaustive_argmin(surface)
        delays, got = minimal_cost(OPTIMAL_PROTOCOL, RATES, grid=grid)
        assert delays == DelayPair(grid.taus[i], grid.taus[j]) and got == value

    def test_subnormal_determinant_costs_infinity_silently(self):
        # At the wide grid's long delays thousands of cells have a subnormal
        # information determinant: their cost overflows to inf, unwarned.
        grid = DelayGrid.wide(size=640)
        sigma_m = sigma_callables(OPTIMAL_PROTOCOL, RATES)
        timing = TimingModel(repetitions_R=IDEAL_RANKING_PARAMS.repetitions_R)
        curves = measurement_curves(OPTIMAL_PROTOCOL)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            surface = cost_surface(grid, RATES, sigma_m, timing, curves)
            _, value = minimal_cost(OPTIMAL_PROTOCOL, RATES, grid=grid)
        assert np.any(np.isinf(surface)) and value == surface.min()


def table_curves(taus, tables):
    """BranchCurves whose gradients over taus are (g_pp, g_pm, g_mp, g_mm)."""
    g_pp, g_pm, g_mp, g_mm = tables

    def gradient(tau, rates, branch):
        k = np.searchsorted(taus, tau)
        return (g_pp[k], g_pm[k]) if branch == "+" else (g_mp[k], g_mm[k])

    return BranchCurves(gradient=gradient, pair_value=ROBUST_CURVES.pair_value)


def synthetic_tables(rng, taus, kind):
    """Gradient tables (g_pp, g_pm, g_mp, g_mm) for the interval bound's hard cases.

    "sign changes": waves fast enough to cross zero inside a block.
    "cancelling": g_pm = s g_pp and g_mm = s g_mp to a few ulp, so
    a d - b c is a few ulp of a d, on all or half of the tau_minus axis.
    "stepped": the same with piecewise-constant tables jittered by an ulp,
    so many blocks see spans a few ulp wide.
    """
    n = taus.size
    x = np.log(taus)

    def wave():
        freq = np.exp(rng.uniform(0.0, np.log(300.0)))
        offset = rng.uniform(-1.0, 1.0) if rng.uniform() < 0.5 else 0.0
        return rng.lognormal() * (np.sin(freq * x + rng.uniform(0.0, 2.0 * np.pi)) + offset)

    def steps():
        levels = np.repeat(rng.normal(size=n), rng.integers(1, 30, n))[:n]
        return levels * (1.0 + rng.integers(-2, 3, n) * 2.0**-52)

    if kind == "sign changes":
        return wave(), wave(), wave(), wave()
    f, h = (wave(), wave()) if kind == "cancelling" else (steps(), steps())
    s = rng.choice([-1.0, 1.0]) * rng.lognormal()
    near = s * h * (1.0 + rng.integers(-3, 4, n) * 2.0**-52)
    mask = rng.uniform(size=n) < rng.choice([0.5, 1.0])
    return f, s * f, h, np.where(mask, near, wave())


class TestIntervalBound:
    """The interval bound on synthetic tables, against np.argmin."""

    @settings(max_examples=150, deadline=None)
    @given(
        size=st.one_of(st.integers(2, 80), st.sampled_from([239, 240, 1000])),
        kind=st.sampled_from(["sign changes", "cancelling", "stepped"]),
        seed=st.integers(0, 2**32 - 1),
        sigma=st.sampled_from(["approx", "scalar", "callable", "mixed"]),
        timing=st.sampled_from(TIMINGS),
    )
    def test_synthetic_tables_match_exhaustive(self, size, kind, seed, sigma, timing):
        rng = np.random.default_rng(seed)
        grid = DelayGrid.default(size)
        taus = grid.taus
        curves = table_curves(taus, synthetic_tables(rng, taus, kind))
        rates = tuple(np.exp(rng.uniform(np.log(0.06), np.log(90.0), 2)))

        def sigma_callable():
            table = rng.lognormal(np.log(0.03), 1.0, taus.size)
            return lambda t: table[np.searchsorted(taus, t)]

        scalars = tuple(rng.uniform(1e-3, 1.0, 2))
        sigma_m = {
            "approx": None,
            "scalar": scalars,
            "callable": (sigma_callable(), sigma_callable()),
            "mixed": (scalars[0], sigma_callable())[:: rng.choice([-1, 1])],
        }[sigma]
        kernel_and_exhaustive(grid, rates, timing, curves, sigma_m)

    @settings(max_examples=100, deadline=None)
    @given(
        size=st.one_of(st.integers(2, 80), st.sampled_from([239, 1000])),
        kind=st.sampled_from(["sign changes", "cancelling", "stepped"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_det_bound_covers_every_rounded_cell(self, size, kind, seed):
        # The cells compute a[r] * d[c] - b[r] * c[c] in this order.
        a, b, c, d = synthetic_tables(np.random.default_rng(seed), DelayGrid.default(size).taus, kind)
        det = np.abs(np.multiply.outer(a, d) - np.multiply.outer(b, c))
        # Both pruning levels: every block pair of each level's edge.
        for edge in (_BLOCK, _FINE):
            starts = np.arange(0, size, edge)
            block = np.arange(size) // edge
            rows, cols = np.divmod(np.arange(starts.size**2), starts.size)
            bound = _det_bound((a, b, c, d), starts, rows, cols).reshape(starts.size, starts.size)
            assert np.all(det <= bound[np.ix_(block, block)])


class TestPruning:
    """Cells the bounded argmin evaluates, probe included, at the fig2 and fig7 inputs.

    The ceilings sit 2 to 3% above the counts measured with the interval
    bound pruning 24-cell blocks, then 6-cell blocks inside the survivors
    (9,252 and 11,700, the probe's 1,764 included).  One level of 12-cell
    blocks evaluated 18,612 and 23,364; the triangle bound
    max|a| max|d| + max|b| max|c| on 20-cell blocks 120,800 and 49,200.
    """

    @pytest.fixture
    def counted(self, monkeypatch):
        count = [0]
        kernel = design._cost_kernel

        def counting_kernel(*args):
            tables, sums, cells = kernel(*args)

            def counting_cells(row, col):
                count[0] += np.broadcast(row, col).size
                return cells(row, col)

            return tables, sums, counting_cells

        monkeypatch.setattr(design, "_cost_kernel", counting_kernel)
        return count

    def test_fig2_truth(self, counted):
        nob_select_delays(RATES, TIMING, measurement_curves(ROBUST_PROTOCOL))
        assert 0 < counted[0] <= 9_500

    def test_fig7_optimal_protocol(self, counted):
        minimal_cost(OPTIMAL_PROTOCOL, RATES)
        assert 0 < counted[0] <= 12_000


class TestNobSelect:
    def test_equal_rates_pick_equal_delays(self):
        delays = nob_select_delays((2.0, 2.0), TIMING, ROBUST_CURVES)
        assert delays.tau_plus == delays.tau_minus

    def test_rate_rescaling_scales_delays(self):
        grid = DelayGrid.from_bounds(3e-3, 5.5, 400)
        half_grid = DelayGrid(grid.taus / 2.0)
        timing = TimingModel(repetitions_R=10**6)
        base = nob_select_delays((1.0, 3.0), timing, ROBUST_CURVES, grid)
        scaled = nob_select_delays((2.0, 6.0), timing, ROBUST_CURVES, half_grid)
        assert scaled.tau_plus == pytest.approx(base.tau_plus / 2.0, rel=1e-12)
        assert scaled.tau_minus == pytest.approx(base.tau_minus / 2.0, rel=1e-12)

    def test_accepts_moments_and_ratepair(self):
        from spinrelax.posterior import PosteriorMoments

        mom = PosteriorMoments(1.0, 3.0, 0.1, 0.1, 0.0)
        a = nob_select_delays(mom, TIMING, ROBUST_CURVES)
        b = nob_select_delays(RATES, TIMING, ROBUST_CURVES)
        c = nob_select_delays((1.0, 3.0), TIMING, ROBUST_CURVES)
        assert a == b == c

    def test_deterministic(self):
        a = nob_select_delays(RATES, TIMING, ROBUST_CURVES)
        b = nob_select_delays(RATES, TIMING, ROBUST_CURVES)
        assert a == b
        assert 3e-3 <= a.tau_plus <= 5.5


class TestParticleSelect:
    def make_cloud(self, rng, center=(1.0, 3.0), spread=0.05, n=4000):
        gammas = np.column_stack(
            [
                rng.normal(center[0], spread, n).clip(0.06, 99.0),
                rng.normal(center[1], spread * 3, n).clip(0.06, 99.0),
            ]
        )
        return ParticleCloud(gammas=gammas, weights=np.full(n, 1.0 / n))

    def test_degenerate_cloud_falls_back_to_nob(self):
        cloud = ParticleCloud(
            gammas=np.tile([1.0, 3.0], (100, 1)), weights=np.full(100, 0.01)
        )
        assert cloud.is_degenerate()
        pf = pf_select_delays(cloud, TIMING, ROBUST_CURVES)
        nob = nob_select_delays((1.0, 3.0), TIMING, ROBUST_CURVES)
        assert pf == nob

    def test_zero_utility_falls_back_to_nob_at_the_mean_rates(self):
        # All weight on one particle: every variance is exactly 0, so no
        # delay pair has positive utility, although the cloud is not degenerate.
        cloud = ParticleCloud(gammas=np.array([[1.0, 3.0], [2.0, 5.0]]), weights=np.array([1, 0]))
        assert not cloud.is_degenerate()
        pf = pf_select_delays(cloud, TIMING, ROBUST_CURVES)
        assert pf == nob_select_delays((1.0, 3.0), TIMING, ROBUST_CURVES)

    def test_narrow_cloud_lands_near_nob(self):
        rng = np.random.default_rng(12)
        pf = pf_select_delays(self.make_cloud(rng), TIMING, ROBUST_CURVES)
        nob = nob_select_delays(RATES, TIMING, ROBUST_CURVES)
        for chosen, reference in [
            (pf.tau_plus, nob.tau_plus),
            (pf.tau_minus, nob.tau_minus),
        ]:
            assert reference / 10.0 <= chosen <= reference * 10.0

    def test_from_grid_sampling(self):
        axis = np.linspace(0.5, 5.0, 60)
        lw = np.full((60, 60), -np.inf)
        lw[10, 40] = 0.0
        grid = PosteriorGrid(axis, axis, lw)
        rng = np.random.default_rng(2)
        cloud = ParticleCloud.from_grid(grid, n=2000, rng=rng)
        assert cloud.gammas.shape == (2000, 2)
        assert abs(cloud.weights.sum() - 1.0) < 1e-12
        cell = axis[1] - axis[0]
        assert np.all(np.abs(cloud.gammas[:, 0] - axis[10]) <= 0.5 * cell + 1e-12)
        assert np.all(np.abs(cloud.gammas[:, 1] - axis[40]) <= 0.5 * cell + 1e-12)

    def test_seeded_reproducibility(self):
        grid_axis = np.linspace(0.5, 5.0, 40)
        lw = -((grid_axis[:, None] - 2.0) ** 2 + (grid_axis[None, :] - 3.0) ** 2)
        post = PosteriorGrid(grid_axis, grid_axis, lw)
        a = pf_select_delays(
            ParticleCloud.from_grid(post, n=5000, rng=np.random.default_rng(9)),
            TIMING,
            ROBUST_CURVES,
        )
        b = pf_select_delays(
            ParticleCloud.from_grid(post, n=5000, rng=np.random.default_rng(9)),
            TIMING,
            ROBUST_CURVES,
        )
        assert a == b

    @pytest.mark.parametrize("subgrid", [0, -5, 2.5, 100.0, True])
    def test_subgrid_must_be_a_positive_integer(self, subgrid):
        # 0 divided by zero, -5 scored every delay and 2.5 was truncated.
        cloud = self.make_cloud(np.random.default_rng(4), n=50)
        with pytest.raises(ValueError, match="subgrid must be a positive integer"):
            pf_select_delays(cloud, TIMING, ROBUST_CURVES, subgrid=subgrid)

    def test_subgrid_takes_numpy_integers(self):
        cloud = self.make_cloud(np.random.default_rng(4), n=50)
        a = pf_select_delays(cloud, TIMING, ROBUST_CURVES, subgrid=np.int64(40))
        assert a == pf_select_delays(cloud, TIMING, ROBUST_CURVES, subgrid=40)

    @pytest.mark.parametrize("n", [2.5, 0, True])
    def test_from_grid_n_must_be_a_positive_integer(self, n):
        # 2.5 drew 2 particles and True drew 1.
        with pytest.raises(ValueError, match="n must be a positive integer"):
            ParticleCloud.from_grid(initial_grid(), n, np.random.default_rng(3))

    def test_from_grid_takes_numpy_integers(self):
        a = ParticleCloud.from_grid(initial_grid(), np.int64(4), np.random.default_rng(3))
        b = ParticleCloud.from_grid(initial_grid(), 4, np.random.default_rng(3))
        assert np.array_equal(a.gammas, b.gammas) and np.array_equal(a.weights, b.weights)
        assert a.gammas.shape == (4, 2)

    def test_cloud_validation(self):
        with pytest.raises(ValueError):
            ParticleCloud(gammas=np.zeros((0, 2)), weights=np.zeros(0))
        with pytest.raises(ValueError):
            ParticleCloud(gammas=np.ones((3, 2)), weights=np.array([1.0, -1.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, -1.0, 0.0, -0.0, np.inf])
    def test_rates_outside_the_rate_domain_rejected(self, bad):
        # A NaN rate selected (0.003, 0.003) silently; -1 and 0 selected delays.
        gammas = self.make_cloud(np.random.default_rng(4), n=50).gammas.copy()
        gammas[7, 1] = bad
        with pytest.raises(ValueError, match="gammas must be positive and finite"):
            ParticleCloud(gammas=gammas, weights=np.full(50, 0.02))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_weights_rejected(self, bad):
        # An infinite weight normalized to [nan, 0]; a NaN one claimed all vanished.
        with pytest.raises(ValueError, match="weights must be finite and nonnegative"):
            ParticleCloud(gammas=np.ones((2, 2)), weights=np.array([bad, 1.0]))


def draw_grid(kind, rng):
    """A flat prior, a grid after one fold, or one with zero-weight cells
    (its first and last cell among them)."""
    if kind == "flat":
        return initial_grid()
    if kind == "regridded":
        rates = RatePair(*rng.uniform(0.3, 30.0, 2))
        taus = rng.uniform(0.05, 2.0, 2)
        pair = MeasurementPair(
            m_plus=float(model_m(taus[0], rates, "+")) + rng.normal(0.0, 0.01),
            m_minus=float(model_m(taus[1], rates, "-")) + rng.normal(0.0, 0.01),
            sigma_plus=0.01,
            sigma_minus=0.01,
            tau_plus=taus[0],
            tau_minus=taus[1],
        )
        return regrid(bayes_update(initial_grid(), pair, ROBUST_CURVES.pair_value))
    lw = rng.normal(0.0, 3.0, (60, 50))
    lw[rng.random(lw.shape) < rng.uniform(0.1, 0.99)] = -np.inf
    lw.flat[[0, -1]] = -np.inf
    lw.flat[rng.integers(1, lw.size - 1)] = 0.0
    return PosteriorGrid(np.linspace(0.5, 5.0, 60), np.linspace(1.0, 9.0, 50), lw)


class TestFromGridDraw:
    """from_grid's sorted index search against rng.choice (oracles'
    `choice_from_grid`): the same cloud and the same generator state."""

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["flat", "regridded", "zeros"]),
        n=st.sampled_from([1, 2, 20_000]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_rng_choice(self, kind, n, seed):
        grid = draw_grid(kind, np.random.default_rng(seed))
        rng_new, rng_old = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        got = ParticleCloud.from_grid(grid, n, rng_new)
        want = choice_from_grid(grid, n, rng_old)
        assert np.array_equal(got.gammas, want.gammas)
        assert np.array_equal(got.weights, want.weights)
        assert rng_new.bit_generator.state == rng_old.bit_generator.state


class TestBlockedParticleSelect:
    """The delay-blocked selector against the whole-array oracle, to rounding.

    Both sides sum n terms per delay, w x for the mean and w (x - mean)^2
    for the variance.  Summed in any order, n nonnegative terms carry at
    most (n - 1) roundings of their total; the mean's error e <= (n + 1) u X
    (X = max |x|, u = eps / 2) moves the variance by e^2 to second order,
    and sum(w) = 1 only to n roundings.  So the variances may differ by
    2 (n + 4) eps var + (2 (n + 2) eps X)^2, and the selected delays are the
    oracle's or score within the two cells' bounds of the oracle's best.
    """

    @staticmethod
    def random_cloud(seed, n, spread):
        rng = np.random.default_rng(seed)
        center = np.exp(rng.uniform(np.log(0.1), np.log(20.0), 2))
        gammas = (center * np.exp(rng.normal(0.0, spread, (n, 2)))).clip(0.055, 100.0)
        weights = rng.exponential(1.0, n) * (rng.uniform(size=n) > 0.2)
        weights[rng.integers(n)] += 1.0
        return ParticleCloud(gammas=gammas, weights=weights)

    @staticmethod
    def variance_bounds(cloud, taus, curves):
        """Per branch, the variances' rounding bound and the oracle's variances."""
        want = dense_branch_variances(cloud, taus, curves)
        gp, gm = cloud.gammas.T[:, :, None]
        n = cloud.weights.size
        bounds = []
        for branch, w in zip(BRANCHES, want):
            x = np.abs(one_branch(curves)(taus[None, :], (gp, gm), branch)).max()
            bounds.append(2 * (n + 4) * EPS * w + (2 * (n + 2) * EPS * x) ** 2)
        return bounds, want

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.sampled_from([1, 2, 1023, 1024, 1025, 2560]),
        subgrid=st.sampled_from([1, 2, 100]),
        protocol=st.sampled_from(CLASS_PROTOCOLS),
        spread=st.sampled_from([1e-3, 0.3, 2.0]),
    )
    def test_equals_dense_oracle(self, seed, n, subgrid, protocol, spread):
        cloud = self.random_cloud(seed, n, spread)
        curves = measurement_curves(protocol)
        grid = DelayGrid.default()
        taus = grid.taus[:: max(1, grid.taus.size // subgrid)]
        assert taus.size == subgrid
        got = _branch_variances(cloud, taus, curves)
        bounds, want = self.variance_bounds(cloud, taus, curves)
        for g, w, bound in zip(got, want, bounds, strict=True):
            assert g.shape == w.shape and np.all(np.abs(g - w) <= bound)
        pick = pf_select_delays(cloud, TIMING, curves, grid, subgrid)
        oracle = dense_pf_select_delays(cloud, TIMING, curves, grid, subgrid)
        if pick != oracle:
            scale = 1.0 / np.sqrt(TIMING.duration_seconds(taus[:, None], taus[None, :]))
            utility = (want[0][:, None] + want[1][None, :]) * scale
            slack = (bounds[0][:, None] + bounds[1][None, :]) * scale
            i, j = (np.flatnonzero(taus == t)[0] for t in (pick.tau_plus, pick.tau_minus))
            best = np.unravel_index(np.argmax(utility), utility.shape)
            assert utility[i, j] + slack[i, j] >= utility[best] - slack[best]

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.sampled_from([1, 2, 1025]),
        count=st.sampled_from([1, _DELAYS - 1, _DELAYS, _DELAYS + 1, 2 * _DELAYS + 1]),
        start=st.integers(0, DEFAULT_GRID.taus.size - 2 * _DELAYS - 1),
        protocol=st.sampled_from(CLASS_PROTOCOLS),
        spread=st.sampled_from([1e-3, 0.3, 2.0]),
    )
    def test_delay_block_edges_match_dense_oracle(self, seed, n, count, start, protocol, spread):
        # Delay counts on both sides of one and two blocks, taken as
        # consecutive grid delays: thinning the grid cannot reach them all.
        cloud = self.random_cloud(seed, n, spread)
        curves = measurement_curves(protocol)
        taus = DEFAULT_GRID.taus[start : start + count]
        got = _branch_variances(cloud, taus, curves)
        bounds, want = self.variance_bounds(cloud, taus, curves)
        for g, w, bound in zip(got, want, bounds, strict=True):
            assert g.shape == (count,) and np.all(np.abs(g - w) <= bound)

    def test_peak_memory_stays_blocked(self):
        # The selector holds one (half, 3, delay, particle) kernel workspace
        # of 3.8 MB and the cloud's six rate-term arrays of 0.96 MB on this
        # call, a peak near 4.8 MB; a whole (particle, delay) value array of
        # 16 MB would take the peak near 18 MB.
        rng = np.random.default_rng(5)
        gammas = np.column_stack([rng.uniform(0.5, 2.0, 20000), rng.uniform(2.0, 4.0, 20000)])
        cloud = ParticleCloud(gammas=gammas, weights=rng.uniform(0.1, 1.0, 20000))
        curves = measurement_curves(ROBUST_PROTOCOL)
        tracemalloc.start()
        try:
            pf_select_delays(cloud, TIMING, curves, subgrid=100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6


class TestThreadedVariances:
    """The caller and one worker thread each take half the delay blocks.

    Each block's arithmetic is the same on either thread, so a delay's
    variance must have the same bits whichever half computes it.
    """

    @staticmethod
    def cloud(n, seed=0):
        return TestBlockedParticleSelect.random_cloud(seed, n, 0.3)

    @staticmethod
    def recording(curves, seen, fail_at=None):
        """curves whose pair_value records its thread and raises at a delay."""

        def pair_value(tau_plus, tau_minus, rates, out):
            seen.append(threading.current_thread())
            if fail_at is not None and np.any(tau_plus == fail_at):
                raise FloatingPointError(f"no value at {fail_at}")
            return curves.pair_value(tau_plus, tau_minus, rates, out=out)

        return dataclasses.replace(curves, pair_value=pair_value)

    @pytest.mark.parametrize("n", [1, 2, 1025])
    @pytest.mark.parametrize(
        "count", [1, 2, *(k * _DELAYS + d for k in (1, 2, 4) for d in (-1, 1)), 100, 1000]
    )
    def test_threaded_equals_one_thread(self, count, n):
        # Block-aligned prefixes and suffixes move delays between the halves:
        # the suffix from the whole call's own cut puts the worker's first
        # block on the caller, and a one-block call runs on the caller alone.
        cloud = self.cloud(n, seed=count)
        taus = DEFAULT_GRID.taus[:count]
        starts = range(0, count, _DELAYS)
        cuts = {starts[1], starts[(len(starts) + 1) // 2], starts[-1]} if count > _DELAYS else ()
        for protocol in CLASS_PROTOCOLS:
            curves = measurement_curves(protocol)
            whole = _branch_variances(cloud, taus, curves)
            assert whole.shape == (2, count)
            for s in sorted(cuts):
                assert np.array_equal(whole[:, :s], _branch_variances(cloud, taus[:s], curves))
                assert np.array_equal(whole[:, s:], _branch_variances(cloud, taus[s:], curves))

    @pytest.mark.parametrize("count", [_DELAYS + 1, 2 * _DELAYS + 1, 4 * _DELAYS + 1])
    def test_lone_last_delay_keeps_its_bits(self, count):
        # Above 8,192 particles einsum sums a one-row block in another order
        # than each row of a larger block; a delay alone in the last block
        # must get the bits it gets next to another delay.
        cloud = self.cloud(20000)
        taus = DEFAULT_GRID.taus[::10][: count + 1]
        for protocol in CLASS_PROTOCOLS:
            curves = measurement_curves(protocol)
            alone = _branch_variances(cloud, taus[:count], curves)
            assert np.array_equal(alone, _branch_variances(cloud, taus, curves)[:, :count])

    def test_rate_terms_built_once_per_selection(self, monkeypatch):
        # Every block gets the cloud's terms; none rebuilds them from the rates.
        calls = []
        build = rates_module._rate_terms
        for module in (design, rates_module):
            monkeypatch.setattr(module, "_rate_terms", lambda *a: calls.append(a) or build(*a))
        pf_select_delays(self.cloud(1025), TIMING, measurement_curves(ROBUST_PROTOCOL))
        assert len(calls) == 1

    def test_one_worker_thread(self):
        cloud = self.cloud(1025)
        taus = DEFAULT_GRID.taus[::10]
        curves = measurement_curves(ROBUST_PROTOCOL)
        seen = []
        before = threading.active_count()
        got = _branch_variances(cloud, taus, self.recording(curves, seen))
        assert np.array_equal(got, _branch_variances(cloud, taus, curves))
        assert threading.active_count() == before
        assert len(seen) == -(-taus.size // _DELAYS)
        assert len(set(seen)) == 2 and threading.current_thread() in seen

    @pytest.mark.parametrize("half", ["first", "second"])
    def test_exception_in_either_half_reaches_the_caller(self, half):
        taus = DEFAULT_GRID.taus[::10]
        fail_at = taus[0] if half == "first" else taus[-1]
        seen = []
        curves = self.recording(measurement_curves(ROBUST_PROTOCOL), seen, fail_at)
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match="no value at"):
            pf_select_delays(self.cloud(1025), TIMING, curves, subgrid=100)
        assert threading.active_count() == before
        assert len(set(seen)) == 2
