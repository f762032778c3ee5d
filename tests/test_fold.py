"""The posterior fold kernel against the two-step chain it replaced.

A fold is `regrid(bayes_update(grid, pair, model))`.  The kernel forms its
chi^2 field in a run-owned workspace, normalizes with one `exp`, takes the
moments from the weight marginals and hands each new grid its weights; the
oracle chain (tests/oracles.py) validates a fresh PosteriorGrid after each
step and takes point-mass moments over the whole grid.  Both must pick the
same delays, and their moments must agree to rounding.
"""

import tracemalloc

import numpy as np
import pytest

from oracles import chain_bayes_update, chain_regrid, point_mass_moments
from spinrelax import experiments
from spinrelax.experiments import NAP_DEFAULT_DELAYS, ExperimentConfig, run_adaptive, run_nap
from spinrelax.posterior import (
    DEFAULT_BOUNDS,
    MeasurementPair,
    PosteriorGrid,
    UpdateRejected,
    _Workspace,
    bayes_update,
    initial_grid,
    moments,
    regrid,
)
from spinrelax.protocols import measurement_curves
from spinrelax.rates import RatePair, model_m
from spinrelax.signals import ROBUST_PROTOCOL

TRUTH = RatePair(1.0, 3.0)
MODEL = measurement_curves(ROBUST_PROTOCOL).pair_value
# Stated before the comparison was first run: the kernel and the chain differ
# only in the rounding of the normalization and of the moment sums.
RTOL = 1e-12
TINY = np.finfo(float).tiny  # subnormal weights differ by a few units of 5e-324


# A value far off the model curve at sigma 1e-150 overflows chi^2 to inf.
IMPOSSIBLE = MeasurementPair(1e200, 0.1, 1e-150, 0.05, 0.3, 0.5)


def truth_pair(tau_plus, tau_minus, sigma=0.02):
    return MeasurementPair(
        m_plus=float(model_m(tau_plus, TRUTH, "+")),
        m_minus=float(model_m(tau_minus, TRUTH, "-")),
        sigma_plus=sigma,
        sigma_minus=sigma,
        tau_plus=tau_plus,
        tau_minus=tau_minus,
    )


def fold(grid, pair, workspace, size=200):
    return regrid(bayes_update(grid, pair, MODEL, workspace=workspace), size, workspace=workspace)


def assert_moments_close(got, want):
    """Means and widths within RTOL; a covariance, if both carry one, within
    RTOL of the product of the widths."""
    for g, w in zip(got[:4], want[:4]):
        assert abs(g - w) <= RTOL * abs(w)
    if len(want) > 4:
        assert abs(got[4] - want[4]) <= RTOL * want[2] * want[3]


def record_moments(record):
    return (record.mean_plus, record.mean_minus, record.sigma_plus, record.sigma_minus)


class TestRunsAgainstTheChain:
    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize("optimizer, iterations", [("nob", 30), ("pf", 6), ("nap", 4)])
    def test_same_delays_and_moments(self, monkeypatch, optimizer, iterations, seed):
        config = ExperimentConfig(
            true_rates=TRUTH,
            optimizer=optimizer,
            iterations=iterations,
            seed=seed,
            nap_delays=NAP_DEFAULT_DELAYS if optimizer == "nap" else (),
        )
        runner = run_nap if optimizer == "nap" else run_adaptive
        got = runner(config)
        with monkeypatch.context() as patch:
            patch.setattr(experiments, "bayes_update", chain_bayes_update)
            patch.setattr(experiments, "regrid", chain_regrid)
            patch.setattr(experiments, "moments", point_mass_moments)
            want = runner(config)
        assert [r.delays for r in got.iterations] == [r.delays for r in want.iterations]
        assert [r.flagged for r in got.iterations] == [r.flagged for r in want.iterations]
        for g, w in zip(got.iterations, want.iterations):
            assert_moments_close(record_moments(g), record_moments(w))
        assert_moments_close(got.final, want.final)


def random_grid(rng):
    """Random axes within the prior bounds and a random prior with -inf regions."""
    shape = tuple(rng.integers(20, 90, 2))
    axes = [np.sort(rng.uniform(DEFAULT_BOUNDS[0], 20.0, n)) for n in shape]
    lw = rng.normal(scale=3.0, size=shape)
    lw[rng.random(shape) < rng.uniform(0.0, 0.6)] = -np.inf
    i, j = rng.integers(0, shape[0]), rng.integers(0, shape[1])
    lw[i:, j:] = -np.inf  # a whole corner excluded
    lw[0, 0] = 0.0
    return PosteriorGrid(*axes, lw)


class TestSingleFolds:
    def test_random_grids_match_the_chain(self):
        rng = np.random.default_rng(2021)
        workspace = _Workspace()  # one for every shape, as a run would reuse it
        checked = 0
        for _ in range(60):
            grid = random_grid(rng)
            taus = rng.uniform(0.01, 3.0, 2)
            pair = truth_pair(*taus, sigma=float(rng.choice([0.01, 0.1, 1.0])))
            size = int(rng.choice([2, 37, 200]))
            try:
                want_updated = chain_bayes_update(grid, pair, MODEL)
                want = chain_regrid(want_updated, size)
            except UpdateRejected:
                with pytest.raises(UpdateRejected):
                    fold(grid, pair, workspace, size)
                continue
            updated = bayes_update(grid, pair, MODEL, workspace=workspace)
            assert np.array_equal(updated.log_weights, want_updated.log_weights)
            np.testing.assert_allclose(updated.weights, want_updated.weights, rtol=RTOL, atol=TINY)
            assert_moments_close(moments(updated), point_mass_moments(want_updated))
            got = regrid(updated, size, workspace=workspace)
            np.testing.assert_allclose(got.gamma_plus_axis, want.gamma_plus_axis, rtol=RTOL)
            np.testing.assert_allclose(got.gamma_minus_axis, want.gamma_minus_axis, rtol=RTOL)
            assert np.abs(got.weights - want.weights).max() <= RTOL * want.weights.max()
            assert np.array_equal(np.isneginf(got.log_weights), np.isneginf(want.log_weights))
            assert_moments_close(moments(got), point_mass_moments(want))
            checked += 1
        assert checked >= 40, checked

    def test_all_inf_update_is_rejected(self):
        pair = IMPOSSIBLE
        grid = initial_grid(size=50)
        with pytest.raises(UpdateRejected, match="inconsistent"):
            chain_bayes_update(grid, pair, MODEL)
        workspace = _Workspace()
        with pytest.raises(UpdateRejected, match="inconsistent"):
            bayes_update(grid, pair, MODEL, workspace=workspace)
        # The workspace serves the next fold as if the rejected one never ran.
        good = truth_pair(0.3, 0.5)
        got = fold(grid, good, workspace, 50)
        want = chain_regrid(chain_bayes_update(grid, good, MODEL), 50)
        assert_moments_close(moments(got), point_mass_moments(want))

    def test_empty_regrid_is_rejected(self):
        # A point mass on a node of an axis with an exact 0.5 spacing: the two
        # new nodes land exactly on its zero-weight neighbours.
        axis = 1.0 + 0.5 * np.arange(9)
        lw = np.full((9, 9), -np.inf)
        lw[4, 4] = 0.0
        grid = PosteriorGrid(axis, axis.copy(), lw)
        with pytest.raises(UpdateRejected, match="empty posterior"):
            chain_regrid(grid, 2)
        with pytest.raises(UpdateRejected, match="empty posterior"):
            regrid(grid, 2, workspace=_Workspace())


def snapshot(grid):
    return grid.log_weights.tobytes(), grid.weights.tobytes()


def assert_read_only(grid):
    for array in (grid.log_weights, grid.weights):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0, 0] = 1.0


class TestWorkspaceEscape:
    def test_folded_grids_survive_later_folds(self):
        workspace = _Workspace()
        grid = fold(initial_grid(), truth_pair(0.3, 0.5), workspace)
        kept = snapshot(grid)
        later = grid
        for taus in ((0.2, 0.4), (0.5, 0.25), (0.35, 0.3)):
            later = fold(later, truth_pair(*taus), workspace)
        with pytest.raises(UpdateRejected):
            bayes_update(later, IMPOSSIBLE, MODEL, workspace=workspace)
        assert snapshot(grid) == kept
        assert_read_only(grid)
        assert_read_only(bayes_update(later, truth_pair(0.3, 0.5), MODEL, workspace=workspace))

    def test_run_posterior_survives_a_flagged_last_iteration(self, monkeypatch):
        # The last update runs in the workspace and is then rejected: the
        # record must keep the previous fold's grid, untouched.
        config = ExperimentConfig(true_rates=TRUTH, optimizer="nob", iterations=6, seed=3)
        returned = []

        def kept_regrid(grid, size, workspace=None):
            out = regrid(grid, size, workspace=workspace)
            returned.append((out, snapshot(out)))
            return out

        def rejecting_update(grid, pair, model, workspace=None):
            out = bayes_update(grid, pair, model, workspace=workspace)
            if len(returned) == config.iterations - 1:
                raise UpdateRejected("rejected after the workspace was written")
            return out

        monkeypatch.setattr(experiments, "regrid", kept_regrid)
        monkeypatch.setattr(experiments, "bayes_update", rejecting_update)
        record = run_adaptive(config)
        assert record.iterations[-1].flagged and record.flagged_count == 1
        assert record.posterior is returned[-1][0]
        for grid, kept in returned:
            assert snapshot(grid) == kept
            assert_read_only(grid)
        assert moments(record.posterior) == record.final


def test_fold_allocates_only_the_new_grid():
    # One 200 x 200 fold in a warmed workspace: the new grid's log weights
    # and weights (two 320 KB arrays) and at most 50 axis-length (200-entry,
    # 1.6 KB) stencil and marginal vectors; every 200 x 200 temporary of the
    # model kernel and the chi^2 field lives in the workspace.
    workspace = _Workspace()
    grid = fold(initial_grid(), truth_pair(0.3, 0.5), workspace)
    for pair in (truth_pair(0.2, 0.4), truth_pair(0.3, 0.3)):
        fold(grid, pair, workspace)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fold(grid, pair, workspace)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 320_000 + 50 * 1_600, f"fold peak {peak / 1e6:.3f} MB above baseline"
