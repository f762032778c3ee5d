"""Grid-based Bayesian posterior over the two relaxation rates.

The posterior lives on a rectangular grid: strictly increasing axes for
gamma_plus and gamma_minus (ms^-1) and a 2-D weight array, weights[i, j]
belonging to (gamma_plus_axis[i], gamma_minus_axis[j]).  Weights are kept in
log domain internally so hundreds of sequential updates cannot underflow,
normalized by a max-shifted log-sum-exp; the public `weights` array is
computed once per grid, read-only, and sums to 1.  A run starts from
`initial_grid`: flat in rate over the prior bounds, which are also the hard
support every later grid stays within.

Measurement likelihood: each iteration yields a measurement value and
uncertainty per branch, compared against the branch model curves (both
from one BranchCurves.pair_value call) through

    log L = -chi_plus^2 - chi_minus^2,   chi = (m - model) / (sqrt(2) sigma).

Moments treat cell weights as point masses at the grid nodes.  `regrid`
re-centers a fresh evenly spaced grid on the current mean, spanning 10
standard deviations per axis (clamped to the hard prior support), and
interpolates the old weights onto it by separable bilinear interpolation
(along gamma_plus, then gamma_minus), zero outside the old support.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .design import _check_positive_int

__all__ = [
    "DEFAULT_BOUNDS",
    "GRID_SIZE",
    "UpdateRejected",
    "MeasurementPair",
    "PosteriorMoments",
    "PosteriorGrid",
    "initial_grid",
    "bayes_update",
    "moments",
    "regrid",
]

DEFAULT_BOUNDS = (0.055, 100.0)
GRID_SIZE = 200


class UpdateRejected(RuntimeError):
    """Raised when a measurement is grossly inconsistent with the support."""


@dataclass(frozen=True)
class MeasurementPair:
    """One iteration's estimates for both branches, with their delays."""

    m_plus: float
    m_minus: float
    sigma_plus: float
    sigma_minus: float
    tau_plus: float
    tau_minus: float

    def __post_init__(self):
        if not (self.sigma_plus > 0.0 and self.sigma_minus > 0.0):
            raise ValueError("sigmas must be positive")
        if not (self.tau_plus > 0.0 and self.tau_minus > 0.0):
            raise ValueError("delays must be positive")

    def swapped(self):
        return MeasurementPair(
            m_plus=self.m_minus,
            m_minus=self.m_plus,
            sigma_plus=self.sigma_minus,
            sigma_minus=self.sigma_plus,
            tau_plus=self.tau_minus,
            tau_minus=self.tau_plus,
        )


class PosteriorMoments(NamedTuple):
    mean_plus: float
    mean_minus: float
    sigma_plus: float
    sigma_minus: float
    covariance: float


@dataclass(frozen=True, eq=False)
class PosteriorGrid:
    gamma_plus_axis: np.ndarray
    gamma_minus_axis: np.ndarray
    log_weights: np.ndarray
    hard_bounds: tuple = DEFAULT_BOUNDS

    def __post_init__(self):
        gp = np.asarray(self.gamma_plus_axis, dtype=float)
        gm = np.asarray(self.gamma_minus_axis, dtype=float)
        lw = np.asarray(self.log_weights, dtype=float)
        lo, hi = self.hard_bounds
        for axis in (gp, gm):
            if axis.ndim != 1 or axis.size < 2:
                raise ValueError("each axis needs at least two points")
            # Finite first: a NaN difference (an infinite end) passes a `<= 0` test.
            if not (np.all(np.isfinite(axis)) and np.all(np.diff(axis) > 0.0)):
                raise ValueError("axes must be finite and strictly increasing")
            if axis[0] < lo - 1e-12 or axis[-1] > hi + 1e-12:
                raise ValueError("axis values must lie within hard_bounds")
        if lw.shape != (gp.size, gm.size):
            raise ValueError("log_weights shape must be (len(plus), len(minus))")
        if np.any(np.isnan(lw)):
            raise ValueError("log_weights must not contain NaN")
        if not np.isfinite(lw.max()):
            raise ValueError("log_weights need a finite maximum")
        lw = lw - _log_normalizer(lw)
        lw.flags.writeable = False
        object.__setattr__(self, "gamma_plus_axis", gp)
        object.__setattr__(self, "gamma_minus_axis", gm)
        object.__setattr__(self, "log_weights", lw)

    @cached_property
    def weights(self):
        """Normalized linear weights, read-only; sums to 1 within float accumulation."""
        w = np.exp(self.log_weights)
        w /= w.sum()
        w.flags.writeable = False
        return w

    @property
    def shape(self):
        return self.log_weights.shape

    def meshes(self):
        """Node coordinates broadcast to the weight shape."""
        return (
            self.gamma_plus_axis[:, None],
            self.gamma_minus_axis[None, :],
        )


def _log_normalizer(a):
    """log(sum(exp(a))) of an array with a finite maximum, leaving `a` unchanged.

    Max-shifted log-sum-exp (Blanchard, Higham & Higham, IMA J. Numer. Anal.
    41(4), 2021), with the exp in place on the one shifted copy.
    """
    peak = a.max()
    shifted = a - peak
    np.exp(shifted, out=shifted)
    return peak + np.log(shifted.sum())


def initial_grid(bounds=DEFAULT_BOUNDS, size=GRID_SIZE):
    """Fresh evenly spaced `size` x `size` grid over `bounds`, flat in rate.

    `bounds` (0 < lo < hi < inf) are also the hard prior support of every later regrid.
    """
    lo, hi = bounds
    if not (0.0 < lo < hi < np.inf):
        raise ValueError("bounds must satisfy 0 < lo < hi < inf")
    _check_positive_int(size, "size")
    axis = np.linspace(lo, hi, size)
    return PosteriorGrid(
        gamma_plus_axis=axis,
        gamma_minus_axis=axis.copy(),
        log_weights=np.zeros((axis.size, axis.size)),
        hard_bounds=tuple(bounds),
    )


def _chi_squared_field(pair, gamma_plus, gamma_minus, model):
    """Sum of squared residuals chi+^2 + chi-^2 over broadcast rate arrays.

    `model` is BranchCurves.pair_value; chi^2 is formed in place in its arrays.
    """
    chi = model(pair.tau_plus, pair.tau_minus, (gamma_plus, gamma_minus))
    with np.errstate(over="ignore"):
        for c, m, s in zip(chi, (pair.m_plus, pair.m_minus), (pair.sigma_plus, pair.sigma_minus)):
            np.subtract(m, c, out=c)
            np.divide(c, np.sqrt(2.0) * s, out=c)
            np.square(c, out=c)
        return np.add(*chi, out=chi[0])


def bayes_update(grid, pair, model):
    """Posterior after folding in one measurement pair.

    Multiplies the prior weights by the likelihood (addition in log domain)
    and renormalizes.  If every node's posterior log-weight is -inf the
    measurement contradicts the whole support and the update is rejected.
    `model` is the protocol's two-branch callable (BranchCurves.pair_value).
    """
    lw = _chi_squared_field(pair, *grid.meshes(), model)
    np.subtract(grid.log_weights, lw, out=lw)
    if not np.isfinite(np.max(lw)):
        raise UpdateRejected(
            "measurement is inconsistent with every point of the posterior support"
        )
    return PosteriorGrid(
        gamma_plus_axis=grid.gamma_plus_axis,
        gamma_minus_axis=grid.gamma_minus_axis,
        log_weights=lw,
        hard_bounds=grid.hard_bounds,
    )


def moments(grid):
    """Point-mass means, standard deviations, and covariance of the grid."""
    w = grid.weights
    gp, gm = grid.meshes()
    mean_p = float(np.sum(w * gp))
    mean_m = float(np.sum(w * gm))
    var_p = max(float(np.sum(w * (gp - mean_p) ** 2)), 0.0)
    var_m = max(float(np.sum(w * (gm - mean_m) ** 2)), 0.0)
    cov = float(np.sum(w * (gp - mean_p) * (gm - mean_m)))
    return PosteriorMoments(mean_p, mean_m, np.sqrt(var_p), np.sqrt(var_m), cov)


def _axis_window(mean, sigma, axis, bounds):
    """New axis span: mean +- 10 sigma, clamped, floored at 2 old cells."""
    lo_bound, hi_bound = bounds
    cell = float(np.mean(np.diff(axis)))
    lo = max(mean - 10.0 * sigma, lo_bound)
    hi = min(mean + 10.0 * sigma, hi_bound)
    min_span = 2.0 * cell
    if hi - lo < min_span:
        lo = mean - cell
        hi = mean + cell
        if lo < lo_bound:
            hi += lo_bound - lo
            lo = lo_bound
        if hi > hi_bound:
            lo -= hi - hi_bound
            hi = hi_bound
        lo = max(lo, lo_bound)
    return lo, hi


def _axis_stencil(old, new):
    """Lower node index and fraction of each new point on the old axis.

    The index is that of the old cell holding the point, clipped to the
    first and last cells, so a point on the last node gets fraction 1.
    """
    i = np.clip(np.searchsorted(old, new, side="right") - 1, 0, old.size - 2)
    return i, (new - old[i]) / (old[i + 1] - old[i])


def _bilinear(gp, gm, values, new_gp, new_gm):
    """values on the gp x gm grid, bilinearly interpolated at new_gp x new_gm.

    Separable: the old rows are interpolated at new_gp, then their columns at
    new_gm.  Points outside the old support get 0.  The result is C-ordered.
    """
    i0, y0 = _axis_stencil(gp, new_gp)
    i1, y1 = _axis_stencil(gm, new_gm)
    y0 = y0[:, None]
    rows = values[i0] * (1 - y0) + values[i0 + 1] * y0
    out = rows.take(i1, axis=1) * (1 - y1) + rows.take(i1 + 1, axis=1) * y1
    out[(new_gp < gp[0]) | (new_gp > gp[-1])] = 0.0
    out[:, (new_gm < gm[0]) | (new_gm > gm[-1])] = 0.0
    return out


def regrid(grid, size=GRID_SIZE):
    """Evenly spaced grid re-centered on the current mean, spanning 10 sigma.

    Weights are separably bilinearly interpolated from the old grid, zero
    outside its support, then renormalized.  `size` is a positive integer.
    """
    _check_positive_int(size, "size")
    mom = moments(grid)
    new_gp, new_gm = (
        np.linspace(*_axis_window(mean, sigma, axis, grid.hard_bounds), size)
        for mean, sigma, axis in (
            (mom.mean_plus, mom.sigma_plus, grid.gamma_plus_axis),
            (mom.mean_minus, mom.sigma_minus, grid.gamma_minus_axis),
        )
    )
    w = _bilinear(grid.gamma_plus_axis, grid.gamma_minus_axis, grid.weights, new_gp, new_gm)
    total = w.sum()
    if not total > 0.0:
        raise UpdateRejected("regrid produced an empty posterior")
    with np.errstate(divide="ignore"):
        lw = np.log(w / total)
    return PosteriorGrid(
        gamma_plus_axis=new_gp,
        gamma_minus_axis=new_gm,
        log_weights=lw,
        hard_bounds=grid.hard_bounds,
    )

