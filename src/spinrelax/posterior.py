"""Grid-based Bayesian posterior over the two relaxation rates.

The posterior lives on a rectangular grid: strictly increasing axes for
gamma_plus and gamma_minus (ms^-1) and a 2-D weight array, weights[i, j]
belonging to (gamma_plus_axis[i], gamma_minus_axis[j]).  Weights are kept in
log domain internally so hundreds of sequential updates cannot underflow;
one max-shifted log-sum-exp normalizes every grid the constructor or
`bayes_update` builds, its one `exp` giving the read-only `weights` that
sum to 1.  The constructor keeps read-only copies of the caller's axes and
log weights, so a grid, the prior above all, may be read by two threads at
once and changed by neither.  A run starts from `initial_grid`: flat in
rate over the prior bounds, which are also the hard support every later
grid stays within.

Measurement likelihood: each iteration yields a measurement value and
uncertainty per branch, compared against the branch model curves (both
from one BranchCurves.pair_value call) through

    log L = -chi_plus^2 - chi_minus^2,   chi = (m - model) / (sqrt(2) sigma).

A fold, `regrid(bayes_update(grid, pair, model))`, is one kernel in two
halves.  `bayes_update` has the one `pair_value` call compute both branch
models in five workspace arrays, which also hold every temporary of the
model kernel; it forms chi^2 in place in the two value arrays, scaling each
residual by the reciprocal of sqrt(2) sigma, subtracts it from the prior
log weights, and normalizes them with one `exp` and one multiply by the
reciprocal of their sum, which also gives the updated grid its weights.
`regrid` takes the moments from the weight marginals, re-centers a fresh
evenly spaced grid on the mean, spanning 10 standard deviations per axis
(clamped to the hard prior support), interpolates the old linear weights
onto it by separable bilinear interpolation (along gamma_plus, then
gamma_minus; zero outside the old support), normalizes them by one
multiply and takes one `log`.  A run passes both halves its `_Workspace`,
so the model kernel, the chi^2 field, the updated grid and the
interpolation scratch reuse the same arrays from fold to fold; the only
grid-sized arrays a fold allocates are the regridded grid's weights and
log weights, which it owns because it leaves the fold.  Moments treat
cell weights as point masses at the grid nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    # Normalized linear weights, read-only; sums to 1 within float accumulation.
    weights: np.ndarray = field(init=False)

    def __post_init__(self):
        gp = np.array(self.gamma_plus_axis, dtype=float)
        gm = np.array(self.gamma_minus_axis, dtype=float)
        lw = np.array(self.log_weights, dtype=float)
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
        peak = lw.max()
        if not np.isfinite(peak):
            raise ValueError("log_weights need a finite maximum")
        w = np.empty_like(lw)
        _normalize(lw, peak, w)
        gp.flags.writeable = gm.flags.writeable = lw.flags.writeable = w.flags.writeable = False
        # Frozen: the checked copies replace the caller's through the instance dict.
        vars(self).update(gamma_plus_axis=gp, gamma_minus_axis=gm, log_weights=lw, weights=w)

    @classmethod
    def _normalized(cls, gamma_plus_axis, gamma_minus_axis, log_weights, weights, hard_bounds):
        """A fold's grid, unchecked: normalized log weights and their linear
        weights, both made read-only."""
        log_weights.flags.writeable = weights.flags.writeable = False
        grid = object.__new__(cls)
        grid.__dict__.update(
            gamma_plus_axis=gamma_plus_axis,
            gamma_minus_axis=gamma_minus_axis,
            log_weights=log_weights,
            hard_bounds=hard_bounds,
            weights=weights,
        )
        return grid

    @property
    def shape(self):
        return self.log_weights.shape

    def meshes(self):
        """Node coordinates broadcast to the weight shape."""
        return (
            self.gamma_plus_axis[:, None],
            self.gamma_minus_axis[None, :],
        )


def _normalize(lw, peak, w):
    """Normalize log weights `lw` in place, given their finite maximum `peak`;
    write their linear weights into `w` and return log(sum(exp(lw))).

    Max-shifted log-sum-exp (Blanchard, Higham & Higham, IMA J. Numer. Anal.
    41(4), 2021): one `exp` of lw - peak in `w`, whose sum gives the
    normalizer, and one multiply by the reciprocal of that sum.
    """
    np.subtract(lw, peak, out=w)
    np.exp(w, out=w)
    total = w.sum()
    w *= 1.0 / total
    log_total = peak + np.log(total)
    lw -= log_total
    return log_total


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


class _Workspace:
    """Scratch arrays of one run's folds, by name and shape, reused fold after fold.

    Arrays are allocated at first use, or all at once, on the thread that
    builds the workspace, when it is given the run's grid `size`.
    """

    def __init__(self, size=None):
        self._arrays = {}
        if size is not None:
            # bayes_update's model and chi^2 arrays, then _bilinear's two passes.
            shapes = {"values": (5, size, size), "rows": (size, size), "term": (size, size)}
            for name, shape in shapes.items():
                self.array(name, shape)

    def array(self, name, shape):
        key = (name, shape)
        if key not in self._arrays:
            self._arrays[key] = np.empty(shape)
        return self._arrays[key]


def _chi_squared_field(pair, gamma_plus, gamma_minus, model, out):
    """Sum of squared residuals chi+^2 + chi-^2 over broadcast rate arrays.

    `model` is BranchCurves.pair_value, computing both branches in `out`, a
    stack of five scratch arrays; chi^2 is formed in place in the two value
    arrays, each residual scaled by the reciprocal of sqrt(2) sigma, and
    the sum lands in out[0].
    """
    chi = model(pair.tau_plus, pair.tau_minus, (gamma_plus, gamma_minus), out=out)
    with np.errstate(over="ignore"):
        for c, m, s in zip(chi, (pair.m_plus, pair.m_minus), (pair.sigma_plus, pair.sigma_minus)):
            np.subtract(m, c, out=c)
            np.multiply(c, 1.0 / (np.sqrt(2.0) * s), out=c)
            np.square(c, out=c)
        return np.add(*chi, out=chi[0])


def bayes_update(grid, pair, model, *, workspace=None):
    """Posterior after folding in one measurement pair: the fold's first half.

    Multiplies the prior weights by the likelihood (addition in log domain)
    and normalizes with the constructor's `_normalize`, whose one `exp`
    also gives the new grid its linear weights.  If every node's posterior
    log-weight is -inf the measurement contradicts the whole support and
    the update is rejected.  `model` is the protocol's two-branch callable
    (BranchCurves.pair_value).  With a run's `workspace` the new grid holds
    read-only views of workspace arrays, valid until the run's next fold,
    which is why the runners pass it straight to `regrid`; without one its
    arrays are fresh.
    """
    ws = _Workspace() if workspace is None else workspace
    values = ws.array("values", (5,) + grid.shape)
    lw = _chi_squared_field(pair, *grid.meshes(), model, values)
    np.subtract(grid.log_weights, lw, out=lw)
    peak = lw.max()
    if not np.isfinite(peak):
        raise UpdateRejected(
            "measurement is inconsistent with every point of the posterior support"
        )
    # The weights go to a scratch array of the model's; its plus value array holds lw.
    _normalize(lw, peak, values[2])
    # Views: the grid's are read-only, the workspace's stay writable.
    return PosteriorGrid._normalized(
        grid.gamma_plus_axis, grid.gamma_minus_axis, lw.view(), values[2].view(), grid.hard_bounds
    )


def moments(grid):
    """Point-mass means, standard deviations, and covariance of the grid.

    Taken from the marginals: each axis's mean and variance from its weight
    sums, the covariance from the centred axes around the weights.  einsum
    without `optimize` makes no BLAS call, so the sums do not depend on the
    BLAS build or its threads; the covariance contracts the weights with
    one centred axis, then the result with the other.
    """
    w = grid.weights
    gp, gm = grid.gamma_plus_axis, grid.gamma_minus_axis
    p, q = w.sum(axis=1), w.sum(axis=0)
    mean_p = float(np.einsum("i,i->", p, gp))
    mean_m = float(np.einsum("j,j->", q, gm))
    dp, dm = gp - mean_p, gm - mean_m
    var_p = float(np.einsum("i,i,i->", p, dp, dp))
    var_m = float(np.einsum("j,j,j->", q, dm, dm))
    cov = float(np.einsum("i,i->", dp, np.einsum("ij,j->i", w, dm)))
    return PosteriorMoments(mean_p, mean_m, np.sqrt(var_p), np.sqrt(var_m), cov)


def _axis_window(mean, sigma, axis, bounds):
    """New axis span: mean +- 10 sigma, clamped, floored at 2 old cells."""
    lo_bound, hi_bound = bounds
    cell = float(axis[-1] - axis[0]) / (axis.size - 1)
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


def _bilinear(gp, gm, values, new_gp, new_gm, workspace=None):
    """values on the gp x gm grid, bilinearly interpolated at new_gp x new_gm.

    Separable: the old rows are interpolated at new_gp, then their columns at
    new_gm.  Points outside the old support get 0.  The result is a fresh
    C-ordered array; the row pass and each pass's second term are scratch
    arrays of `workspace` (fresh without one).
    """
    ws = _Workspace() if workspace is None else workspace
    i0, y0 = _axis_stencil(gp, new_gp)
    i1, y1 = _axis_stencil(gm, new_gm)
    y0 = y0[:, None]
    # mode="clip" lets `take` write into `out` unbuffered; the stencils are in range.
    rows = np.take(values, i0, axis=0, out=ws.array("rows", (new_gp.size, gm.size)), mode="clip")
    rows *= 1 - y0
    term = np.take(values, i0 + 1, axis=0, out=ws.array("term", rows.shape), mode="clip")
    term *= y0
    rows += term
    out = rows.take(i1, axis=1, mode="clip")
    out *= 1 - y1
    term = np.take(rows, i1 + 1, axis=1, out=ws.array("term", out.shape), mode="clip")
    term *= y1
    out += term
    out[(new_gp < gp[0]) | (new_gp > gp[-1])] = 0.0
    out[:, (new_gm < gm[0]) | (new_gm > gm[-1])] = 0.0
    return out


def regrid(grid, size=GRID_SIZE, *, workspace=None):
    """Evenly spaced grid re-centered on the current mean, spanning 10 sigma:
    the fold's second half.

    Weights are separably bilinearly interpolated from the old grid, zero
    outside its support, then normalized once; the one `log` gives the new
    log weights.  `size` is an integer of at least 2.  A run's `workspace`
    holds the interpolation scratch; the new grid's arrays are always fresh.
    """
    _check_positive_int(size, "size")
    if size < 2:
        raise ValueError("size must be at least 2, as each axis needs two points")
    mom = moments(grid)
    new_gp, new_gm = (
        np.linspace(*_axis_window(mean, sigma, axis, grid.hard_bounds), size)
        for mean, sigma, axis in (
            (mom.mean_plus, mom.sigma_plus, grid.gamma_plus_axis),
            (mom.mean_minus, mom.sigma_minus, grid.gamma_minus_axis),
        )
    )
    w = _bilinear(
        grid.gamma_plus_axis, grid.gamma_minus_axis, grid.weights, new_gp, new_gm, workspace
    )
    total = w.sum()
    if not total > 0.0:
        raise UpdateRejected("regrid produced an empty posterior")
    w *= 1.0 / total
    with np.errstate(divide="ignore"):
        lw = np.log(w)
    return PosteriorGrid._normalized(new_gp, new_gm, lw, w, grid.hard_bounds)
