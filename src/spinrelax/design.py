"""Delay selection: sensitivity cost, Gaussian posterior approximation,
grid-search optimizers.

One iteration measures the plus branch at tau_plus and the minus branch at
tau_minus (four raw signals each).  Propagating the two measurement
uncertainties sigma_M+- through the model Jacobian

    J = [[dM+/dG+ (tau+), dM+/dG- (tau+)],
         [dM-/dG+ (tau-), dM-/dG- (tau-)]]

gives a Gaussian rate covariance J^-1 diag(sigma_M^2) J^-T.  With
(a, b, c, d) the entries of J, each over its branch's sigma_M
(_branch_tables), and det = a d - b c, the widths are
sigma_G+ = sqrt(b^2 + d^2)/|det| and sigma_G- = sqrt(a^2 + c^2)/|det|, and
the covariance is -(a b + c d)/det^2.  The figure of merit for a delay pair
is the time-normalized combined fractional sensitivity

    cost = sqrt((sigma_G+/G+)^2 + (sigma_G-/G-)^2) * sqrt(T),

where T is the wall-clock duration of the iteration, that is

    cost = sqrt(T (G-^2 (b^2 + d^2) + G+^2 (a^2 + c^2))) / (G+ G- |a d - b c|),

so one kernel serves every sigma_M.  A sigma_M common to both branches only
rescales the cost, so the deterministic optimizer minimizes the cost at
unit sigma_M.  The cost separates into 1-D tables over a log delay grid
(a, b and the G-^2 b^2 + G+^2 a^2 term over tau_plus, the rest over
tau_minus), so that optimizer, used between iterations, takes an exact
bounded argmin.  A branch's tables depend only on its measurement
(_branch_tables), so a ranking builds them once per measurement.  Per
block of grid cells, the tables' minima and maxima bound a d and b c by
interval arithmetic; the bound on |a d - b c| follows, so does a lower
bound on the block's cost, and blocks bounded above a probed cell are
skipped.  The same two bounds prune twice: 24x24-cell blocks, then the
6x6-cell blocks inside the coarse ones that survive.  The cells of the
fine blocks left are evaluated, and np.argmin's cell is returned, ties
going to the smallest tau_plus, then tau_minus.  What the search needs of
the grid and the timing alone (the probe cells, the block starts and the
durations at them) is its search plan (_search_plan), built at a (grid,
timing) pair's first search and kept in a small cache keyed on the
DelayGrid object and the TimingModel's value; it holds only values the
search would otherwise compute again, so no output depends on it.  A
stochastic particle-cloud optimizer, the alternative, maximizes a
variance-proxy utility over the cloud: with the cloud's rate terms built
once, per block of candidate delays one two-branch kernel call over the
whole cloud gives both branches' values, and each branch's cloud variance
is reduced from them before the next block.  The blocks split into two
halves, cut at a block boundary, each computed into its own workspace and
its own slice of the variances by `_two_halves`, the one helper that also
runs the fixed sweep's paired posterior rebuilds (`experiments.run_nap`):
the caller runs the first half while a one-worker thread pool runs the
second (numpy releases the GIL inside the kernel's ufunc and einsum
loops).  Each block's arithmetic is the same on either thread, so the
variances do not depend on which thread computed them.  Every width, cost
and optimizer takes the protocol's BranchCurves
(`protocols.measurement_curves`); none assumes a protocol.

Delays are in ms, rates in 1/ms, durations in seconds.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .rates import BRANCHES, _rate_terms, _unpack

__all__ = [
    "UninformativeDesign",
    "DelayPair",
    "DelayGrid",
    "DEFAULT_GRID",
    "TimingModel",
    "GaussianApprox",
    "BranchCurves",
    "gaussian_sigma",
    "cost_surface",
    "approx_cost_surface",
    "nob_select_delays",
    "ParticleCloud",
    "pf_select_delays",
]


class UninformativeDesign(RuntimeError):
    """Raised when a delay pair cannot constrain both rates."""


def _is_int(value):
    """An int or numpy integer, but not a bool: True would pass as 1."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_positive_int(value, name):
    if not (_is_int(value) and value > 0):
        raise ValueError(f"{name} must be a positive integer")


@dataclass(frozen=True)
class DelayPair:
    tau_plus: float
    tau_minus: float

    def __post_init__(self):
        if not (0.0 < self.tau_plus < np.inf and 0.0 < self.tau_minus < np.inf):
            raise ValueError("delays must be positive and finite")


@dataclass(frozen=True, eq=False)
class DelayGrid:
    """Log-spaced candidate delays shared by both axes of the scan, as a read-only copy."""

    taus: np.ndarray

    def __post_init__(self):
        taus = np.array(self.taus, dtype=float)
        if taus.ndim != 1 or taus.size < 2:
            raise ValueError("delay grid needs at least two points")
        # Finite first: NaN passes both `<= 0` tests.
        if not np.all(np.isfinite(taus)):
            raise ValueError("delay grid must be finite")
        if np.any(taus <= 0.0) or np.any(np.diff(taus) <= 0.0):
            raise ValueError("delay grid must be positive and strictly increasing")
        taus.flags.writeable = False
        object.__setattr__(self, "taus", taus)

    @classmethod
    def default(cls, size=1000):
        """Experiment regime: 3 microseconds to 5.5 ms."""
        return cls.from_bounds(3e-3, 5.5, size)

    @classmethod
    def wide(cls, size=1000):
        """Wide regime: 1 microsecond to 1 second."""
        return cls.from_bounds(1e-3, 1e3, size)

    @classmethod
    def from_bounds(cls, lo, hi, size):
        _check_positive_int(size, "size")
        lo, hi = float(lo), float(hi)
        if not 0.0 < lo < hi < np.inf:
            raise ValueError("delay grid must be positive and strictly increasing")
        return cls(np.geomspace(lo, hi, size))


# The delay grid of every selector and ranking not given one.
DEFAULT_GRID = DelayGrid.default()


@dataclass(frozen=True)
class TimingModel:
    """Wall-clock duration of one iteration (eight signals, R shots each).

    The relaxation delays contribute 2 R tau per branch (two of the four
    signals wait tau, two wait 0); each of the 8 R shots additionally costs
    per_shot_time seconds of initialization and readout, and overhead_T0
    covers fixed per-iteration work.
    """

    repetitions_R: int
    overhead_T0: float = 0.0
    per_shot_time: float = 0.0

    def __post_init__(self):
        _check_positive_int(self.repetitions_R, "repetitions_R")
        if not (0.0 <= self.overhead_T0 < np.inf and 0.0 <= self.per_shot_time < np.inf):
            raise ValueError("times must be finite and nonnegative")

    def delay_seconds(self, tau_plus, tau_minus):
        """Seconds of one iteration spent in relaxation delays (ms)."""
        return 2.0 * self.repetitions_R * (np.asarray(tau_plus) + np.asarray(tau_minus)) * 1e-3

    def branch_seconds(self, tau):
        """Seconds of one branch's four signals at delay tau (ms), with half the fixed time."""
        half_fixed = 4.0 * self.repetitions_R * self.per_shot_time + self.overhead_T0 / 2.0
        return 2.0 * self.repetitions_R * tau * 1e-3 + half_fixed

    def duration_seconds(self, tau_plus, tau_minus):
        """Seconds for one iteration at the given delays (ms)."""
        fixed = 8.0 * self.repetitions_R * self.per_shot_time
        return self.delay_seconds(tau_plus, tau_minus) + fixed + self.overhead_T0

    def duty_cycle(self, tau_plus, tau_minus):
        """Fraction of the iteration spent relaxing at the chosen delays."""
        return self.delay_seconds(tau_plus, tau_minus) / self.duration_seconds(tau_plus, tau_minus)


@dataclass(frozen=True)
class GaussianApprox:
    sigma_gamma_plus: float
    sigma_gamma_minus: float
    covariance: float


@dataclass(frozen=True)
class BranchCurves:
    """A protocol's model curves: `gradient` takes (tau, rates, branch);
    `pair_value` takes (tau_plus, tau_minus, rates) and returns both
    branches' values as (plus, minus) arrays from one kernel call, fresh
    unless a private `out` workspace (rates._pair_values) is passed on;
    `rates` may be a rate pair's private rates._rate_terms."""

    gradient: callable
    pair_value: callable


def _branch_tables(taus, rates, gradient, sigma):
    """One branch's cost tables over `taus`, from its measurement's gradient there:
    (x, y, G-^2 y^2 + G+^2 x^2) with (x, y) = (dM/dG+, dM/dG-) / sigma_M.

    `sigma`, the branch's sigma_M, is a scalar, an array over taus or a
    callable of the delay array.  The tables do not depend on the slot.
    """
    values = np.asarray(sigma(taus) if callable(sigma) else sigma, dtype=float)
    values = np.broadcast_to(values, taus.shape)
    if not np.all(values > 0.0):
        raise ValueError("sigma_m entries must be positive")
    gp, gm = map(float, _unpack(rates))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x, y = (np.asarray(g) / values for g in gradient)
        return x, y, gm**2 * y**2 + gp**2 * x**2


def _curve_tables(taus, rates, sigma_m, curves):
    """Both branches' _branch_tables: the plus branch's over taus[0], then
    the minus branch's over taus[1].  sigma_m must hold one entry per branch."""
    return tuple(
        _branch_tables(tau, rates, curves.gradient(tau, rates, branch), sigma)
        for tau, branch, sigma in zip(taus, BRANCHES, sigma_m, strict=True)
    )


def gaussian_sigma(delays, rates, sigma_m, curves):
    """Gaussian rate uncertainties for one delay pair.

    sigma_m is the (sigma_M+, sigma_M-) pair of measurement uncertainties.
    The Jacobian's entries over sigma_M are the cost kernel's tables
    (_branch_tables) at the pair's two delays, and the widths and covariance
    divide by its determinant a d - b c, unsquared, as the cost does.
    Raises UninformativeDesign, without a warning, when that determinant
    or a result is not finite.
    """
    (a, b, _), (c, d, _) = _curve_tables(
        np.array([[delays.tau_plus], [delays.tau_minus]]), rates, sigma_m, curves
    )
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        det = a * d - b * c
        widths = np.hypot(b, d) / np.abs(det), np.hypot(a, c) / np.abs(det)
        covariance = -((a * b + c * d) / det) / det
    if not all(np.isfinite(x).all() for x in (det, *widths, covariance)):
        raise UninformativeDesign(
            f"delay pair ({delays.tau_plus}, {delays.tau_minus}) cannot "
            "constrain both rates (singular information matrix)"
        )
    return GaussianApprox(*(float(x[0]) for x in (*widths, covariance)))


def _cost_kernel(grid, rates, timing, plus_branch, minus_branch):
    """The cost's 1-D tables and its cell function over a delay grid.

    The two arguments are the branches' _branch_tables.  Returns
    ((a, b, c, d), (plus, minus), cells): (a, b, c, d) =
    (dM+/dG+, dM+/dG-, dM-/dG+, dM-/dG-) / sigma_M, the plus branch's
    gradients over the tau_plus axis and the minus branch's over the
    tau_minus axis; plus = G-^2 b^2 + G+^2 a^2, minus = G-^2 d^2 + G+^2 c^2;
    and cells(r, c, t), the cost at (tau_plus_r, tau_minus_c), infinite
    where the Jacobian is singular; t, the cells' durations, is computed
    when not given.
    """
    taus = grid.taus
    (a, b, plus), (c, d, minus) = plus_branch, minus_branch
    gp, gm = map(float, _unpack(rates))

    def cells(row, col, t=None):
        if t is None:
            t = timing.duration_seconds(taus[row], taus[col])
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            det = a[row] * d[col] - b[row] * c[col]
            value = np.sqrt(t * (plus[row] + minus[col])) / (gp * gm * np.abs(det))
        return np.where(det == 0.0, np.inf, value)

    return (a, b, c, d), (plus, minus), cells


def cost_surface(grid, rates, sigma_m, timing, curves):
    """Full cost over the delay grid; [i, j] = (tau_plus_i, tau_minus_j).

    sigma_m entries may be scalars or callables of the delay array, so
    shot-noise uncertainties that vary with tau are supported.  Cells whose
    information matrix is singular get infinite cost.
    """
    tables = _curve_tables((grid.taus, grid.taus), rates, sigma_m, curves)
    *_, cells = _cost_kernel(grid, rates, timing, *tables)
    index = np.arange(grid.taus.size)
    return cells(*np.ix_(index, index))


def approx_cost_surface(grid, rates, timing, curves):
    """Common-sigma_M cost over the grid with the sigma factored out.

    For equal measurement uncertainties the full cost is sigma_M times the
    cost at unit sigma_M, which this returns.
    """
    return cost_surface(grid, rates, (1.0, 1.0), timing, curves)


# _bounded_argmin's coarse and fine block edges (the last block of each is
# clipped; _FINE divides _BLOCK) and its probe stride.  Measured on the
# fig7 ranking and sweep (in process, one CPU): one level of 6, 8, 12, 16
# or 24-cell blocks took 2.9, 1.7, 1.3, 1.4 and 1.7 times as long as 24
# refined to 6; coarse blocks of 30 or 36, or fine ones of 4, were within
# noise of it, fine ones of 8 or 12 slower.
_BLOCK = 24
_FINE = 6
_PROBE = 24


class _SearchPlan(NamedTuple):
    """What _bounded_argmin needs of a grid and a timing alone, read-only.

    probe: the probe cells' delay indices on either axis; probe_t: the
    durations at every pair of them; fine: each _FINE-cell block's delays
    (_block_cells); coarse: each _BLOCK-cell block's fine blocks, likewise;
    coarse_t, fine_t: the durations at every pair of coarse and of fine
    block starts.
    """

    probe: np.ndarray
    probe_t: np.ndarray
    fine: np.ndarray
    coarse: np.ndarray
    coarse_t: np.ndarray
    fine_t: np.ndarray


def _block_cells(n, edge):
    """cells[offset, block]: the indices of each block of `edge` of n cells,
    the last block clipped by repeating the last cell, which leaves its
    extrema as they are."""
    return np.minimum(np.arange(0, n, edge) + np.arange(edge)[:, None], n - 1)


def _block_ends(table, cells):
    """ends[..., e, block]: the minimum (e = 0) and maximum (e = 1) of each
    block of `table` along its last axis, the blocks' cells[offset, block]
    (_block_cells).  One gather, then two reductions over the offsets: about
    a quarter of the time of np.minimum.reduceat and np.maximum.reduceat."""
    blocks = table.take(cells, axis=-1)
    return np.stack([np.minimum.reduce(blocks, axis=-2), np.maximum.reduce(blocks, axis=-2)], axis=-2)


@lru_cache(maxsize=4)
def _search_plan(grid, timing):
    """The _SearchPlan of a DelayGrid (keyed on the object) and a TimingModel
    (keyed on its value).  At 1,000 delays it holds 261 KB, most of it the
    167x167 fine durations: about (size / _FINE)^2 doubles in all.  Each
    duration is timing.duration_seconds at the same two delays, so a value
    read here is the one the search would compute."""
    taus = grid.taus
    fine = _block_cells(taus.size, _FINE)
    split = _BLOCK // _FINE

    def durations(index):
        return timing.duration_seconds(taus[index][:, None], taus[index])

    probe = np.arange(0, taus.size, _PROBE)
    plan = _SearchPlan(
        probe,
        durations(probe),
        fine,
        _block_cells(fine.shape[1], split),
        durations(fine[0, ::split]),
        durations(fine[0]),
    )
    for array in plan:
        array.flags.writeable = False
    return plan


def _det_bound(row_ends, col_ends):
    """Per block pair, the largest |a[r] d[c] - b[r] c[c]| a cell can compute.

    `row_ends` and `col_ends` hold the extrema of the tables a, b, c, d, in
    that order (further tables are ignored), of each pair's block on the
    tau_plus and on the tau_minus axis: _block_ends' layout, indexed by
    block along the last axis, so shaped [table, e, pairs...] with pair
    shapes that broadcast to the result's shape.

    Interval arithmetic (Moore 1966): over a block pair a d spans the
    products of a's and d's block minima and maxima, b c likewise, and
    |a d - b c| <= max(|ad_lo - bc_hi|, |ad_hi - bc_lo|).  Rounding to
    nearest is monotone, so these rounded products and differences bound
    the cells' rounded ones too, even where a d and b c cancel to the last
    ulp: no rounding term is needed.
    """

    def span(row, col):
        """Per block pair, the minimum and maximum of the table products row[r] col[c]."""
        (row_lo, row_hi), (col_lo, col_hi) = row_ends[row], col_ends[col]
        p = row_lo * col_lo, row_lo * col_hi, row_hi * col_lo, row_hi * col_hi
        # Pairwise, not a reduction over a stacked axis of 4: several times faster.
        return (
            np.minimum(np.minimum(p[0], p[1]), np.minimum(p[2], p[3])),
            np.maximum(np.maximum(p[0], p[1]), np.maximum(p[2], p[3])),
        )

    (ad_lo, ad_hi), (bc_lo, bc_hi) = span(0, 3), span(1, 2)
    return np.maximum(np.abs(ad_lo - bc_hi), np.abs(ad_hi - bc_lo))


def _bounded_argmin(grid, rates, timing, branches):
    """np.argmin's (i, j, value) of cost_surface, bit for bit, by branch and bound.

    `branches` holds both branches' _branch_tables over the grid at these
    rates, as _curve_tables builds them.  With _cost_kernel's tables, up
    to rounding,

        cells(r, c) = sqrt(t(r, c) (plus[r] + minus[c])) / (G+ G- |a[r] d[c] - b[r] c[c]|),

    with the duration t increasing in both delays.  So t at a block's first
    delays, the minima of plus and minus, and G+ G- times an interval bound
    on |a d - b c| (_det_bound) bound a block from below (Land and Doig
    1960).  The interval bound, unlike max|a| max|d| + max|b| max|c|, sees
    a d and b c cancel where the tables share a sign, as the robust
    protocol's do.  The search prunes in two levels with this one bound:
    first every pair of _BLOCK-cell blocks, then the pairs of _FINE-cell
    blocks inside the coarse pairs that survive, each against the best
    probe cell; the cells of the fine pairs that survive are evaluated in
    one cells call.  Nothing is pruned when a table is not finite,
    G+ G- <= 0, or no probe cell is finite.

    The six tables (a, b, c, d, plus, minus) are stacked once for one
    finiteness check and one pass of block minima and maxima over the fine
    blocks (_block_ends); the coarse blocks' extrema come from the fine
    ones, a coarse block being _BLOCK // _FINE whole fine blocks.  The
    probe cells, the blocks' cells and the durations at the probe and the
    block starts come from the (grid, timing) search plan (_search_plan),
    kept per DelayGrid object and TimingModel value.  Its values are the
    ones the search would compute itself, so the bounds, the blocks kept,
    the cells evaluated and every result do not depend on it.
    """
    n = grid.taus.size
    gp, gm = map(float, _unpack(rates))
    tables, sums, cells = _cost_kernel(grid, rates, timing, *branches)
    plan = _search_plan(grid, timing)
    table = np.stack((*tables, *sums))
    # ends[k, e, block] of the tables (a, b, c, d, plus, minus), per level.
    fine = _block_ends(table, plan.fine)
    blocks = fine.take(plan.coarse, axis=-1)
    coarse = np.stack(
        [np.minimum.reduce(blocks[:, 0], axis=-2), np.maximum.reduce(blocks[:, 1], axis=-2)], axis=1
    )
    upper = np.inf  # prunes nothing
    if gp * gm > 0.0 and np.isfinite(table).all():
        upper = cells(plan.probe[:, None], plan.probe, plan.probe_t).min()

    def survivors(ends, durations, rows, cols):
        """The mask, broadcast over the block pairs (rows, cols), of the ones
        inside the grid whose lower bound does not exceed `upper`; `ends`
        and `durations` are the level's block extrema and durations."""
        count = ends.shape[-1]
        inside = (rows < count) & (cols < count)
        row, col = np.minimum(rows, count - 1), np.minimum(cols, count - 1)
        # Every table's extrema at each pair's row block, then column block.
        row_ends, col_ends = ends[..., row], ends[..., col]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            det = _det_bound(row_ends, col_ends)
            low = row_ends[4, 0] + col_ends[5, 0]
            bound = np.sqrt(durations[row, col] * low) / (gp * gm * det)
        # The bound repeats the cells' rounded operations with t, plus and
        # minus no larger and |det| no smaller than at any cell of its block,
        # so it is below each of them (rounding is monotone); the slack is a
        # margin on top.  A NaN bound, or a NaN or infinite upper, keeps the block.
        return ~(bound * (1.0 - 1e-9) > upper) & inside

    count, split = coarse.shape[-1], _BLOCK // _FINE
    rows, cols = np.nonzero(
        survivors(coarse, plan.coarse_t, np.arange(count)[:, None], np.arange(count))
    )
    # Each surviving coarse pair's fine pairs as (row, 1, pair) against
    # (1, col, pair): the pair axis last keeps numpy's inner loops long.
    sub = np.arange(split)[:, None]
    keep = survivors(fine, plan.fine_t, (rows * split + sub)[:, None], cols * split + sub)
    sub_row, sub_col, pair = np.nonzero(keep)
    rows, cols = rows[pair] * split + sub_row, cols[pair] * split + sub_col
    # The surviving blocks' cells, laid out as their pairs are above.
    row, col = plan.fine.take(rows, axis=1)[:, None], plan.fine.take(cols, axis=1)
    values = cells(row, col)
    low = values.min()
    # A NaN minimum makes every NaN cell a hit, as in np.argmin; the first
    # hit in (tau_plus, tau_minus) order wins.
    hits = np.isnan(values) if np.isnan(low) else values == low
    # The hits' grid cells, from their (row offset, column offset, pair).
    at = np.nonzero(hits)
    flat = row[at[0], 0, at[2]] * n + col[at[1], at[2]]
    first = np.argmin(flat)
    i, j = divmod(int(flat[first]), n)
    return i, j, float(values[at][first])


def nob_select_delays(rates, timing, curves, grid=DEFAULT_GRID):
    """Deterministic optimizer: exact bounded argmin of approx_cost_surface.

    Returns np.argmin's cell of the full surface over `grid`, ties going to
    the smallest tau_plus, then tau_minus.  `rates` may be posterior moments
    (mean_plus/mean_minus), a RatePair, or a plain (gamma_plus, gamma_minus)
    tuple.
    """
    if hasattr(rates, "mean_plus"):
        rates = (rates.mean_plus, rates.mean_minus)
    tables = _curve_tables((grid.taus, grid.taus), rates, (1.0, 1.0), curves)
    i, j, _ = _bounded_argmin(grid, rates, timing, tables)
    return DelayPair(tau_plus=float(grid.taus[i]), tau_minus=float(grid.taus[j]))


@dataclass(frozen=True, eq=False)
class ParticleCloud:
    """Weighted (gamma_plus, gamma_minus) points standing in for the posterior."""

    gammas: np.ndarray  # shape (n, 2)
    weights: np.ndarray  # shape (n,), sums to 1

    def __post_init__(self):
        gammas = np.asarray(self.gammas, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if gammas.ndim != 2 or gammas.shape[1] != 2 or gammas.shape[0] == 0:
            raise ValueError("gammas must have shape (n, 2)")
        # RatePair's domain; NaN fails both comparisons.
        if not np.all((gammas > 0.0) & (gammas < np.inf)):
            raise ValueError("gammas must be positive and finite")
        if weights.shape != (gammas.shape[0],) or not np.all((weights >= 0.0) & (weights < np.inf)):
            raise ValueError("weights must be finite and nonnegative with shape (n,)")
        total = weights.sum()
        if not total > 0.0:
            raise ValueError("weights must not all vanish")
        object.__setattr__(self, "gammas", gammas)
        object.__setattr__(self, "weights", weights / total)

    @classmethod
    def from_grid(cls, grid, n, rng):
        """Draw n particles from a posterior grid with generator `rng`, jittered within cells."""
        _check_positive_int(n, "n")
        # rng.choice(w.size, n, p=w)'s indices from its CDF and uniforms,
        # searched in sorted order and scattered back to the draw order:
        # sorted, 20,000 searches into a 40,000-cell CDF stay in cache, and
        # a call takes 1.8 ms instead of 3.7 to 4.6 (one CPU).
        cdf = np.cumsum(grid.weights.ravel())
        cdf /= cdf[-1]
        uniforms = rng.random(n)
        order = np.argsort(uniforms)
        idx = np.empty(n, dtype=np.intp)
        idx[order] = cdf.searchsorted(uniforms[order], side="right")
        i, j = np.unravel_index(idx, grid.weights.shape)
        cell_p = float(np.mean(np.diff(grid.gamma_plus_axis)))
        cell_m = float(np.mean(np.diff(grid.gamma_minus_axis)))
        lo, hi = grid.hard_bounds
        gp = grid.gamma_plus_axis[i] + rng.uniform(-0.5, 0.5, i.size) * cell_p
        gm = grid.gamma_minus_axis[j] + rng.uniform(-0.5, 0.5, j.size) * cell_m
        gammas = np.clip(np.column_stack([gp, gm]), lo, hi)
        return cls(gammas=gammas, weights=np.full(n, 1.0 / n))

    def is_degenerate(self):
        return bool(np.all(np.ptp(self.gammas, axis=0) == 0.0))


# Delays per block of _branch_variances: one two-branch kernel call over the
# whole cloud in its half's three (delay, particle) scratch arrays, 1.92 MB
# at 4 delays and 20,000 particles, within a core's 2 MiB of L2 (3.84 MB at
# 8).  Both halves' workspaces are one array of the caller's; a worker
# allocating its own raised fig2-pf's peak RSS by 12 MB.  Over the 30
# selections of a seed-0 fig2-pf run, blocks of 2, 3, 4, 5 and 8 took 575,
# 531, 510, 502 and 525 ms on two threads, 696, 697, 688, 729 and 789 on one.
_DELAYS = 4


def _two_halves(first, second):
    """(first(), second()), the two computed side by side.

    The caller runs `first` while a one-worker pool runs `second`; an
    exception in either is raised here, after the worker has ended, so no
    thread outlives the call.  The two must write no object in common.
    """
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="spinrelax") as pool:
        pending = pool.submit(second)
        return first(), pending.result()


def _branch_variances(cloud, taus, curves):
    """Cloud variance of each branch's predicted value at taus, as a (2, delay) array.

    Per block of delays, one pair_value call on the cloud's rate terms
    (rates._rate_terms, built once) gives both branches' values over the
    whole cloud as (delay, particle) arrays; each branch's weighted mean,
    then its weighted squared deviations, are summed along the particle
    axis.  The blocks always split into two halves for `_two_halves`, each
    with its own workspace (3.8 MB for both at 20,000 particles); one block
    leaves the second half empty.  A lone last delay is computed as a block
    of two, so each delay's variance has the same bits wherever the block
    edges fall.
    """
    terms, w = _rate_terms(cloud.gammas.T), cloud.weights
    variances = np.empty((len(BRANCHES), taus.size))
    starts = range(0, taus.size, _DELAYS)
    work = np.empty((2, 3, max(2, min(_DELAYS, taus.size)), w.size))

    def run(part, space):
        for start in part:
            block = taus[start : start + _DELAYS, None]
            count = block.shape[0]
            # einsum sums a lone row in another order than each row of a
            # larger block, so a lone delay is computed as a block of two.
            block = np.repeat(block, 2, axis=0) if count == 1 else block
            pair = curves.pair_value(block, block, terms, out=space[:, : block.shape[0]])
            for values, variance in zip(pair, variances):
                # einsum without `optimize` makes no BLAS call, so the sums do
                # not depend on the BLAS build or its threads.
                values -= np.einsum("dp,p->d", values, w)[:, None]
                np.square(values, out=values)
                variance[start : start + count] = np.einsum("dp,p->d", values, w)[:count]

    cut = (len(starts) + 1) // 2
    _two_halves(lambda: run(starts[:cut], work[0]), lambda: run(starts[cut:], work[1]))
    return variances


def pf_select_delays(cloud, timing, curves, grid=DEFAULT_GRID, subgrid=100):
    """Stochastic optimizer: variance-proxy utility over a delay subgrid.

    The utility of a delay pair is the cloud variance of the predicted
    measurement value per branch (how much the candidate measurement is
    expected to discriminate between posterior hypotheses), scaled by
    1/sqrt(T).  The variances come in blocks of _DELAYS delays, each from
    one two-branch `curves.pair_value` call over the whole cloud, on rate
    terms built once per call, and an exact two-pass weighted mean and
    variance along the particle axis.
    The caller computes the first half of the blocks and one worker thread
    the second; both do the same arithmetic per block, so the choice is the
    same bit for bit whichever thread computed a block.
    `subgrid`, a positive integer, thins the scored delays to
    every (size // subgrid)-th delay of `grid`, or every delay when it
    exceeds the grid size.
    A degenerate cloud, or a utility nowhere positive, falls back to the
    deterministic optimizer at the cloud's mean rates, computed only then.
    """
    _check_positive_int(subgrid, "subgrid")
    if not cloud.is_degenerate():
        taus = grid.taus[:: max(1, grid.taus.size // subgrid)]
        var_plus, var_minus = _branch_variances(cloud, taus, curves)
        t = timing.duration_seconds(taus[:, None], taus[None, :])
        utility = (var_plus[:, None] + var_minus[None, :]) / np.sqrt(t)
        if np.any(utility > 0.0):
            i, j = np.unravel_index(np.argmax(utility), utility.shape)
            return DelayPair(tau_plus=float(taus[i]), tau_minus=float(taus[j]))
    mean_rates = tuple(np.average(cloud.gammas, axis=0, weights=cloud.weights))
    return nob_select_delays(mean_rates, timing, curves, grid)
