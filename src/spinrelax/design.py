"""Delay selection: sensitivity cost, Gaussian posterior approximation,
grid-search optimizers.

One iteration measures the plus branch at tau_plus and the minus branch at
tau_minus (four raw signals each).  Propagating the two measurement
uncertainties sigma_M+- through the model Jacobian

    J = [[dM+/dG+ (tau+), dM+/dG- (tau+)],
         [dM-/dG+ (tau-), dM-/dG- (tau-)]]

gives a Gaussian rate covariance, summarized by curvature coefficients

    a_plus  = (dM+/dG+)^2/s+^2 + (dM-/dG+)^2/s-^2
    a_minus = (dM+/dG-)^2/s+^2 + (dM-/dG-)^2/s-^2
    a_zero  = (dM+/dG+)(dM+/dG-)/s+^2 + (dM-/dG+)(dM-/dG-)/s-^2

with sigma_G+-^2 = a_-+/(a_+ a_- - a_0^2) and covariance -a_0/det.  The
figure of merit for a delay pair is the time-normalized combined fractional
sensitivity

    cost = sqrt((sigma_G+/G+)^2 + (sigma_G-/G-)^2) * sqrt(T),

where T is the wall-clock duration of the iteration.  With (a, b, c, d)
the entries of J, each over its branch's sigma_M, this is

    cost = sqrt(T (G-^2 (b^2 + d^2) + G+^2 (a^2 + c^2))) / (G+ G- |a d - b c|),

so one kernel serves every sigma_M.  A sigma_M common to both branches only
rescales the cost, so the deterministic optimizer minimizes the cost at
unit sigma_M.  The cost separates into 1-D tables over a log delay grid
(a, b and the G-^2 b^2 + G+^2 a^2 term over tau_plus, the rest over
tau_minus), so that optimizer, used between iterations, takes an exact
bounded argmin.  Per block of grid cells, the tables' minima and maxima
bound a d and b c by interval arithmetic; the bound on |a d - b c| follows,
so does a lower bound on the block's cost, and blocks bounded above a
probed cell are skipped.  The rest are evaluated, and np.argmin's cell is
returned, ties going to the smallest tau_plus, then tau_minus.  A
stochastic particle-cloud optimizer, the alternative, maximizes a
variance-proxy utility over the cloud.  Every width, cost and optimizer
takes the protocol's BranchCurves (`protocols.measurement_curves`); none
assumes a protocol.

Delays are in ms, rates in 1/ms, durations in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rates import BRANCHES, _unpack

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


def _check_positive_int(value, name):
    # bool is an int; True would pass as 1.
    if isinstance(value, bool) or not (isinstance(value, (int, np.integer)) and value > 0):
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
    a_plus: float
    a_minus: float
    a_zero: float
    sigma_gamma_plus: float
    sigma_gamma_minus: float
    covariance: float


@dataclass(frozen=True)
class BranchCurves:
    """A protocol's model curves: `value` and `gradient` take (tau, rates,
    branch); `pair_value` takes (tau_plus, tau_minus, rates) and returns both
    branches' values as fresh (plus, minus) arrays from one kernel call."""

    value: callable
    gradient: callable
    pair_value: callable


def _jacobian(delays, rates, curves):
    """Rows: branch measured at its delay; columns: d/dG+, d/dG-."""
    g_pp, g_pm = curves.gradient(delays.tau_plus, rates, "+")
    g_mp, g_mm = curves.gradient(delays.tau_minus, rates, "-")
    return np.array([[g_pp, g_pm], [g_mp, g_mm]], dtype=float)


def gaussian_sigma(delays, rates, sigma_m, curves):
    """Gaussian rate uncertainties for one delay pair.

    sigma_m is the (sigma_M+, sigma_M-) pair of measurement uncertainties.
    Raises UninformativeDesign when the information matrix is singular.
    """
    s_plus, s_minus = sigma_m
    if not (s_plus > 0.0 and s_minus > 0.0):
        raise ValueError("sigma_m entries must be positive")
    jac = _jacobian(delays, rates, curves)
    a_plus = (jac[0, 0] / s_plus) ** 2 + (jac[1, 0] / s_minus) ** 2
    a_minus = (jac[0, 1] / s_plus) ** 2 + (jac[1, 1] / s_minus) ** 2
    a_zero = jac[0, 0] * jac[0, 1] / s_plus**2 + jac[1, 0] * jac[1, 1] / s_minus**2
    # a_plus a_minus - a_zero^2 exactly, but computed in factored form:
    # the direct difference cancels catastrophically near singular designs.
    det_j = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
    det = (det_j / (s_plus * s_minus)) ** 2
    if not (np.isfinite(det) and det > 0.0):
        raise UninformativeDesign(
            f"delay pair ({delays.tau_plus}, {delays.tau_minus}) cannot "
            "constrain both rates (singular information matrix)"
        )
    return GaussianApprox(
        a_plus=float(a_plus),
        a_minus=float(a_minus),
        a_zero=float(a_zero),
        sigma_gamma_plus=float(np.sqrt(a_minus / det)),
        sigma_gamma_minus=float(np.sqrt(a_plus / det)),
        covariance=float(-a_zero / det),
    )


def _gradient_tables(taus, rates, curves):
    """Per-branch gradients over a 1-D delay array."""
    g_pp, g_pm = curves.gradient(taus, rates, "+")
    g_mp, g_mm = curves.gradient(taus, rates, "-")
    return (np.asarray(g_pp), np.asarray(g_pm)), (np.asarray(g_mp), np.asarray(g_mm))


def _sigma_arrays(sigma_m, taus):
    out = []
    for entry in sigma_m:
        values = np.asarray(entry(taus) if callable(entry) else entry, dtype=float)
        values = np.broadcast_to(values, taus.shape)
        if np.any(values <= 0.0):
            raise ValueError("sigma_m entries must be positive")
        out.append(values)
    return out


def _cost_kernel(grid, rates, sigma_m, timing, curves):
    """The cost's 1-D tables and its cell function over a delay grid.

    Returns ((a, b, c, d), (plus, minus), cells):
    (a, b, c, d) = (dM+/dG+, dM+/dG-, dM-/dG+, dM-/dG-) / sigma_M, the plus
    branch's gradients over the tau_plus axis and the minus branch's over
    the tau_minus axis; plus = G-^2 b^2 + G+^2 a^2, minus = G-^2 d^2 + G+^2 c^2;
    and cells(r, c), the cost at (tau_plus_r, tau_minus_c), infinite where
    the Jacobian is singular.
    """
    taus = grid.taus
    (g_pp, g_pm), (g_mp, g_mm) = _gradient_tables(taus, rates, curves)
    s_plus, s_minus = _sigma_arrays(sigma_m, taus)
    gp, gm = map(float, _unpack(rates))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a, b = g_pp / s_plus, g_pm / s_plus
        c, d = g_mp / s_minus, g_mm / s_minus
        plus = gm**2 * b**2 + gp**2 * a**2
        minus = gm**2 * d**2 + gp**2 * c**2

    def cells(row, col):
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
    *_, cells = _cost_kernel(grid, rates, sigma_m, timing, curves)
    index = np.arange(grid.taus.size)
    return cells(*np.ix_(index, index))


def approx_cost_surface(grid, rates, timing, curves):
    """Common-sigma_M cost over the grid with the sigma factored out.

    For equal measurement uncertainties the full cost is sigma_M times the
    cost at unit sigma_M, which this returns: cost_surface(grid, rates,
    (1.0, 1.0), timing, curves), bit for bit.
    """
    *_, cells = _cost_kernel(grid, rates, (1.0, 1.0), timing, curves)
    index = np.arange(grid.taus.size)
    return cells(*np.ix_(index, index))


# _bounded_argmin's block edge (the last block is clipped) and probe stride,
# both measured on fig2 NOB states and the fig7 ranking.
_BLOCK = 12
_PROBE = 24


def _det_bound(tables, starts):
    """Per block pair, the largest |a[r] d[c] - b[r] c[c]| a cell can compute.

    Interval arithmetic (Moore 1966): over a block pair a d spans the
    products of a's and d's block minima and maxima, b c likewise, and
    |a d - b c| <= max(|ad_lo - bc_hi|, |ad_hi - bc_lo|).  Rounding to
    nearest is monotone, so these rounded products and differences bound
    the cells' rounded ones too, even where a d and b c cancel to the last
    ulp: no rounding term is needed.
    """
    table = np.stack(tables)
    # ends[k, e, block]: table k's block minimum (e = 0) and maximum (e = 1)
    ends = np.stack(
        [np.minimum.reduceat(table, starts, axis=1), np.maximum.reduceat(table, starts, axis=1)],
        axis=1,
    )

    def span(row, col):
        """Block-pair minimum and maximum of the table products row[r] col[c]."""
        ends_row, ends_col = ends[row][:, None, :, None], ends[col][None, :, None, :]
        products = (ends_row * ends_col).reshape(4, starts.size, starts.size)
        return products.min(axis=0), products.max(axis=0)

    (ad_lo, ad_hi), (bc_lo, bc_hi) = span(0, 3), span(1, 2)
    return np.maximum(np.abs(ad_lo - bc_hi), np.abs(ad_hi - bc_lo))


def _bounded_argmin(grid, rates, sigma_m, timing, curves):
    """np.argmin's (i, j, value) of cost_surface, bit for bit, by branch and bound.

    With _cost_kernel's tables, up to rounding,

        cells(r, c) = sqrt(t(r, c) (plus[r] + minus[c])) / (G+ G- |a[r] d[c] - b[r] c[c]|),

    with the duration t increasing in both delays.  So t at a block's first
    delays, the minima of plus and minus, and G+ G- times an interval bound
    on |a d - b c| (_det_bound) bound a block from below (Land and Doig
    1960).  The interval bound, unlike max|a| max|d| + max|b| max|c|, sees
    a d and b c cancel where the tables share a sign, as the robust
    protocol's do.  Blocks bounded above the best probe cell are skipped;
    the rest are evaluated in one cells call.  Every block is evaluated
    when a table is not finite, G+ G- <= 0, or no probe cell is finite.
    """
    taus = grid.taus
    n = taus.size
    starts = np.arange(0, n, _BLOCK)
    keep = np.ones((starts.size, starts.size), dtype=bool)
    gp, gm = map(float, _unpack(rates))
    tables, (plus, minus), cells = _cost_kernel(grid, rates, sigma_m, timing, curves)
    if gp * gm > 0.0 and all(np.isfinite(x).all() for x in (plus, minus, *tables)):
        probe = np.arange(0, n, _PROBE)
        upper = cells(*np.ix_(probe, probe)).min()
        if np.isfinite(upper):
            plus, minus = (np.minimum.reduceat(x, starts) for x in (plus, minus))
            t = timing.duration_seconds(*np.ix_(taus[starts], taus[starts]))
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                det = _det_bound(tables, starts)
                bound = np.sqrt(t * np.add.outer(plus, minus)) / (gp * gm * det)
            # The bound repeats the cells' rounded operations with t, plus and
            # minus no larger and |det| no smaller than at any cell of its
            # block, so it is below each of them (rounding is monotone); the
            # slack is a margin on top.  A NaN bound keeps its block.
            keep = ~(bound * (1.0 - 1e-9) > upper)
    block_rows, block_cols = np.nonzero(keep)
    offsets = np.arange(_BLOCK)
    row = np.minimum(starts[block_rows, None] + offsets, n - 1)[:, :, None]
    col = np.minimum(starts[block_cols, None] + offsets, n - 1)[:, None, :]
    values = cells(row, col)
    low = values.min()
    # A NaN minimum makes every NaN cell a hit, as in np.argmin; the first
    # hit in (tau_plus, tau_minus) order wins.
    hits = np.flatnonzero(np.isnan(values) if np.isnan(low) else values == low)
    k, r, c = np.unravel_index(hits, values.shape)
    flat = row[k, r, 0] * n + col[k, 0, c]
    first = np.argmin(flat)
    i, j = divmod(int(flat[first]), n)
    return i, j, float(values.flat[hits[first]])


def nob_select_delays(rates, timing, curves, grid=DEFAULT_GRID):
    """Deterministic optimizer: exact bounded argmin of approx_cost_surface.

    Returns np.argmin's cell of the full surface over `grid`, ties going to
    the smallest tau_plus, then tau_minus.  `rates` may be posterior moments
    (mean_plus/mean_minus), a RatePair, or a plain (gamma_plus, gamma_minus)
    tuple.
    """
    if hasattr(rates, "mean_plus"):
        rates = (rates.mean_plus, rates.mean_minus)
    i, j, _ = _bounded_argmin(grid, rates, (1.0, 1.0), timing, curves)
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
        if weights.shape != (gammas.shape[0],) or np.any(weights < 0.0):
            raise ValueError("weights must be nonnegative with shape (n,)")
        total = weights.sum()
        if not total > 0.0:
            raise ValueError("weights must not all vanish")
        object.__setattr__(self, "gammas", gammas)
        object.__setattr__(self, "weights", weights / total)

    @classmethod
    def from_grid(cls, grid, n, rng):
        """Draw n particles from a posterior grid with generator `rng`, jittered within cells."""
        w = grid.weights.ravel()
        idx = rng.choice(w.size, size=int(n), p=w)
        i, j = np.unravel_index(idx, grid.weights.shape)
        cell_p = float(np.mean(np.diff(grid.gamma_plus_axis)))
        cell_m = float(np.mean(np.diff(grid.gamma_minus_axis)))
        lo, hi = grid.hard_bounds
        gp = grid.gamma_plus_axis[i] + rng.uniform(-0.5, 0.5, i.size) * cell_p
        gm = grid.gamma_minus_axis[j] + rng.uniform(-0.5, 0.5, j.size) * cell_m
        gammas = np.clip(np.column_stack([gp, gm]), lo, hi)
        return cls(gammas=gammas, weights=np.full(int(n), 1.0 / int(n)))

    def is_degenerate(self):
        return bool(np.all(np.ptp(self.gammas, axis=0) == 0.0))


# Particles per block of the model calls that fill pf_select_delays' (particle, delay) array.
_PARTICLES = 1024


def _branch_variances(cloud, taus, curves):
    """Cloud variance of each branch's predicted value at taus, over one (particle, delay) array."""
    (gp, gm), w = cloud.gammas.T[:, :, None], cloud.weights
    values = np.empty((w.size, taus.size))
    variances = []
    for branch in BRANCHES:
        for start in range(0, w.size, _PARTICLES):
            block = slice(start, start + _PARTICLES)
            values[block] = curves.value(taus[None, :], (gp[block], gm[block]), branch)
        values -= np.einsum("p,pd->d", w, values)
        np.square(values, out=values)
        variances.append(np.einsum("p,pd->d", w, values))
    return variances


def pf_select_delays(cloud, timing, curves, grid=DEFAULT_GRID, subgrid=100):
    """Stochastic optimizer: variance-proxy utility over a delay subgrid.

    The utility of a delay pair is the cloud variance of the predicted
    measurement value per branch (how much the candidate measurement is
    expected to discriminate between posterior hypotheses), scaled by
    1/sqrt(T).  `subgrid`, a positive integer, thins the scored delays to
    every (size // subgrid)-th delay of `grid`, or every delay when it
    exceeds the grid size.
    A degenerate cloud falls back to the deterministic optimizer at the
    point-mass rates.
    """
    _check_positive_int(subgrid, "subgrid")
    mean_rates = tuple(np.average(cloud.gammas, axis=0, weights=cloud.weights))
    if cloud.is_degenerate():
        return nob_select_delays(mean_rates, timing, curves, grid)
    step = max(1, grid.taus.size // subgrid)
    taus = grid.taus[::step]
    var_plus, var_minus = _branch_variances(cloud, taus, curves)
    t = timing.duration_seconds(taus[:, None], taus[None, :])
    utility = (var_plus[:, None] + var_minus[None, :]) / np.sqrt(t)
    if not np.any(utility > 0.0):
        return nob_select_delays(mean_rates, timing, curves, grid)
    i, j = np.unravel_index(np.argmax(utility), utility.shape)
    return DelayPair(tau_plus=float(taus[i]), tau_minus=float(taus[j]))
