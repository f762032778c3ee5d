"""Census and ranking of four-signal measurement protocols.

A protocol measures each branch with two signals, probed at the working
delay and at zero delay, and forms M = (S1(tau) - S2(tau))/(S1(0) - S2(0)).
Each signal is a (prep pulse, read pulse) choice out of three pulses
(none, exchange with the minus level, exchange with the plus level), so a
signal probes one entry of the relaxation propagator: prep selects the
column, read selects the row.  A full two-branch protocol assigns eight
pulse labels, 3^8 = 6561 raw combinations.

A measurement is usable only if exactly one of its two signals is
self-reverting (prep == read, a diagonal propagator entry): that makes the
zero-delay denominator nonzero.  Under ideal parameters the normalized
measurement reduces to

    f(tau) = P_aa(tau) - P_cd(tau)

for a diagonal entry (a, a) and an off-diagonal entry (c, d).  Swapping
the two signals flips the sign of numerator and denominator together, and
transposing the dark pulse pair leaves the value unchanged because the
propagator is symmetric, so the 36 usable measurements fall into 9
classes keyed by (bright level, unordered dark pair).  The class table
_CLASS_MIX defines the family: enumeration pairs the canonical member of
each of its keys, independent protocols being the unordered pairs of
distinct classes (same-class pairs are redundant).  The census checks each
of the 36 measurements once, against the kernel its class folds with: its
normalized expectation from photon counts under IDEAL_RANKING_PARAMS must
equal the class kernel on a probe lattice.  The 9 classes realize only 7
distinct functions: whenever the bright level and the dark pair cover all
three levels, row normalization gives P_aa - P_cd = 1 - P_m0 - P_mp - P_0p
independently of which level is bright.  Those three classes stay
separate (their pulse sequences differ); the census reports the collapse
instead of merging them.

Every class has the same closed form under ideal parameters:
P_aa - P_cd = ((g + x) e_fast + (g - x) e_slow) / 2g, rates' two-exponential
kernel, with x = a gamma_plus + b gamma_minus and (a, b) read off the
propagator's eigenprojectors (_CLASS_MIX).  The bright |0> signal against
the transfer signal of one branch, keys ("0", ("+", "0")) and
("0", ("-", "0")), gives x = gamma_plus or gamma_minus: rates.model_m of
that branch, whatever the contrast, pumping and pulse errors.  The three
collapsed classes give x = 0.  measurement_curves serves every slot from
this one kernel and its analytic gradient, so no protocol is a special case.

Ranking evaluates the shot-noise uncertainty of M from expected photon
counts over the delay grid once per distinct measurement (the 36
protocols pair 9 measurements, so one ranking builds 9 sigma_M tables and
the ratio sweep 4, one row per ratio), builds each measurement's cost
tables (design._branch_tables) from it once, minimizes every independent
protocol's time-normalized sensitivity cost over the grid with its two
measurements' tables, and reports each minimal cost relative to the
best-known reference pair.  Each set of sigma_M tables, and each census
probe, takes its counts from one signals._four_counts call over pairs put
bright first by Measurement.oriented.  Rates are checked before any table.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations, product

import numpy as np

from .design import (
    DEFAULT_GRID,
    BranchCurves,
    DelayPair,
    TimingModel,
    _bounded_argmin,
    _branch_tables,
)
from .estimator import sigma_m_from_expectations
from .rates import RatePair, _gradient, _pair_values, _unpack
from .signals import (
    OPTIMAL_PROTOCOL,
    ROBUST_PROTOCOL,
    STATES,
    Measurement,
    ProtocolSpec,
    SignalParams,
    _four_counts,
)

__all__ = [
    "IDEAL_RANKING_PARAMS",
    "measurement_curves",
    "enumerate_measurements",
    "enumerate_protocols",
    "CensusReport",
    "census",
    "RankingEntry",
    "ProtocolRanking",
    "rank_protocols",
    "sensitivity_ratio_curve",
]

# Ranking baseline: perfect pumping and pulses, the default collection.
IDEAL_RANKING_PARAMS = replace(SignalParams(), alpha=1.0, eta_plus=0.0, eta_minus=0.0)

# Probe lattice edge of the census's checks and tolerance of its class-kernel check.
_PROBE_SIZE = 5
_KERNEL_TOL = 1e-12


# Class key -> (a, b) of the class's mixing rate x = a gamma_plus + b gamma_minus.
_CLASS_MIX = {
    ("0", ("+", "0")): (1, 0),
    ("0", ("-", "0")): (0, 1),
    ("0", ("+", "-")): (0, 0),
    ("+", ("+", "0")): (1, -1),
    ("+", ("+", "-")): (0, -1),
    ("+", ("-", "0")): (0, 0),
    ("-", ("-", "0")): (-1, 1),
    ("-", ("+", "-")): (-1, 0),
    ("-", ("+", "0")): (0, 0),
}


def measurement_curves(protocol):
    """BranchCurves adapter: slot "+" is the first measurement of the pair.

    Each slot is the two-exponential kernel of its measurement's class
    (_CLASS_MIX), the robust classes' being model_m / model_gradient.
    """
    mix = {
        "+": _CLASS_MIX[_measurement_class_key(protocol.plus)],
        "-": _CLASS_MIX[_measurement_class_key(protocol.minus)],
    }
    return BranchCurves(
        gradient=lambda tau, rates, branch: _gradient(tau, rates, *mix[branch]),
        pair_value=lambda tp, tm, rates, out=None: _pair_values(
            tp, tm, rates, mix["+"], mix["-"], out
        ),
    )


def enumerate_measurements():
    """All usable single-branch measurements (exactly one bright signal)."""
    out = []
    for p1, r1, p2, r2 in product(STATES, repeat=4):
        try:
            out.append(Measurement(first=(p1, r1), second=(p2, r2)))
        except ValueError:
            continue
    return out


def raw_protocol_count():
    """All 3^8 assignments of the eight pulse labels."""
    return 3 ** 8


def _probe_lattice(size):
    taus = np.geomspace(0.05, 2.0, size)
    gammas = np.geomspace(0.3, 5.0, size)
    return (
        taus[:, None, None],
        gammas[None, :, None],
        gammas[None, None, :],
    )


def _measurement_class_key(measurement):
    """Class key: bright level plus the unordered dark level pair.

    Signal order flips the sign of numerator and denominator together and
    a dark prep/read transpose probes the mirror entry of a symmetric
    propagator, so neither changes the normalized model function.
    """
    oriented = measurement.oriented()
    return oriented.first[0], tuple(sorted(oriented.second))


def _canonical_measurement(key):
    """Smallest-label realization with the dark signal in the first slot."""
    level, pair = key
    bright = (level, level)
    candidates = (
        Measurement(first=(pair[0], pair[1]), second=bright),
        Measurement(first=(pair[1], pair[0]), second=bright),
    )
    return min(candidates, key=lambda m: m.label)


def enumerate_protocols():
    """The independent two-branch protocols, canonically represented.

    Each is an unordered pair of two distinct measurement classes; the
    representative pairs the canonical realization of each class, smaller
    label in the first slot.
    """
    reps = sorted(map(_canonical_measurement, _CLASS_MIX), key=lambda m: m.label)
    return [ProtocolSpec(plus=a, minus=b) for a, b in combinations(reps, 2)]


def _expectations(measurements, tau, rates, params):
    """Per measurement, its oriented four counts (signals._four_counts) under one
    SignalParams: (bright, dark) at tau, then at 0 (scalars); tau and rates may be arrays."""
    fours = _four_counts([m.oriented() for m in measurements], tau, rates, params)
    return [(b[..., 0], d[..., 0], b0[0], d0[0]) for b, d, b0, d0 in fours]


def _normalized(measurements, tau, rates, params):
    """Each measurement's normalized expectation, from _expectations."""
    expectations = _expectations(measurements, tau, rates, params)
    return [(e1t - e2t) / (e10 - e20) for e1t, e2t, e10, e20 in expectations]


def _eta_insensitive_keys():
    """Class keys whose canonical measurement's normalized expectation loses
    the pulse errors, probed at three rate pairs given as arrays."""
    measurements = [_canonical_measurement(key) for key in _CLASS_MIX]
    probe = _probe_lattice(_PROBE_SIZE)[0], (np.array([1.0, 0.4, 2.5]), np.array([3.0, 0.7, 1.2]))
    base, perturbed = (
        _normalized(measurements, *probe, replace(SignalParams(), eta_plus=ep, eta_minus=em))
        for ep, em in ((0.0, 0.0), (0.08, 0.13))
    )
    return {k for k, a, b in zip(_CLASS_MIX, base, perturbed) if not np.max(np.abs(a - b)) > 1e-10}


@dataclass(frozen=True)
class CensusReport:
    raw_count: int
    valid_count: int
    measurement_count: int
    function_class_count: int
    distinct_function_count: int
    independent_count: int
    eta_insensitive_measurements: tuple
    eta_insensitive_protocols: tuple


def _check_class_kernels(measurements):
    """Every measurement's normalized expectation from counts is its class kernel."""
    taus, gps, gms = _probe_lattice(_PROBE_SIZE)
    values = _normalized(measurements, taus, (gps, gms), IDEAL_RANKING_PARAMS)
    for m, value in zip(measurements, values):
        mix = _CLASS_MIX[_measurement_class_key(m)]
        kernel = _pair_values(taus, taus, (gps, gms), mix, mix)[0]
        if np.max(np.abs(value - kernel)) > _KERNEL_TOL:
            raise RuntimeError(
                f"measurement {m.label} deviates from its class kernel on the probe lattice"
            )


def census():
    """Counts and pulse-error tags for the full protocol family."""
    measurements = enumerate_measurements()
    _check_class_kernels(measurements)
    protocols = enumerate_protocols()
    insensitive = _eta_insensitive_keys()
    return CensusReport(
        raw_count=raw_protocol_count(),
        valid_count=len(measurements) ** 2,
        measurement_count=len(measurements),
        function_class_count=len(_CLASS_MIX),
        distinct_function_count=len(set(_CLASS_MIX.values())),
        independent_count=len(protocols),
        eta_insensitive_measurements=tuple(
            _canonical_measurement(key).label for key in sorted(insensitive)
        ),
        eta_insensitive_protocols=tuple(
            p.label
            for p in protocols
            if {_measurement_class_key(p.plus), _measurement_class_key(p.minus)} <= insensitive
        ),
    )


@dataclass(frozen=True)
class RankingEntry:
    label: str
    delays: DelayPair
    cost: float
    cost_ratio: float


@dataclass(frozen=True)
class ProtocolRanking:
    entries: tuple
    reference_label: str

    COLUMNS = ("protocol", "tau_plus_ms", "tau_minus_ms", "cost_sqrt_s", "cost_ratio")

    @property
    def table(self):
        """One tuple per entry, in COLUMNS order."""
        return tuple(
            (e.label, e.delays.tau_plus, e.delays.tau_minus, e.cost, e.cost_ratio)
            for e in self.entries
        )


ROBUST_LABEL = ROBUST_PROTOCOL.label
OPTIMAL_LABEL = OPTIMAL_PROTOCOL.label


def _sigma_tables(protocols, rates, params, grid):
    """sigma_M over the grid's delays of every distinct measurement of
    `protocols`, all from one _expectations call: {measurement: array of
    shape broadcast(delays, rates)}."""
    measurements = list(dict.fromkeys(m for p in protocols for m in (p.plus, p.minus)))
    expectations = _expectations(measurements, grid.taus, rates, params)
    return {m: sigma_m_from_expectations(*e)[1] for m, e in zip(measurements, expectations)}


def _cost_tables(sigma_tables, rates, grid):
    """Each measurement's cost tables over the grid (design._branch_tables) from
    its sigma_M table in `sigma_tables`: one _gradient call per measurement."""
    taus = grid.taus
    mixes = {m: _CLASS_MIX[_measurement_class_key(m)] for m in sigma_tables}
    return {
        m: _branch_tables(taus, rates, _gradient(taus, rates, *mixes[m]), sigma)
        for m, sigma in sigma_tables.items()
    }


def _checked_rates(rates):
    """`rates` unchanged, once RatePair has accepted them as positive and finite."""
    if not isinstance(rates, RatePair):
        RatePair(*map(float, _unpack(rates)))
    return rates


def minimal_cost(protocol, rates, params=IDEAL_RANKING_PARAMS, grid=DEFAULT_GRID, *, _tables=None):
    """Lowest achievable cost and its delay pair for one protocol.

    An exact bounded argmin of cost_surface over `grid`, sigma_M being the
    protocol's shot noise per delay under `params` and the timing
    TimingModel(params.repetitions_R): the cell and value of np.argmin over
    the full surface, ties going to the smallest tau_plus, then tau_minus.
    Rates outside RatePair's domain raise ValueError.  `_tables` holds
    the cost tables (_cost_tables) of the protocol's two measurements at
    the same rates, params and grid (rank_protocols', or one ratio's of
    the ratio sweep); by default the protocol's own two are built.
    """
    rates = _checked_rates(rates)
    if _tables is None:
        _tables = _cost_tables(_sigma_tables([protocol], rates, params, grid), rates, grid)
    timing = TimingModel(repetitions_R=params.repetitions_R)
    branches = (_tables[protocol.plus], _tables[protocol.minus])
    i, j, value = _bounded_argmin(grid, rates, timing, branches)
    return DelayPair(tau_plus=float(grid.taus[i]), tau_minus=float(grid.taus[j])), value


def rank_protocols(rates, params=IDEAL_RANKING_PARAMS, grid=DEFAULT_GRID):
    """All independent protocols ranked by their minimal cost (minimal_cost).

    Ratios are relative to the reference pair probing both diagonal bright
    entries, which is expected to rank first; rate-insensitive protocols
    get infinite cost and sort last.  A reference cost that is not finite
    raises RuntimeError naming the rates, the grid's span and how many
    protocols have a finite cost.
    """
    protocols = enumerate_protocols()
    rates = _checked_rates(rates)
    tables = _cost_tables(_sigma_tables(protocols, rates, params, grid), rates, grid)
    results = [(p, *minimal_cost(p, rates, params, grid, _tables=tables)) for p in protocols]
    reference_cost = next(value for p, _, value in results if p == OPTIMAL_PROTOCOL)
    if not np.isfinite(reference_cost):
        finite = sum(np.isfinite(value) for *_, value in results)
        gp, gm = map(float, _unpack(rates))
        raise RuntimeError(
            f"reference protocol {OPTIMAL_LABEL} has no finite cost at rates "
            f"({gp:g}, {gm:g}) /ms over delays {grid.taus[0]:g} to {grid.taus[-1]:g} ms; "
            f"{finite} of {len(protocols)} protocols have a finite cost"
        )
    entries = tuple(
        RankingEntry(
            label=protocol.label,
            delays=delays,
            cost=value,
            cost_ratio=value / reference_cost,
        )
        for protocol, delays, value in sorted(results, key=lambda item: item[2])
    )
    return ProtocolRanking(entries=entries, reference_label=OPTIMAL_LABEL)


def sensitivity_ratio_curve(ratios, params=IDEAL_RANKING_PARAMS):
    """Robust-vs-reference cost ratio swept over the rate asymmetries `ratios`.

    Rates are parameterized as (sqrt(r), 1/sqrt(r)) so the geometric mean
    stays 1; a common rate rescaling leaves every ratio unchanged.  Each
    cost is minimal_cost's under `params` on the default grid; the two
    protocols share no measurement, so the sweep builds four sigma_M
    tables, each with one row per ratio.  `ratios` that is not 1-D, or a
    ratio that is not positive and finite, or whose sigma_M or costs are
    not (the counts model leaving floating point), raises ValueError.
    Returns rows of (rate_ratio, cost_robust, cost_optimal, cost_ratio).
    """
    ratios = np.asarray(ratios, dtype=float)
    if ratios.ndim != 1:
        raise ValueError("ratios must be a 1-D sequence of rate ratios")
    if not np.all((ratios > 0.0) & (ratios < np.inf)):
        raise ValueError("rate ratios must be positive and finite")
    roots = np.sqrt(ratios)[:, None]
    protocols = (ROBUST_PROTOCOL, OPTIMAL_PROTOCOL)
    with np.errstate(over="ignore", invalid="ignore"):
        tables = _sigma_tables(protocols, (roots, 1.0 / roots), params, DEFAULT_GRID)
    rows = []
    for k, r in enumerate(ratios):
        rates = (np.sqrt(r), 1.0 / np.sqrt(r))
        row = {m: table[k] for m, table in tables.items()}
        usable = all(np.all((t > 0.0) & (t < np.inf)) for t in row.values())
        if usable:
            row = _cost_tables(row, rates, DEFAULT_GRID)
        costs = [minimal_cost(p, rates, params, _tables=row)[1] for p in protocols if usable]
        if not (usable and np.all(np.isfinite(costs))):
            raise ValueError(f"rate ratio {r:g} is beyond the counts model's floating-point range")
        rows.append((float(r), *costs, costs[0] / costs[1]))
    return rows
