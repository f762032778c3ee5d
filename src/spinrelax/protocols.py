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
classes keyed by (bright level, unordered dark pair).  Independent
protocols are the unordered pairs of distinct classes; same-class pairs
are excluded as redundant.  The probe-lattice check additionally verifies
every member against its class representative and records that the 9
classes realize only 7 distinct functions: whenever the bright level and
the dark pair cover all three levels, row normalization gives
P_aa - P_cd = 1 - P_m0 - P_mp - P_0p independently of which level is
bright.  Those three classes stay separate (their pulse sequences
differ); the census reports the collapse instead of merging them.

Every class has the same closed form under ideal parameters:
P_aa - P_cd = ((g + x) e_fast + (g - x) e_slow) / 2g, rates' two-exponential
kernel, with x = p gamma_plus + q gamma_minus and (p, q) read off the
propagator's eigenprojectors (_CLASS_MIX).  The bright |0> signal against
the transfer signal of one branch, keys ("0", ("+", "0")) and
("0", ("-", "0")), gives x = gamma_plus or gamma_minus: rates.model_m of
that branch, whatever the contrast, pumping and pulse errors.  The three
collapsed classes give x = 0.  measurement_curves serves every slot from
this one kernel and its analytic gradient, so no protocol is a special case.

Ranking evaluates, for every independent protocol, the shot-noise
uncertainty of M from expected photon counts, minimizes the
time-normalized sensitivity cost over a delay grid, and reports each
minimal cost relative to the best-known reference pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .design import BranchCurves, DelayGrid, DelayPair, TimingModel, _bounded_argmin, _cost_terms
from .estimator import sigma_m_from_expectations
from .rates import _gradient, _pair_values, _values
from .signals import (
    STATES,
    Measurement,
    ProtocolSpec,
    SignalParams,
    expected_signals,
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

# Ranking baseline: perfect pumping and pulses, representative collection.
IDEAL_RANKING_PARAMS = SignalParams(
    f0=0.02,
    contrast_C=0.24,
    alpha=1.0,
    eta_plus=0.0,
    eta_minus=0.0,
    background=0.0,
    repetitions_R=10**6,
)

# Probe lattice for the function cross-check; densified once on a mismatch.
_PROBE_SIZES = (5, 9)
_DEDUP_TOL = 1e-12
_MEASUREMENT_CLASS_COUNT = 9
# Row normalization merges the three classes whose bright level and dark
# pair cover all three levels into one model function.
_DISTINCT_FUNCTION_COUNT = 7
_INDEPENDENT_COUNT = 36


def _oriented_signals(measurement):
    """Signals ordered bright (self-reverting) first."""
    first, second = measurement.first, measurement.second
    if first[0] == first[1]:
        return first, second
    return second, first


# Class key -> (p, q) of the class's mixing rate x = p gamma_plus + q gamma_minus.
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
        value=lambda tau, rates, branch: _values(tau, rates, *mix[branch]),
        gradient=lambda tau, rates, branch: _gradient(tau, rates, *mix[branch]),
        pair_value=lambda tp, tm, rates: _pair_values(tp, tm, rates, mix["+"], mix["-"]),
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
    bright, dark = _oriented_signals(measurement)
    return bright[0], tuple(sorted(dark))


def _canonical_measurement(key):
    """Smallest-label realization with the dark signal in the first slot."""
    level, pair = key
    bright = (level, level)
    candidates = (
        Measurement(first=(pair[0], pair[1]), second=bright),
        Measurement(first=(pair[1], pair[0]), second=bright),
    )
    return min(candidates, key=lambda m: m.label)


def _function_classes(measurements, size):
    """Group measurements into model-function classes.

    Returns (class index per measurement, canonical representative per
    class, number of numerically distinct class functions).  Every member's
    normalized expectation from photon counts under IDEAL_RANKING_PARAMS
    is verified against its representative's on the probe lattice; the
    distinct count exposes the row-normalization collapse without merging
    the affected classes.
    """
    keys = sorted({_measurement_class_key(m) for m in measurements})
    reps = [_canonical_measurement(key) for key in keys]
    class_of = [keys.index(_measurement_class_key(m)) for m in measurements]
    taus, gps, gms = _probe_lattice(size)

    def signature(measurement):
        value = _normalized_expectation(measurement, taus, (gps, gms), IDEAL_RANKING_PARAMS)
        return np.ravel(value)

    rep_signatures = [signature(r) for r in reps]
    for m, k in zip(measurements, class_of):
        sig = signature(m)
        if np.max(np.abs(sig - rep_signatures[k])) > _DEDUP_TOL:
            raise RuntimeError(
                f"measurement {m.label} deviates from its class "
                f"representative {reps[k].label} on the probe lattice"
            )
    distinct = []
    for sig in rep_signatures:
        if not any(np.max(np.abs(sig - ref)) <= _DEDUP_TOL for ref in distinct):
            distinct.append(sig)
    return class_of, reps, len(distinct)


def _classified_measurements():
    measurements = enumerate_measurements()
    count = None
    for size in _PROBE_SIZES:
        class_of, reps, count = _function_classes(measurements, size)
        if len(reps) == _MEASUREMENT_CLASS_COUNT and count == _DISTINCT_FUNCTION_COUNT:
            return measurements, class_of, reps, count
    raise RuntimeError(
        f"measurement census found {len(reps)} classes realizing {count} "
        f"distinct functions, expected {_MEASUREMENT_CLASS_COUNT} classes "
        f"and {_DISTINCT_FUNCTION_COUNT} functions"
    )


def enumerate_protocols():
    """The independent two-branch protocols, canonically represented.

    Each is an unordered pair of two distinct measurement classes; the
    representative pairs the canonical realization of each class, smaller
    label in the first slot.
    """
    _, _, reps, _ = _classified_measurements()
    protocols = []
    for a, b in combinations(sorted(reps, key=lambda m: m.label), 2):
        protocols.append(ProtocolSpec(plus=a, minus=b))
    if len(protocols) != _INDEPENDENT_COUNT:
        raise RuntimeError(
            f"independent protocol count {len(protocols)} != {_INDEPENDENT_COUNT}"
        )
    return protocols


def _bright_first_expectations(measurement, tau, rates, params):
    """Expected (bright at tau, dark at tau, bright at 0, dark at 0) counts."""
    bright, dark = _oriented_signals(measurement)
    counts = expected_signals(Measurement(bright, dark), tau, rates, params)
    return np.moveaxis(counts[..., 0, :], -1, 0)


def _normalized_expectation(measurement, tau, rates, params):
    """Normalized measurement from full expected counts (any parameters)."""
    e1t, e2t, e10, e20 = _bright_first_expectations(measurement, tau, rates, params)
    return (e1t - e2t) / (e10 - e20)


def _eta_insensitive(measurement):
    """True when pulse errors cancel from the normalized expectation."""
    base = SignalParams(f0=0.02, contrast_C=0.24, alpha=0.8, eta_plus=0.0, eta_minus=0.0)
    perturbed = SignalParams(
        f0=0.02, contrast_C=0.24, alpha=0.8, eta_plus=0.08, eta_minus=0.13
    )
    taus = np.geomspace(0.05, 2.0, 5)
    for gp, gm in [(1.0, 3.0), (0.4, 0.7), (2.5, 1.2)]:
        a = _normalized_expectation(measurement, taus, (gp, gm), base)
        b = _normalized_expectation(measurement, taus, (gp, gm), perturbed)
        if np.max(np.abs(a - b)) > 1e-10:
            return False
    return True


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


def census():
    """Counts and pulse-error tags for the full protocol family."""
    measurements, _, reps, distinct = _classified_measurements()
    protocols = enumerate_protocols()
    insensitive = tuple(m.label for m in reps if _eta_insensitive(m))
    insensitive_protocols = tuple(
        p.label
        for p in protocols
        if _eta_insensitive(p.plus) and _eta_insensitive(p.minus)
    )
    return CensusReport(
        raw_count=raw_protocol_count(),
        valid_count=len(measurements) ** 2,
        measurement_count=len(measurements),
        function_class_count=len(reps),
        distinct_function_count=distinct,
        independent_count=len(protocols),
        eta_insensitive_measurements=insensitive,
        eta_insensitive_protocols=insensitive_protocols,
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


ROBUST_LABEL = "(+0,00),(-0,00)"
OPTIMAL_LABEL = "(+0,++),(-0,--)"


def _sigma_callable(measurement, rates, params):
    def sigma(taus):
        expectations = _bright_first_expectations(measurement, taus, rates, params)
        _, s = sigma_m_from_expectations(*expectations)
        return s

    return sigma


def minimal_cost(protocol, rates, params=None, timing=None, grid=None):
    """Lowest achievable cost and its delay pair for one protocol.

    An exact bounded argmin of cost_surface, sigma_M being the protocol's
    shot noise per delay: the cell and value of np.argmin over the full
    surface, ties going to the smallest tau_plus, then tau_minus.
    """
    if params is None:
        params = IDEAL_RANKING_PARAMS
    if timing is None:
        timing = TimingModel(repetitions_R=params.repetitions_R)
    if grid is None:
        grid = DelayGrid.default()
    curves = measurement_curves(protocol)
    sigma_m = (
        _sigma_callable(protocol.plus, rates, params),
        _sigma_callable(protocol.minus, rates, params),
    )
    terms = _cost_terms(grid, rates, sigma_m, timing, curves)
    i, j, value = _bounded_argmin(grid, rates, timing, *terms)
    return DelayPair(tau_plus=float(grid.taus[i]), tau_minus=float(grid.taus[j])), value


def rank_protocols(rates, params=None, timing=None, grid=None):
    """All independent protocols ranked by their minimal cost.

    Ratios are relative to the reference pair probing both diagonal bright
    entries, which is expected to rank first; rate-insensitive protocols
    get infinite cost and sort last.
    """
    protocols = enumerate_protocols()
    results = []
    reference_cost = None
    for protocol in protocols:
        delays, value = minimal_cost(protocol, rates, params, timing, grid)
        results.append((protocol, delays, value))
        if protocol.label == OPTIMAL_LABEL:
            reference_cost = value
    if reference_cost is None or not np.isfinite(reference_cost):
        raise RuntimeError("reference protocol missing or uninformative")
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


def _protocol_by_label(label):
    for protocol in enumerate_protocols():
        if protocol.label == label:
            return protocol
    raise KeyError(label)


def sensitivity_ratio_curve(ratios=None, params=None, timing=None, grid=None):
    """Robust-vs-reference cost ratio swept over the rate asymmetry.

    Rates are parameterized as (sqrt(r), 1/sqrt(r)) so the geometric mean
    stays 1; a common rate rescaling leaves every ratio unchanged.  Returns
    rows of (rate_ratio, cost_robust, cost_optimal, cost_ratio).
    """
    if ratios is None:
        ratios = np.geomspace(0.125, 8.0, 13)
    robust = _protocol_by_label(ROBUST_LABEL)
    optimal = _protocol_by_label(OPTIMAL_LABEL)
    rows = []
    for r in np.asarray(ratios, dtype=float):
        rates = (np.sqrt(r), 1.0 / np.sqrt(r))
        _, cost_robust = minimal_cost(robust, rates, params, timing, grid)
        _, cost_optimal = minimal_cost(optimal, rates, params, timing, grid)
        rows.append((float(r), cost_robust, cost_optimal, cost_robust / cost_optimal))
    return rows
