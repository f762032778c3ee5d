"""Photon-count measurement model and Poisson signal simulator.

A single pulsed signal S_ij is: optically pump toward |0>, apply a microwave
pi pulse i (or none), relax for tau, apply pi pulse j, read out fluorescence.
Its expected photon sum over R repetitions is the five-factor chain

    S_ij(tau) = R * (c . B[j] . P(tau) . B[i] . s  +  b(tau))

with s the pumped populations, B the (imperfect) pulse operators, P(tau) the
relaxation propagator, c the state-dependent photon yields, and b(tau) an
optional background.  A measurement takes the difference of two such signals
at tau and again at tau = 0, and normalizes; every parameter except the
pi-pulse errors cancels from that ratio for suitably chosen signal pairs,
which is the whole point of the drift-insensitive protocol.

The simulator draws Poisson counts around the expected values.  With static
parameters all repetitions collapse into a single draw (sums of independent
Poissons are Poisson); under a drift schedule the four signals are drawn
interleaved in blocks of repetitions, mirroring how the pulse sequencer
interleaves them in hardware, which is what makes slow drift cancel.  All
blocks are evaluated together: each parameter field as one array, checked
in one pass by SignalParams' own domain rules, the propagator once per
delay, the four expected counts of every block in one stacked computation,
and the counts in one Poisson draw over the (blocks, 4) means.  A
measurement's four counts travel as one length-4 array, in the column order
of `expected_signals`: first and second signal at tau, then at tau = 0.
`expected_signals` is the one place that builds a measurement's four
expected counts; it also takes delay arrays, for ranking and census.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .rates import RatePair, propagator

__all__ = [
    "STATES",
    "STATE_INDEX",
    "SignalParams",
    "Measurement",
    "ProtocolSpec",
    "ROBUST_PROTOCOL",
    "OPTIMAL_PROTOCOL",
    "pulse_matrix",
    "prep_vector",
    "collection_vector",
    "expected_counts",
    "expected_signals",
    "sample_signals",
]

# Basis order (-, 0, +) -> indices (0, 1, 2); pulse labels use the same chars.
STATES = ("-", "0", "+")
STATE_INDEX = {"-": 0, "0": 1, "+": 2}

_DRIFTABLE = ("f0", "contrast_C", "alpha", "eta_plus", "eta_minus", "background")

# Repetitions per interleaved block of a drifted acquisition.
_BLOCK_REPS = 1000


def _nonnegative_or_callable(values):
    numbers = np.array([0.0 if callable(b) else b for b in values])
    return (numbers >= 0.0) & np.isfinite(numbers)


def _positive_whole(values):
    # Not bool: True would run with R = 1.
    v = values.astype(float) if values.dtype.kind in "iuf" else np.full(values.shape, np.nan)
    return (v >= 1.0) & (v < np.inf) & (v == np.floor(v))


# The parameter domain in SignalParams field order: field, test of an array
# of per-block values, message.  SignalParams checks itself as one block.
_DOMAIN_RULES = (
    ("f0", lambda v: (v > 0.0) & np.isfinite(v), "f0 must be positive"),
    # At contrast_C = 0 |+-1> and |0> fluoresce alike, and at alpha = 1/3 the
    # pumped state is fully mixed; either way every difference signal is 0.
    ("contrast_C", lambda v: (0.0 < v) & (v < 1.0), "contrast_C must lie in (0, 1)"),
    ("alpha", lambda v: (1.0 / 3.0 < v) & (v <= 1.0), "alpha must lie in (1/3, 1]"),
    ("eta_plus", lambda v: (0.0 <= v) & (v < 0.5), "eta_plus must lie in [0, 0.5)"),
    ("eta_minus", lambda v: (0.0 <= v) & (v < 0.5), "eta_minus must lie in [0, 0.5)"),
    ("background", _nonnegative_or_callable, "background must be nonnegative or a callable of tau"),
    ("repetitions_R", _positive_whole, "repetitions_R must be a positive integer"),
)


def _domain_violation(values):
    """(block, message): the first block out of the domain, its first failing rule; or None."""
    bad = np.argwhere(~np.array([ok(values[name]) for name, ok, _ in _DOMAIN_RULES], dtype=bool).T)
    return (bad[0, 0], _DOMAIN_RULES[bad[0, 1]][2]) if bad.size else None


@dataclass(frozen=True)
class SignalParams:
    """Static acquisition parameters of the photon-counting measurement.

    f0: expected photons per readout of |0>; contrast_C: fractional
    fluorescence dip of |+-1> relative to |0>; alpha: optical pump fidelity
    into |0>; eta_plus/eta_minus: pi-pulse failure probabilities; background:
    photons per readout added to every signal, either a constant or a
    callable of tau (ms); repetitions_R: pulse-sequence repetitions summed
    into one recorded count.
    """

    f0: float = 0.02
    contrast_C: float = 0.24
    alpha: float = 0.8
    eta_plus: float = 0.05
    eta_minus: float = 0.05
    background: object = 0.0
    repetitions_R: int = 10**6

    def __post_init__(self):
        violation = _domain_violation({name: np.array([v]) for name, v in vars(self).items()})
        if violation:
            raise ValueError(violation[1])
        # A whole-valued R is kept as an int, the type TimingModel requires.
        object.__setattr__(self, "repetitions_R", int(self.repetitions_R))

    def background_at(self, tau):
        return self.background(tau) if callable(self.background) else self.background


def pulse_matrix(label, params):
    """Population transfer matrix of pi pulse `label` ('0' means no pulse).

    Array-valued pulse errors give one matrix per element, stacked C-ordered.
    """
    if label == "0":
        return np.eye(3)
    if label not in _PERFECT_FLIPS:
        raise ValueError(f"unknown state label {label!r}")
    flip = _PERFECT_FLIPS[label]
    e = np.asarray(params.eta_plus if label == "+" else params.eta_minus)[..., None, None]
    # Entries e and 1 - e exactly: 0 + e * 1 and 1 + e * (-1).
    return flip + e * (np.eye(3) - flip)


_PERFECT_FLIPS = {"+": np.eye(3)[[0, 2, 1]], "-": np.eye(3)[[1, 0, 2]]}


def prep_vector(params):
    """Populations after optical pumping: alpha in |0>, remainder split evenly."""
    half = (1.0 - params.alpha) / 2.0
    return np.stack([half, params.alpha, half], axis=-1)


def collection_vector(params):
    """Expected photons per readout conditioned on the pre-readout state."""
    dim = params.f0 * (1.0 - params.contrast_C)
    return np.stack([dim, params.f0, dim], axis=-1)


@dataclass(frozen=True)
class Measurement:
    """A signal pair (first, second), each a (prep, read) label tuple.

    The normalized measurement is (first - second)(tau) / (first - second)(0);
    it only carries information when exactly one of the two signals re-reads
    the pumped |0> population at tau = 0 (readout pulse undoing the
    preparation pulse), which is also what keeps the tau = 0 denominator
    nonzero over the whole valid parameter domain.
    """

    first: tuple
    second: tuple

    def __post_init__(self):
        for prep, read in (self.first, self.second):
            if prep not in STATES or read not in STATES:
                raise ValueError(f"unknown state label in signal ({prep}, {read})")
        if self.first == self.second:
            raise ValueError("measurement needs two distinct signals")
        bright_count = (self.first[0] == self.first[1]) + (self.second[0] == self.second[1])
        if bright_count != 1:
            raise ValueError(
                "measurement must pair one self-reverting signal with one "
                "population-transfer signal (otherwise the tau = 0 reference "
                "difference vanishes)"
            )

    @property
    def label(self):
        return f"({self.first[0]}{self.first[1]},{self.second[0]}{self.second[1]})"

    def oriented(self, params):
        """Order the pair so the expected tau = 0 difference is positive."""
        anchor = RatePair(1.0, 1.0)  # tau = 0 expectations do not involve rates
        first, second = expected_signals(self, 0.0, anchor, params)[0, 2:]
        if first >= second:
            return self
        return Measurement(self.second, self.first)


@dataclass(frozen=True)
class ProtocolSpec:
    """The two measurements (one per relaxation branch) of a full protocol."""

    plus: Measurement
    minus: Measurement

    @property
    def label(self):
        return f"{self.plus.label},{self.minus.label}"


ROBUST_PROTOCOL = ProtocolSpec(
    plus=Measurement(("+", "0"), ("0", "0")),
    minus=Measurement(("-", "0"), ("0", "0")),
)

OPTIMAL_PROTOCOL = ProtocolSpec(
    plus=Measurement(("+", "0"), ("+", "+")),
    minus=Measurement(("-", "0"), ("-", "-")),
)

def expected_counts(prep, read, tau, rates, params):
    """Expected photon sum of signal S_{prep,read}(tau); vectorized over tau."""
    entries = propagator(tau, rates)
    start = pulse_matrix(prep, params) @ prep_vector(params)
    finish = collection_vector(params) @ pulse_matrix(read, params)
    bare = np.einsum("...ij,j->...i", entries, start) @ finish
    return params.repetitions_R * (bare + params.background_at(tau))


def _check_drift_fields(drifts):
    unknown = set(drifts or {}) - set(_DRIFTABLE)
    if unknown:
        raise ValueError(f"cannot drift unknown fields: {sorted(unknown)}")


def _stack_blocks(params, drifts=None, times=(None,), reps=None):
    """Parameter blocks at `times` as per-field arrays, checked in one pass.

    A field in `drifts` takes its callable's value at each time, the block
    repetitions are `reps` (default: params' own), and every other field is
    params'.  Backgrounds stay a list, as each may be a callable of tau.  The
    first drifted block out of the domain raises, naming its time and field.
    """
    drifts = drifts or {}
    _check_drift_fields(drifts)
    columns = {name: [getattr(params, name)] * len(times) for name in _DRIFTABLE}
    columns.update({name: [fn(t) for t in times] for name, fn in drifts.items()})
    blocks = SimpleNamespace(
        **{name: np.array(values) for name, values in columns.items() if name != "background"},
        background=columns["background"],
        repetitions_R=np.array([params.repetitions_R] if reps is None else reps),
    )
    violation = drifts and _domain_violation(vars(blocks))
    if violation:
        raise ValueError(f"drift schedule at t = {times[violation[0]]:.6g} s: {violation[1]}")
    return blocks


def expected_signals(measurement, tau, rates, blocks):
    """Expected photon sums of a measurement's four signals, per delay and block.

    `tau` is a delay or an array of delays (ms); `blocks` is one SignalParams
    (a single block) or a stack of parameter blocks from `_stack_blocks`,
    each block with its own repetitions_R.  Returns shape
    tau.shape + (blocks, 4), so a scalar delay gives (blocks, 4); the
    columns are the first and second signal at tau, then at tau = 0, whose
    values broadcast along the delay axes.  Over a delay array, the blocks'
    backgrounds must be all constants or all callables.
    The propagator is evaluated once per delay; the blocks' prep/collection
    vectors and pulse matrices are stacked and combined with batched matmul,
    which reproduces each scalar expected_counts call bit for bit.
    """
    if isinstance(blocks, SignalParams):
        blocks = _stack_blocks(blocks)
    pumped = prep_vector(blocks)[:, :, None]
    yields = collection_vector(blocks)[:, None, :]
    chains = [
        ((pulse_matrix(prep, blocks) @ pumped)[:, :, 0], yields @ pulse_matrix(read, blocks))
        for prep, read in (measurement.first, measurement.second)
    ]
    columns = []
    # exp(K * 0) is the identity exactly, as propagator() pins it.
    for t, entries in ((tau, propagator(tau, rates)), (0.0, np.eye(3))):
        # One row per block, moved to the last axis beside the delay axes.
        background = [b(t) if callable(b) else b for b in blocks.background]
        background = np.moveaxis(np.array(background, dtype=float), 0, -1)
        for start, finish in chains:
            bare = finish @ np.einsum("...ij,bj->...bi", entries, start)[..., None]
            columns.append(blocks.repetitions_R * (bare[..., 0, 0] + background))
    return np.stack(np.broadcast_arrays(*columns), axis=-1)


def sample_signals(
    measurement,
    tau,
    rates,
    params,
    rng,
    drifts=None,
    t_start=0.0,
    duration_s=0.0,
    block_reps=_BLOCK_REPS,
):
    """Draw the four Poisson photon sums of one measurement.

    Returns the integer counts as one length-4 array in expected_signals'
    column order: first and second signal at tau, then at tau = 0.

    Static parameters use a single draw per signal at the full-R expectation.
    With a drift schedule the acquisition is split into interleaved blocks of
    `block_reps` repetitions, spread evenly over [t_start, t_start +
    duration_s]; all four signals within a block share the same instantaneous
    parameters, which is the interleaving that cancels slow drift.

    The drifted fields are evaluated at every block time into per-field
    arrays and checked in one pass, before any draw: the first block outside
    the parameter domain raises a ValueError naming its time and first
    failing field.  `expected_signals` then evaluates all blocks at once, and
    one Poisson draw over the (blocks, 4) means consumes the generator in
    block-major order.  Static parameters are the one-block case.
    """
    means, _ = _block_means(
        measurement, tau, rates, params, drifts, t_start, duration_s, block_reps
    )
    return rng.poisson(means).sum(axis=0)


def _block_means(
    measurement, tau, rates, params, drifts, t_start, duration_s, block_reps=_BLOCK_REPS
):
    """sample_signals' (blocks, 4) expected counts, checked nonnegative, and their totals."""
    if drifts is None:
        times, blocks = [None], params
    else:
        total_r = params.repetitions_R
        n_blocks = math.ceil(total_r / block_reps)
        times = [t_start + (b + 0.5) / n_blocks * duration_s for b in range(n_blocks)]
        reps = [min(block_reps, total_r - b * block_reps) for b in range(n_blocks)]
        blocks = _stack_blocks(params, drifts, times, reps)
    means = expected_signals(measurement, tau, rates, blocks)
    negative = np.argwhere(means < 0.0)
    if negative.size:
        b, k = negative[0]
        prep, read = (measurement.first, measurement.second)[k % 2]
        when = "" if times[b] is None else f" in the block at t = {times[b]:.6g} s"
        raise ValueError(
            f"negative expected counts for signal ({prep}, {read}) at tau = "
            f"{tau if k < 2 else 0.0} ms{when} (check the background function)"
        )
    # numpy adds axis-0 rows in order, as a running per-block total would.
    return means, means.sum(axis=0)
