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
blocks are evaluated together: the propagator once per delay, the four
expected counts of every block in one stacked computation, and the counts
in one Poisson draw over the (blocks, 4) means.  `expected_signals` is the
one place that builds a measurement's four expected counts; it also takes
delay arrays, for the protocol ranking and census.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from types import SimpleNamespace

import numpy as np

from .rates import RatePair, propagator

__all__ = [
    "STATES",
    "STATE_INDEX",
    "SignalParams",
    "SignalSample",
    "FourSignals",
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
    "drift_schedule",
]

# Basis order (-, 0, +) -> indices (0, 1, 2); pulse labels use the same chars.
STATES = ("-", "0", "+")
STATE_INDEX = {"-": 0, "0": 1, "+": 2}

_DRIFTABLE = ("f0", "contrast_C", "alpha", "eta_plus", "eta_minus", "background")
_STACKED_FIELDS = ("f0", "contrast_C", "alpha", "eta_plus", "eta_minus", "repetitions_R")


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
        if not (self.f0 > 0.0 and np.isfinite(self.f0)):
            raise ValueError("f0 must be positive")
        if not (0.0 <= self.contrast_C < 1.0):
            raise ValueError("contrast_C must lie in [0, 1)")
        if not (1.0 / 3.0 < self.alpha <= 1.0):
            # At alpha = 1/3 the pumped state is fully mixed and every
            # difference signal vanishes identically.
            raise ValueError("alpha must lie in (1/3, 1]")
        for name in ("eta_plus", "eta_minus"):
            eta = getattr(self, name)
            if not (0.0 <= eta < 0.5):
                raise ValueError(f"{name} must lie in [0, 0.5)")
        if not callable(self.background) and not (
            np.isfinite(self.background) and self.background >= 0.0
        ):
            raise ValueError("background must be nonnegative or a callable of tau")
        if not (int(self.repetitions_R) == self.repetitions_R and self.repetitions_R >= 1):
            raise ValueError("repetitions_R must be a positive integer")

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
class SignalSample:
    """One recorded signal: a photon sum over R repetitions and its mean.

    `counts` is an int when drawn by sample_signals, and a float where it is
    an expectation (noiseless runs) or a sum accumulated in floats (the
    fixed-sweep aggregates).
    """

    counts: int | float
    expectation: float
    tau: float
    prep: str
    read: str

    def __post_init__(self):
        if self.counts < 0:
            raise ValueError("counts must be nonnegative")


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
        first, second = expected_signals(self, 0.0, anchor, [params])[0, 2:]
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

    def branch(self, branch):
        if branch == "+":
            return self.plus
        if branch == "-":
            return self.minus
        raise ValueError(f"branch must be '+' or '-', got {branch!r}")


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
    entries = propagator(tau, rates).entries
    start = pulse_matrix(prep, params) @ prep_vector(params)
    finish = collection_vector(params) @ pulse_matrix(read, params)
    bare = np.einsum("...ij,j->...i", entries, start) @ finish
    return params.repetitions_R * (bare + params.background_at(tau))


def _check_drift_fields(drifts):
    unknown = set(drifts or {}) - set(_DRIFTABLE)
    if unknown:
        raise ValueError(f"cannot drift unknown fields: {sorted(unknown)}")


def drift_schedule(params, t, drifts, **fixed):
    """Instantaneous SignalParams at wall-clock time t (seconds).

    `drifts` maps field names (f0, contrast_C, alpha, eta_plus, eta_minus,
    background) to callables of t returning the drifted value; missing fields
    stay constant.  `fixed` sets further fields (such as a block's
    repetitions_R) in the same replace.  Values violating the parameter
    invariants raise a ValueError naming the time t and the violated field.
    """
    drifts = drifts or {}
    if not drifts and not fixed:
        return params
    _check_drift_fields(drifts)
    values = {name: fn(t) for name, fn in drifts.items()}
    try:
        return replace(params, **fixed, **values)
    except ValueError as exc:
        raise ValueError(f"drift schedule at t = {t:.6g} s: {exc}") from exc


@dataclass(frozen=True)
class FourSignals:
    """The four raw signals of one measurement: pair at tau, pair at tau = 0."""

    first_tau: SignalSample
    second_tau: SignalSample
    first_zero: SignalSample
    second_zero: SignalSample

    def as_tuple(self):
        return (self.first_tau, self.second_tau, self.first_zero, self.second_zero)

    @classmethod
    def of(cls, measurement, tau, counts, expectations):
        """Assemble from per-signal values given in field order."""
        preps, reads = zip(*(measurement.first, measurement.second) * 2)
        return cls(*map(SignalSample, counts, expectations, (tau, tau, 0.0, 0.0), preps, reads))


def expected_signals(measurement, tau, rates, blocks):
    """Expected photon sums of a measurement's four signals, per delay and block.

    `tau` is a delay or an array of delays (ms); `blocks` is a sequence of
    SignalParams, each with its own repetitions_R.  Returns shape
    tau.shape + (len(blocks), 4), so a scalar delay gives (blocks, 4);
    columns in FourSignals order: first and second signal at tau, then at
    tau = 0, whose values broadcast along the delay axes.  Over a delay
    array, the blocks' backgrounds must be all constants or all callables.
    The propagator is evaluated once per delay; the blocks' prep/collection
    vectors and pulse matrices are stacked and combined with batched matmul,
    which reproduces each scalar expected_counts call bit for bit.
    """
    # Per-block arrays of the numeric fields; the pulse, prep and collection
    # builders take them in place of a SignalParams and return stacks.
    stacked = SimpleNamespace(
        **{name: np.array([getattr(p, name) for p in blocks]) for name in _STACKED_FIELDS}
    )
    pumped = prep_vector(stacked)[:, :, None]
    yields = collection_vector(stacked)[:, None, :]
    chains = [
        ((pulse_matrix(prep, stacked) @ pumped)[:, :, 0], yields @ pulse_matrix(read, stacked))
        for prep, read in (measurement.first, measurement.second)
    ]
    columns = []
    # exp(K * 0) is the identity exactly, as propagator() pins it.
    for t, entries in ((tau, propagator(tau, rates).entries), (0.0, np.eye(3))):
        # One row per block, moved to the last axis beside the delay axes.
        background = np.array([p.background_at(t) for p in blocks], dtype=float)
        background = np.moveaxis(background, 0, -1)
        for start, finish in chains:
            bare = finish @ np.einsum("...ij,bj->...bi", entries, start)[..., None]
            columns.append(stacked.repetitions_R * (bare[..., 0, 0] + background))
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
    block_reps=1000,
):
    """Draw the four Poisson signals of one measurement.

    Static parameters use a single draw per signal at the full-R expectation.
    With a drift schedule the acquisition is split into interleaved blocks of
    `block_reps` repetitions, spread evenly over [t_start, t_start +
    duration_s]; all four signals within a block share the same instantaneous
    parameters, which is the interleaving that cancels slow drift.

    Each block's drifted SignalParams is validated; `expected_signals` then
    evaluates all blocks at once, and one Poisson draw over the (blocks, 4)
    means consumes the generator in block-major order.  Static parameters
    are the one-block case.
    """
    means, expectations = _block_means(
        measurement, tau, rates, params, drifts, t_start, duration_s, block_reps
    )
    counts = rng.poisson(means).sum(axis=0)
    return FourSignals.of(measurement, tau, counts.tolist(), expectations.tolist())


def _block_means(measurement, tau, rates, params, drifts, t_start, duration_s, block_reps=1000):
    """sample_signals' (blocks, 4) expected counts, checked nonnegative, and their totals."""
    if drifts is None:
        times, blocks = [None], [params]
    else:
        total_r = params.repetitions_R
        n_blocks = math.ceil(total_r / block_reps)
        times = [t_start + (b + 0.5) / n_blocks * duration_s for b in range(n_blocks)]
        reps = [min(block_reps, total_r - b * block_reps) for b in range(n_blocks)]
        blocks = [drift_schedule(params, t, drifts, repetitions_R=r) for t, r in zip(times, reps)]
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
    # cumsum adds the blocks in order, as a running per-block total would.
    return means, np.cumsum(means, axis=0)[-1]
