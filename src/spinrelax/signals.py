"""Photon-count measurement model and Poisson signal simulator.

A single pulsed signal S_ij is: optically pump toward |0>, apply a microwave
pi pulse i (or none), relax for tau, apply pi pulse j, read out fluorescence.
Its expected photon sum over R repetitions is the five-factor chain

    S_ij(tau) = R * (c . B[j] . P(tau) . B[i] . s  +  b(tau))

with s the pumped populations, B the (imperfect) pulse operators, P(tau) the
relaxation propagator, c the state-dependent photon yields, and b(tau) an
optional background.  For fixed rates P(tau) = J/3 + e_fast P_u + e_slow P_w
(rates' eigenprojectors), so every bare count is a constant plus two
decays, k0 + k1 e_fast(tau) + k2 e_slow(tau): the three coefficients come
once per signal and parameter block from the pulse chain and the
eigenvectors, and the decays from rates._decays, the same ones the
normalized model uses.  The 3x3 propagator is not on the counts path; at
tau = 0 a count is the chain through the identity, c B_read B_prep s,
exactly.  A measurement takes the difference of two such signals
at tau and again at tau = 0, and normalizes; every parameter except the
pi-pulse errors cancels from that ratio for suitably chosen signal pairs,
which is the whole point of the drift-insensitive protocol.

The simulator draws Poisson counts around the expected values.  With static
parameters all repetitions collapse into a single draw (sums of independent
Poissons are Poisson); under a drift schedule the four signals are drawn
interleaved in blocks of repetitions, mirroring how the pulse sequencer
interleaves them in hardware, which is what makes slow drift cancel.  The
only code run once per block is the caller's: each drift callable, and a
drifted background that is a callable of tau, at tau and at 0; an
undrifted callable background is called once at each.  Everything else is
built as arrays: the block times and repetitions by arange arithmetic,
each undrifted field in one fill, every field checked in one pass by
SignalParams' own domain rules, the decays once per delay, the four
expected counts of every block in one stacked computation, and the counts
in one Poisson draw over the (blocks, 4) means.  A
measurement's four counts travel as one length-4 array, in the column order
of `expected_signals`: first and second signal at tau, then at tau = 0.
`_signal_counts` builds every expected count, `_four_counts` assembles every
measurement's four from one such call, and `Measurement.oriented` orders a pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .design import _check_positive_int
from .rates import _check_tau, _decays, _eigenvectors, _rate_terms

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
    # Object arrays hold callable backgrounds; an undrifted one (stride 0) is checked once.
    if values.dtype == object:
        shared = values[:1] if values.strides == (0,) else values
        values = np.broadcast_to([0.0 if callable(b) else b for b in shared], values.shape)
    return (values >= 0.0) & np.isfinite(values)


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
    it only carries information when exactly one of the two signals is
    self-reverting (prep == read: the readout pulse undoes the preparation
    pulse, so at tau = 0 it re-reads the pumped |0> population), which keeps
    the tau = 0 denominator nonzero over the whole valid parameter domain.
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

    def oriented(self):
        """The pair with its self-reverting signal first, by the labels: at tau = 0
        it returns more of the pumped |0> population to |0>, the brightest state,
        than the transfer signal does, so (first - second)(0) > 0 over the domain."""
        if self.first[0] == self.first[1]:
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
    [(at_tau, _)] = _signal_counts([(prep, read)], tau, rates, _stack_blocks(params))
    return at_tau[..., 0][()]


def _check_drift_fields(drifts):
    """Every drift names a SignalParams field and is a callable of wall-clock seconds."""
    unknown = set(drifts or {}) - set(_DRIFTABLE)
    if unknown:
        raise ValueError(f"cannot drift unknown fields: {sorted(unknown)}")
    for name, fn in (drifts or {}).items():
        if not callable(fn):
            raise ValueError(f"drift of {name} must be a callable of seconds, got {fn!r}")


def _stack_blocks(params, drifts=None, times=(None,), reps=None):
    """Parameter blocks at `times` as per-field arrays, checked in one pass.

    A field in `drifts` takes its callable's value at each time, the only
    call made once per block; the block repetitions are `reps` (default:
    params' own), and every other field is params', filled in one call.
    Backgrounds are a number array, or an object array when some block's
    background is a callable of tau; an undrifted callable is one object
    seen by every block (stride 0): checked once, called once at tau and at 0.
    The first drifted block out of the domain raises, naming its time and
    field.
    """
    drifts = drifts or {}
    _check_drift_fields(drifts)
    columns = {name: np.full(len(times), getattr(params, name)) for name in _DRIFTABLE}
    if callable(params.background):
        columns["background"] = np.broadcast_to(np.array(params.background), len(times))
    columns.update({name: np.array([fn(t) for t in times]) for name, fn in drifts.items()})
    blocks = SimpleNamespace(
        **columns,
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
    backgrounds must be all constants or all callables.  Rates may be
    arrays that broadcast against tau, which extends the delay axes.
    Each block's value is the same however many delays and blocks are
    evaluated with it, bit for bit.
    """
    [four] = _four_counts([measurement], tau, rates, blocks)
    return np.stack(np.broadcast_arrays(*four), axis=-1)


def _four_counts(measurements, tau, rates, blocks):
    """Per measurement, its four counts in expected_signals' column order, from one
    _signal_counts call over the distinct signals: shapes as _signal_counts'.
    `blocks` is one SignalParams or a stack from `_stack_blocks`."""
    if isinstance(blocks, SignalParams):
        blocks = _stack_blocks(blocks)
    signals = list(dict.fromkeys(s for m in measurements for s in (m.first, m.second)))
    counts = dict(zip(signals, _signal_counts(signals, tau, rates, blocks)))
    pairs = ((counts[m.first], counts[m.second]) for m in measurements)
    return [(first[0], second[0], first[1], second[1]) for first, second in pairs]


def _dot3(a, b):
    """a . b over a last axis of length 3, term by term in index order, so
    that each block's value does not depend on how many are stacked."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def _signal_counts(signals, tau, rates, blocks):
    """Per (prep, read) signal, its expected counts at tau and at tau = 0.

    With P(tau) = J/3 + e_fast u u^T/|u|^2 + e_slow w w^T/|w|^2
    (rates._eigenvectors), a signal's bare count c B_read P(tau) B_prep s
    is k0 + k1 e_fast + k2 e_slow, with per-block coefficients
    k1 = (c B_read . u)(u . B_prep s)/|u|^2, k2 likewise with w and k0 with
    (1, 1, 1), whose squared norm is 3.  The tau = 0 count is the chain
    through the identity, c B_read B_prep s, and delays equal to 0 take
    that value.
    Shapes: broadcast(tau, rates) + (blocks,) at tau, (blocks,) at 0.
    """
    delays = _check_tau(tau)
    terms = _rate_terms(rates)
    e_fast, e_slow = (e[..., None] for e in _decays(delays, terms))
    # The three projectors' vectors and squared norms, J/3 being (1, 1, 1)'s;
    # each rate pair's vector as one row against the blocks' rows.
    modes = [(np.ones(3), 3.0)] + [
        (v[..., None, :], n2[..., None]) for v, n2 in _eigenvectors(terms.gp, terms.gm, terms.g)
    ]
    # One row per block, moved to the last axis beside the delay axes; a
    # background every block shares (stride 0) is one row that broadcasts.
    background = blocks.background
    if background.dtype == object:
        background = background[:1] if background.strides == (0,) else background
        background_tau, background_zero = (
            np.moveaxis(np.array([b(t) if callable(b) else b for b in background], float), 0, -1)
            for t in (tau, 0.0)
        )
    else:
        background_tau = background_zero = blocks.background.astype(float, copy=False)
    pumped = prep_vector(blocks)[:, :, None]
    yields = collection_vector(blocks)[:, None, :]
    zero = (delays == 0.0)[..., None]
    out = []
    for prep, read in signals:
        start = (pulse_matrix(prep, blocks) @ pumped)[:, :, 0]
        finish = yields @ pulse_matrix(read, blocks)
        at_zero = blocks.repetitions_R * ((finish @ start[:, :, None])[:, 0, 0] + background_zero)
        finish = finish[:, 0, :]
        k0, k1, k2 = (_dot3(finish, v) * _dot3(start, v) / norm2 for v, norm2 in modes)
        at_tau = blocks.repetitions_R * (k0 + k1 * e_fast + k2 * e_slow + background_tau)
        if zero.any():
            at_tau = np.where(zero, at_zero, at_tau)
        out.append((at_tau, at_zero))
    return out


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
    parameters, which is the interleaving that cancels slow drift.  A
    non-finite t_start, or a negative or non-finite duration_s, raises a
    ValueError before any draw, as a block_reps that is not a positive
    integer does.

    Block b's time is t_start + (b + 0.5) / n_blocks * duration_s, passed
    to each drift callable as a Python float; those calls, and a callable
    background's, are the only ones made once per block.  The block times,
    repetitions and undrifted fields are built as arrays, and the drifted
    values are checked in one pass, before any draw: the first block outside
    the parameter domain raises a ValueError naming its time and first
    failing field.  `expected_signals` then evaluates all blocks at once, and
    one Poisson draw over the (blocks, 4) means consumes the generator in
    block-major order.  Static parameters are the one-block case.
    """
    means, _ = _block_means(
        measurement, tau, rates, params, drifts, t_start, duration_s, block_reps
    )
    return _draw(means, rng)


def _draw(means, rng):
    """One acquisition's four counts: one Poisson draw over its (blocks, 4)
    expected counts, in block-major order, summed over the blocks."""
    return rng.poisson(means).sum(axis=0)


def _block_means(
    measurement, tau, rates, params, drifts, t_start, duration_s, block_reps=_BLOCK_REPS
):
    """sample_signals' (blocks, 4) expected counts, checked nonnegative, and their totals."""
    _check_positive_int(block_reps, "block_reps")
    if not math.isfinite(t_start):
        raise ValueError("t_start must be finite")
    if not 0.0 <= duration_s < math.inf:
        raise ValueError("duration_s must be nonnegative and finite")
    if drifts is None:
        times, blocks = [None], params
    else:
        total_r = params.repetitions_R
        n_blocks = math.ceil(total_r / block_reps)
        b = np.arange(n_blocks)
        times = (t_start + (b + 0.5) / n_blocks * duration_s).tolist()
        reps = np.minimum(block_reps, total_r - b * block_reps)
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
