"""Simulated relaxometry runs: adaptive loop, fixed-sweep baseline, speedups.

The adaptive loop iterates delay selection (grid cost minimization, or a
particle-cloud utility), four-signal acquisition per branch, ratio
estimation, and a Bayesian grid update.  The non-adaptive baseline cycles a
fixed delay list, accumulates counts per delay, and recomputes its
posterior from the aggregates after every sweep using the very same
estimator and inference calls.  The speedup study pairs replicate
ensembles of the two arms and reports how much longer the fixed sweep
needs to match the adaptive final uncertainty.

Delays are milliseconds, rates 1/ms, wall-clock seconds throughout.
"""

from __future__ import annotations

import json
from dataclasses import astuple, dataclass

import numpy as np

from .design import (
    DelayGrid,
    DelayPair,
    ParticleCloud,
    TimingModel,
    nob_select_delays,
    pf_select_delays,
)
from .estimator import EstimationError, measurement_estimate
from .posterior import (
    DEFAULT_BOUNDS,
    GRID_SIZE,
    MeasurementPair,
    PosteriorMoments,
    UpdateRejected,
    bayes_update,
    initial_grid,
    moments,
    regrid,
)
from .protocols import measurement_curves
from .rates import RatePair
from .signals import (
    FourSignals,
    ProtocolSpec,
    ROBUST_PROTOCOL,
    SignalParams,
    _block_means,
    _check_drift_fields,
    sample_signals,
)

__all__ = [
    "NAP_DEFAULT_DELAYS",
    "OPTIMIZERS",
    "ExperimentConfig",
    "IterationRecord",
    "TracePoint",
    "RunRecord",
    "run_adaptive",
    "run_nap",
    "replicate_seeds",
    "time_to_reach",
    "sigma_trace_slope",
    "SpeedupPoint",
    "SpeedupStudy",
    "speedup_study",
]

OPTIMIZERS = ("nob", "pf", "nap")

# Fixed-sweep default: 20 log-spaced delays, 3 microseconds to 5.5 ms.
NAP_DEFAULT_DELAYS = tuple(np.geomspace(3e-3, 5.5, 20))


def _is_integer(value):
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one simulated run depends on.

    `iterations` counts adaptive iterations, or full sweeps for the "nap"
    optimizer.  `nap_delays` entries are scalars (both branches at that
    delay) or (tau_plus, tau_minus) pairs; scalar lists must be strictly
    increasing, pair lists are taken in the given acquisition order.
    `drifts` maps SignalParams field names to callables of wall-clock
    seconds.  `selector_overhead_s` is the deterministic per-iteration CPU
    charge recorded in the run.
    """

    true_rates: RatePair
    params: SignalParams = SignalParams()
    protocol: ProtocolSpec = ROBUST_PROTOCOL
    optimizer: str = "nob"
    iterations: int = 30
    nap_delays: tuple = ()
    delay_grid: object = None
    prior_bounds: tuple = DEFAULT_BOUNDS
    grid_size: int = GRID_SIZE
    timing: object = None
    seed: int = 0
    noiseless: bool = False
    drifts: object = None
    particle_count: int = 20000
    selector_overhead_s: float = 0.0

    def __post_init__(self):
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"optimizer must be one of {OPTIMIZERS}")
        if not (_is_integer(self.iterations) and self.iterations >= 0):
            raise ValueError("iterations must be a nonnegative integer")
        if not (_is_integer(self.grid_size) and self.grid_size >= 2):
            raise ValueError("grid_size must be an integer of at least 2")
        if not (_is_integer(self.particle_count) and self.particle_count >= 1):
            raise ValueError("particle_count must be a positive integer")
        if not (_is_integer(self.seed) and self.seed >= 0):
            raise ValueError("seed must be a nonnegative integer")
        lo, hi = self.prior_bounds
        if not (0.0 < lo < hi):
            raise ValueError("prior_bounds must satisfy 0 < lo < hi")
        if self.optimizer == "nap" and len(self.nap_delays) == 0:
            raise ValueError("the nap optimizer needs a nonempty nap_delays list")
        if self.nap_delays:
            scalars = [d for d in self.nap_delays if np.ndim(d) == 0]
            if len(scalars) == len(self.nap_delays):
                values = np.asarray(scalars, dtype=float)
                if np.any(values <= 0.0) or np.any(np.diff(values) <= 0.0):
                    raise ValueError("scalar nap_delays must be positive and strictly increasing")
        if not 0.0 <= self.selector_overhead_s < np.inf:
            raise ValueError("selector_overhead_s must be finite and nonnegative")
        _check_drift_fields(self.drifts)

    def resolved_timing(self):
        if self.timing is not None:
            return self.timing
        return TimingModel(repetitions_R=self.params.repetitions_R)

    def resolved_delay_grid(self):
        return self.delay_grid if self.delay_grid is not None else DelayGrid.default()

    def nap_delay_pairs(self):
        pairs = []
        for d in self.nap_delays:
            if np.ndim(d) == 0:
                pairs.append(DelayPair(tau_plus=float(d), tau_minus=float(d)))
            else:
                tp, tm = d
                pairs.append(DelayPair(tau_plus=float(tp), tau_minus=float(tm)))
        return pairs


@dataclass(frozen=True)
class IterationRecord:
    """One acquisition: chosen delays, estimate, posterior state, clocks."""

    index: int
    delays: DelayPair
    measurement: object
    flagged: bool
    mean_plus: float
    mean_minus: float
    sigma_plus: float
    sigma_minus: float
    duration_s: float
    cpu_overhead_s: float
    cumulative_time_s: float
    cumulative_physical_s: float

    def to_json_dict(self):
        m = self.measurement
        return {
            "iteration": self.index,
            "tau_plus_ms": self.delays.tau_plus,
            "tau_minus_ms": self.delays.tau_minus,
            "m_plus": None if m is None else m.m_plus,
            "m_minus": None if m is None else m.m_minus,
            "sigma_m_plus": None if m is None else m.sigma_plus,
            "sigma_m_minus": None if m is None else m.sigma_minus,
            "flagged": self.flagged,
            "gamma_plus_mean_per_ms": self.mean_plus,
            "gamma_minus_mean_per_ms": self.mean_minus,
            "gamma_plus_sigma_per_ms": self.sigma_plus,
            "gamma_minus_sigma_per_ms": self.sigma_minus,
            "duration_s": self.duration_s,
            "cpu_overhead_s": self.cpu_overhead_s,
            "cumulative_time_s": self.cumulative_time_s,
            "cumulative_physical_s": self.cumulative_physical_s,
        }


@dataclass(frozen=True)
class TracePoint:
    """Posterior width after one completed update, against both clocks."""

    time_s: float
    physical_s: float
    sigma_plus: float
    sigma_minus: float


@dataclass(frozen=True)
class RunRecord:
    optimizer: str
    iterations: tuple
    trace_points: tuple
    final: PosteriorMoments
    posterior: object
    total_time_s: float
    total_physical_s: float
    delay_time_s: float
    flagged_count: int

    def __post_init__(self):
        clocks = [r.cumulative_time_s for r in self.iterations]
        if any(b <= a for a, b in zip(clocks, clocks[1:])):
            raise ValueError("cumulative times must be strictly increasing")

    @property
    def duty_cycle(self):
        """Fraction of the total wall clock spent in relaxation delays."""
        if self.total_time_s == 0.0:
            return 0.0
        return self.delay_time_s / self.total_time_s

    def trace(self, with_overhead=True):
        """(times_s, sigma_plus, sigma_minus) arrays over completed updates."""
        times = np.array(
            [p.time_s if with_overhead else p.physical_s for p in self.trace_points]
        )
        sp = np.array([p.sigma_plus for p in self.trace_points])
        sm = np.array([p.sigma_minus for p in self.trace_points])
        return times, sp, sm

    def to_jsonl(self):
        lines = [json.dumps(r.to_json_dict()) for r in self.iterations]
        return "\n".join(lines) + ("\n" if lines else "")

    def summary_dict(self):
        return {
            "optimizer": self.optimizer,
            "iterations": len(self.iterations),
            "flagged": self.flagged_count,
            "gamma_plus_mean_per_ms": self.final.mean_plus,
            "gamma_minus_mean_per_ms": self.final.mean_minus,
            "gamma_plus_sigma_per_ms": self.final.sigma_plus,
            "gamma_minus_sigma_per_ms": self.final.sigma_minus,
            "covariance_per_ms2": self.final.covariance,
            "total_time_s": self.total_time_s,
            "total_physical_s": self.total_physical_s,
            "delay_time_s": self.delay_time_s,
            "duty_cycle": self.duty_cycle,
        }


def _acquire_four(config, measurement, tau, rng, t_start, duration_s):
    """One acquisition's four signals; a noiseless run takes the expectations as counts."""
    args = (measurement, tau, config.true_rates, config.params)
    if config.noiseless:
        expectations = _block_means(*args, config.drifts, t_start, duration_s)[1].tolist()
        return FourSignals.of(measurement, tau, expectations, expectations)
    return sample_signals(*args, rng, config.drifts, t_start, duration_s)


def _estimate_pair(four_plus, four_minus, delays):
    est_plus = measurement_estimate(four_plus)
    est_minus = measurement_estimate(four_minus)
    return MeasurementPair(
        m_plus=est_plus.m_bar,
        m_minus=est_minus.m_bar,
        sigma_plus=est_plus.sigma_m,
        sigma_minus=est_minus.sigma_m,
        tau_plus=delays.tau_plus,
        tau_minus=delays.tau_minus,
    )


class _Ledger:
    """Clocks and records of one run, shared by both runners.

    `t_physical` sums acquisition durations and `t_delay` their relaxation
    delays; `t_total` adds the selector CPU charged on top, per acquisition
    through `log` or, in a fixed-sweep run, once per posterior rebuild.  The
    runner keeps `flagged_count`: flagged iterations of an adaptive run,
    unusable aggregates per sweep of a fixed-sweep run.
    """

    def __init__(self, timing):
        self.timing = timing
        self.records = []
        self.trace = []
        self.t_total = 0.0
        self.t_physical = 0.0
        self.t_delay = 0.0
        self.flagged_count = 0

    def acquire(self, config, plus, minus, delays, rng):
        """Sample both branches back to back from the current physical time.

        Each branch takes its own delays plus half the fixed time.  Sampling
        happens for both branches before any estimation so the random stream
        advances identically whether or not an estimate fails.
        """
        start = self.t_physical
        d_plus = self.timing.branch_seconds(delays.tau_plus)
        d_minus = self.timing.branch_seconds(delays.tau_minus)
        four_plus = _acquire_four(config, plus, delays.tau_plus, rng, start, d_plus)
        four_minus = _acquire_four(config, minus, delays.tau_minus, rng, start + d_plus, d_minus)
        return four_plus, four_minus

    def log(self, delays, pair, flagged, state, cpu=0.0):
        """Advance the clocks by one acquisition and record it with `state`."""
        duration = float(self.timing.duration_seconds(delays.tau_plus, delays.tau_minus))
        self.t_physical += duration
        self.t_total += duration + cpu
        self.t_delay += float(self.timing.delay_seconds(delays.tau_plus, delays.tau_minus))
        self.records.append(
            IterationRecord(
                index=len(self.records),
                delays=delays,
                measurement=pair,
                flagged=flagged,
                mean_plus=state.mean_plus,
                mean_minus=state.mean_minus,
                sigma_plus=state.sigma_plus,
                sigma_minus=state.sigma_minus,
                duration_s=duration,
                cpu_overhead_s=cpu,
                cumulative_time_s=self.t_total,
                cumulative_physical_s=self.t_physical,
            )
        )

    def mark(self, state):
        """Trace the posterior width of a completed update at both clocks."""
        self.trace.append(
            TracePoint(
                time_s=self.t_total,
                physical_s=self.t_physical,
                sigma_plus=state.sigma_plus,
                sigma_minus=state.sigma_minus,
            )
        )

    def run_record(self, optimizer, posterior, state):
        """The finished run; `state` is the moments of the final `posterior`."""
        return RunRecord(
            optimizer=optimizer,
            iterations=tuple(self.records),
            trace_points=tuple(self.trace),
            final=state,
            posterior=posterior,
            total_time_s=self.t_total,
            total_physical_s=self.t_physical,
            delay_time_s=self.t_delay,
            flagged_count=self.flagged_count,
        )


def run_adaptive(config):
    """Adaptive estimation run; returns the full per-iteration RunRecord.

    Each iteration selects delays from the current posterior, acquires the
    four signals of both branches, folds the ratio estimates into the
    posterior, and regrids.  A failed estimate or rejected update flags the
    iteration and leaves the posterior unchanged.  A drift schedule that
    leaves the SignalParams domain aborts the run with a ValueError naming
    the block time and the violated field.
    """
    if config.optimizer not in ("nob", "pf"):
        raise ValueError("run_adaptive needs optimizer 'nob' or 'pf'")
    rng = np.random.default_rng(config.seed)
    timing = config.resolved_timing()
    grid_spec = config.resolved_delay_grid()
    curves = measurement_curves(config.protocol)
    posterior = initial_grid(bounds=config.prior_bounds, size=config.grid_size)
    plus = config.protocol.plus.oriented(config.params)
    minus = config.protocol.minus.oriented(config.params)

    ledger = _Ledger(timing)
    state = moments(posterior)
    for _ in range(config.iterations):
        if config.optimizer == "nob":
            delays = nob_select_delays(state, timing, curves, grid_spec)
        else:
            cloud = ParticleCloud.from_grid(posterior, config.particle_count, rng)
            delays = pf_select_delays(cloud, timing, curves, grid_spec)

        four_plus, four_minus = ledger.acquire(config, plus, minus, delays, rng)
        pair = None
        flagged = False
        try:
            pair = _estimate_pair(four_plus, four_minus, delays)
            posterior = regrid(bayes_update(posterior, pair, curves.pair_value), config.grid_size)
        except (EstimationError, UpdateRejected):
            flagged = True
            ledger.flagged_count += 1

        state = moments(posterior)
        ledger.log(delays, pair, flagged, state, cpu=config.selector_overhead_s)
        if not flagged:
            ledger.mark(state)
    return ledger.run_record(config.optimizer, posterior, state)


class _Aggregate:
    """Per-delay accumulated counts and expectations for one branch."""

    def __init__(self, measurement, tau):
        self.measurement = measurement
        self.tau = tau
        self.counts = [0.0, 0.0, 0.0, 0.0]
        self.expectations = [0.0, 0.0, 0.0, 0.0]

    def add(self, four):
        for k, sample in enumerate(four.as_tuple()):
            self.counts[k] += sample.counts
            self.expectations[k] += sample.expectation

    def four_signals(self):
        return FourSignals.of(self.measurement, self.tau, self.counts, self.expectations)


def run_nap(config, stop_sigma=None, max_physical_s=None):
    """Fixed-list run: sweep, accumulate, recompute from aggregates.

    After each sweep the posterior is rebuilt from a fresh prior by folding
    in one aggregate measurement pair per delay, in list order, through the
    same update and regrid calls as the adaptive loop; with zero sweeps the
    prior is returned unchanged.  `stop_sigma` (pair) ends the run early
    once both posterior widths drop below it; `max_physical_s` caps the
    accumulated acquisition time.  Delays carrying an unusable aggregate
    (zero counts) are skipped and counted as flagged for that sweep.
    """
    if config.optimizer != "nap":
        raise ValueError("run_nap needs optimizer 'nap'")
    rng = np.random.default_rng(config.seed)
    curves = measurement_curves(config.protocol)
    plus = config.protocol.plus.oriented(config.params)
    minus = config.protocol.minus.oriented(config.params)
    pairs = config.nap_delay_pairs()
    aggregates = [
        (_Aggregate(plus, d.tau_plus), _Aggregate(minus, d.tau_minus)) for d in pairs
    ]

    posterior = initial_grid(bounds=config.prior_bounds, size=config.grid_size)
    ledger = _Ledger(config.resolved_timing())
    state = moments(posterior)
    for _ in range(config.iterations):
        for (agg_plus, agg_minus), delays in zip(aggregates, pairs):
            four_plus, four_minus = ledger.acquire(config, plus, minus, delays, rng)
            agg_plus.add(four_plus)
            agg_minus.add(four_minus)
            try:
                probe = _estimate_pair(four_plus, four_minus, delays)
            except EstimationError:
                probe = None
            ledger.log(delays, probe, probe is None, state)

        rebuilt = initial_grid(bounds=config.prior_bounds, size=config.grid_size)
        for agg_plus, agg_minus in aggregates:
            try:
                pair = _estimate_pair(
                    agg_plus.four_signals(),
                    agg_minus.four_signals(),
                    DelayPair(tau_plus=agg_plus.tau, tau_minus=agg_minus.tau),
                )
                rebuilt = regrid(bayes_update(rebuilt, pair, curves.pair_value), config.grid_size)
            except (EstimationError, UpdateRejected):
                ledger.flagged_count += 1
        posterior = rebuilt
        ledger.t_total += config.selector_overhead_s
        state = moments(posterior)
        ledger.mark(state)
        if stop_sigma is not None and (
            state.sigma_plus <= stop_sigma[0] and state.sigma_minus <= stop_sigma[1]
        ):
            break
        if max_physical_s is not None and ledger.t_physical >= max_physical_s:
            break
    return ledger.run_record(config.optimizer, posterior, state)


def replicate_seeds(base_seed, count):
    """Independent child seeds for parallel-safe replicate streams."""
    seq = np.random.SeedSequence(base_seed)
    return [int(child.generate_state(1)[0]) for child in seq.spawn(count)]


def time_to_reach(record, target_plus, target_minus, with_overhead=False):
    """Earliest times at which each posterior width reaches its target.

    Uses the running-minimum envelope of the sigma trace with log-log
    interpolation between points, and a 1/sqrt(T) extrapolation before the
    first point.  Returns ((t_plus, reached_plus), (t_minus, reached_minus));
    an unreached target reports the last trace time with reached = False.
    """
    times, sp, sm = record.trace(with_overhead=with_overhead)
    if times.size == 0:
        raise ValueError("record carries no completed updates")
    out = []
    for sigma, target in ((sp, target_plus), (sm, target_minus)):
        envelope = np.minimum.accumulate(sigma)
        if target >= envelope[0]:
            out.append((float(times[0] * (envelope[0] / target) ** 2), True))
            continue
        below = np.nonzero(envelope <= target)[0]
        if below.size == 0:
            out.append((float(times[-1]), False))
            continue
        k = int(below[0])
        t_hi, e_hi = times[k], envelope[k]
        t_lo, e_lo = times[k - 1], envelope[k - 1]
        if e_hi == e_lo:
            out.append((float(t_hi), True))
            continue
        frac = (np.log(target) - np.log(e_lo)) / (np.log(e_hi) - np.log(e_lo))
        out.append((float(np.exp(np.log(t_lo) + frac * (np.log(t_hi) - np.log(t_lo)))), True))
    return out[0], out[1]


def sigma_trace_slope(record, branch="+", decades=1.0, with_overhead=False):
    """Log-log slope of the posterior width trace over its final decade(s)."""
    times, sp, sm = record.trace(with_overhead=with_overhead)
    sigma = sp if branch == "+" else sm
    if times.size < 3:
        raise ValueError("need at least three trace points to fit a slope")
    keep = times >= times[-1] / 10.0 ** decades
    if keep.sum() < 3:
        keep = np.ones_like(times, dtype=bool)
    slope = np.polyfit(np.log(times[keep]), np.log(sigma[keep]), 1)[0]
    return float(slope)


@dataclass(frozen=True)
class SpeedupPoint:
    """Paired-ensemble speedup statistics at one true rate pair."""

    gamma_plus_per_ms: float
    gamma_minus_per_ms: float
    mean_plus: float
    std_plus: float
    mean_minus: float
    std_minus: float
    pairings: int
    lower_bound_pairings: int


@dataclass(frozen=True)
class SpeedupStudy:
    points: tuple
    replicates: int

    COLUMNS = (
        "gamma_plus_per_ms",
        "gamma_minus_per_ms",
        "speedup_plus_mean",
        "speedup_plus_std",
        "speedup_minus_mean",
        "speedup_minus_std",
        "pairings",
        "lower_bound_pairings",
    )

    @property
    def table(self):
        """One tuple per point, in COLUMNS order."""
        return tuple(astuple(p) for p in self.points)


def speedup_study(
    rate_pairs,
    params=None,
    replicates=30,
    adaptive_iterations=20,
    nap_delays=NAP_DEFAULT_DELAYS,
    adaptive_grid=None,
    prior_bounds=DEFAULT_BOUNDS,
    grid_size=GRID_SIZE,
    budget_factor=64.0,
    seed=0,
):
    """Paired adaptive-vs-fixed ensemble study over true rate pairs.

    For each rate pair, runs `replicates` adaptive and fixed-sweep
    replicates with independent seed streams, then compares every pairing:
    the fixed arm's interpolated time to reach the adaptive run's final
    widths, over the adaptive run's total time.  The fixed arm stops early
    once it beats the easiest target comfortably and is capped at
    `budget_factor` times the longest adaptive run; pairings that never
    reach their target within the cap are reported at the cap and counted
    as lower bounds.  Physical acquisition time only; selector CPU is
    excluded on both arms.
    """
    if params is None:
        params = SignalParams()
    if replicates < 2:
        raise ValueError("need at least two replicates per arm")
    if adaptive_grid is None:
        # wide selection range so slow rates stay optimally measurable
        adaptive_grid = DelayGrid.wide()
    rate_pairs = [(float(a), float(b)) for a, b in rate_pairs]
    points = []
    seeds = replicate_seeds(seed, 2 * replicates * len(rate_pairs))
    seed_iter = iter(seeds)
    for gp, gm in rate_pairs:
        rates = RatePair(float(gp), float(gm))
        adaptive_runs = []
        for _ in range(replicates):
            cfg = ExperimentConfig(
                true_rates=rates,
                params=params,
                optimizer="nob",
                iterations=adaptive_iterations,
                delay_grid=adaptive_grid,
                prior_bounds=prior_bounds,
                grid_size=grid_size,
                seed=next(seed_iter),
            )
            adaptive_runs.append(run_adaptive(cfg))
        targets = [(r.final.sigma_plus, r.final.sigma_minus) for r in adaptive_runs]
        tightest = (min(t[0] for t in targets), min(t[1] for t in targets))
        budget = budget_factor * max(r.total_physical_s for r in adaptive_runs)

        nap_runs = []
        for _ in range(replicates):
            cfg = ExperimentConfig(
                true_rates=rates,
                params=params,
                optimizer="nap",
                iterations=10 ** 9,  # capped by budget / stop rule below
                nap_delays=tuple(nap_delays),
                prior_bounds=prior_bounds,
                grid_size=grid_size,
                seed=next(seed_iter),
            )
            nap_runs.append(
                run_nap(
                    cfg,
                    stop_sigma=(0.95 * tightest[0], 0.95 * tightest[1]),
                    max_physical_s=budget,
                )
            )

        speedups_plus = []
        speedups_minus = []
        lower_bounds = 0
        for adaptive in adaptive_runs:
            for nap in nap_runs:
                (t_plus, ok_plus), (t_minus, ok_minus) = time_to_reach(
                    nap, adaptive.final.sigma_plus, adaptive.final.sigma_minus
                )
                if not (ok_plus and ok_minus):
                    lower_bounds += 1
                speedups_plus.append(t_plus / adaptive.total_physical_s)
                speedups_minus.append(t_minus / adaptive.total_physical_s)
        points.append(
            SpeedupPoint(
                gamma_plus_per_ms=rates.gamma_plus,
                gamma_minus_per_ms=rates.gamma_minus,
                mean_plus=float(np.mean(speedups_plus)),
                std_plus=float(np.std(speedups_plus, ddof=1)),
                mean_minus=float(np.mean(speedups_minus)),
                std_minus=float(np.std(speedups_minus, ddof=1)),
                pairings=len(speedups_plus),
                lower_bound_pairings=lower_bounds,
            )
        )
    return SpeedupStudy(points=tuple(points), replicates=replicates)
