"""Simulated relaxometry runs: adaptive loop, fixed-sweep baseline, speedups.

The adaptive loop iterates delay selection (grid cost minimization, or a
particle-cloud utility), four-signal acquisition per branch, ratio
estimation, and a Bayesian grid update.  The non-adaptive baseline cycles a
fixed delay list, accumulates counts per delay, and recomputes its
posterior from the aggregates after every sweep using the very same
estimator and inference calls.  Each rebuild starts again from the prior,
so the baseline rebuilds two sweeps' posteriors at once: the caller one,
one worker thread the other (`design._two_halves`, the helper the particle
selector splits its delay blocks with).  The speedup study pairs replicate
ensembles of the two arms and reports how much longer the fixed sweep
needs to match the adaptive final uncertainty.

Both runners build one run context, `_Run`, and share its steps.
`acquire` draws both branches' counts from the start time it is given;
without drift it computes each (measurement, delay)'s expected counts once
per run and draws every acquisition at that delay from them.
`_estimate_pairs` estimates a whole stack of acquisitions or aggregates in
one vectorized call: an adaptive iteration's two branches, a fixed sweep's
probes, a rebuild's aggregates.  `fold` updates the posterior with one
estimated pair and regrids it in the workspace it is given, and writes
nothing else, so two threads can fold at once, each in its own workspace;
the runner counts the flags.  `log` records an acquisition, the one step
that advances the clocks, and `mark` traces a completed update at them.

Delays are milliseconds, rates 1/ms, wall-clock seconds throughout.
"""

from __future__ import annotations

import json
from dataclasses import astuple, dataclass, replace

import numpy as np

from .design import (
    DEFAULT_GRID,
    DelayGrid,
    DelayPair,
    ParticleCloud,
    TimingModel,
    _check_positive_int,
    _is_int,
    _two_halves,
    nob_select_delays,
    pf_select_delays,
)
from .estimator import _estimates
from .posterior import (
    DEFAULT_BOUNDS,
    GRID_SIZE,
    MeasurementPair,
    PosteriorMoments,
    UpdateRejected,
    _Workspace,
    bayes_update,
    initial_grid,
    moments,
    regrid,
)
from .protocols import measurement_curves
from .rates import BRANCHES, RatePair
from .signals import (
    ProtocolSpec,
    ROBUST_PROTOCOL,
    SignalParams,
    _block_means,
    _check_drift_fields,
    _draw,
    sample_signals,
)

__all__ = [
    "NAP_DEFAULT_DELAYS",
    "OPTIMIZERS",
    "SPEEDUP_PARAMS",
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

# Fixed-sweep default: 20 log-spaced delays over the default grid's span.
NAP_DEFAULT_DELAYS = tuple(DelayGrid.default(20).taus)

# The speedup study's acquisition: default parameters at R = 1e5.
SPEEDUP_PARAMS = SignalParams(repetitions_R=10**5)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one simulated run depends on.

    `iterations` counts adaptive iterations, or full sweeps for the "nap"
    optimizer.  `nap_delays` entries are scalars (both branches at that
    delay) or (tau_plus, tau_minus) pairs; scalar lists must be strictly
    increasing, pair lists are taken in the given acquisition order.
    `delay_grid` is the selectors' candidate grid; `prior_bounds` need 0 < lo < hi < inf.
    `timing` (default: TimingModel at params' repetitions_R) must count
    params' repetitions.  `drifts` maps SignalParams field names to
    callables of wall-clock seconds.  `selector_overhead_s` is the
    deterministic per-iteration CPU charge recorded in the run.
    """

    true_rates: RatePair
    params: SignalParams = SignalParams()
    protocol: ProtocolSpec = ROBUST_PROTOCOL
    optimizer: str = "nob"
    iterations: int = 30
    nap_delays: tuple = ()
    delay_grid: DelayGrid = DEFAULT_GRID
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
        if not (_is_int(self.iterations) and self.iterations >= 0):
            raise ValueError("iterations must be a nonnegative integer")
        if not (_is_int(self.grid_size) and self.grid_size >= 2):
            raise ValueError("grid_size must be an integer of at least 2")
        _check_positive_int(self.particle_count, "particle_count")
        if not (_is_int(self.seed) and self.seed >= 0):
            raise ValueError("seed must be a nonnegative integer")
        lo, hi = self.prior_bounds
        if not (0.0 < lo < hi < np.inf):
            raise ValueError("prior_bounds must satisfy 0 < lo < hi < inf")
        if self.optimizer == "nap" and len(self.nap_delays) == 0:
            raise ValueError("the nap optimizer needs a nonempty nap_delays list")
        if self.nap_delays:
            scalars = [d for d in self.nap_delays if np.ndim(d) == 0]
            if len(scalars) == len(self.nap_delays):
                values = np.asarray(scalars, dtype=float)
                if np.any(values <= 0.0) or np.any(np.diff(values) <= 0.0):
                    raise ValueError("scalar nap_delays must be positive and strictly increasing")
        self.nap_delay_pairs()  # every entry a positive delay or pair, before any run
        if not 0.0 <= self.selector_overhead_s < np.inf:
            raise ValueError("selector_overhead_s must be finite and nonnegative")
        _check_drift_fields(self.drifts)
        if self.timing is not None and self.timing.repetitions_R != self.params.repetitions_R:
            raise ValueError("timing.repetitions_R must equal params.repetitions_R")

    def nap_delay_pairs(self):
        """One DelayPair per nap_delays entry; a scalar sets both branches."""
        pairs = []
        for d in self.nap_delays:
            taus = np.asarray(d, dtype=float)
            if taus.shape not in ((), (2,)):
                raise ValueError(
                    f"nap_delays entries must be a delay or a (tau_plus, tau_minus) pair, got {d!r}"
                )
            tau_plus, tau_minus = np.broadcast_to(taus, (2,)).tolist()
            pairs.append(DelayPair(tau_plus=tau_plus, tau_minus=tau_minus))
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


def _estimate_pairs(counts, delays):
    """One MeasurementPair per (2, 4) row of `counts` and its DelayPair, from
    one _estimates call; None where either branch cannot be estimated."""
    fields, usable = _estimates(counts)
    m, sigma = (f.reshape(-1, 2).tolist() for f in fields[:2])
    return [
        MeasurementPair(*mi, *si, d.tau_plus, d.tau_minus) if ok else None
        for mi, si, d, ok in zip(m, sigma, delays, usable.reshape(-1, 2).all(axis=1))
    ]


class _Run:
    """One run's state, from its random generator to its records, and the
    acquisition and fold steps both runners share.

    `t_physical` sums logged acquisition durations and `t_delay` their
    relaxation delays; `t_total` adds the selector CPU charged on top, per
    acquisition through `log` or, in a fixed-sweep run, once per posterior
    rebuild; no clock is ever set back.  The runners count `flagged_count`:
    flagged iterations of an adaptive run, unusable aggregates per sweep of
    a fixed-sweep run.  `workspace` is the caller's fold workspace.
    """

    def __init__(self, config):
        self.config = config
        self.rng = np.random.default_rng(config.seed)
        self.timing = config.timing or TimingModel(config.params.repetitions_R)
        self.curves = measurement_curves(config.protocol)
        self.prior = initial_grid(bounds=config.prior_bounds, size=config.grid_size)
        self.plus = config.protocol.plus.oriented()
        self.minus = config.protocol.minus.oriented()
        self.workspace = _Workspace()
        self._static = {}
        self.records = []
        self.trace = []
        self.t_total = 0.0
        self.t_physical = 0.0
        self.t_delay = 0.0
        self.flagged_count = 0

    def acquire(self, delays, start):
        """Sample both branches back to back from physical time `start`.

        Each branch takes its own delays plus half the fixed time.  Sampling
        happens for both branches before any estimation so the random stream
        advances identically whether or not an estimate fails.
        """
        d_plus = self.timing.branch_seconds(delays.tau_plus)
        d_minus = self.timing.branch_seconds(delays.tau_minus)
        return (
            self.four(self.plus, delays.tau_plus, start, d_plus),
            self.four(self.minus, delays.tau_minus, start + d_plus, d_minus),
        )

    def four(self, measurement, tau, t_start, duration_s):
        """One acquisition's four counts; a noiseless run takes the expected totals as counts.

        Without drift the expected counts do not depend on time, so each
        (measurement, delay)'s `_block_means` are computed at its first
        acquisition, kept read-only for the rest of the run, and drawn from
        by `_draw`, as `sample_signals` draws.  With drift every acquisition
        is computed block by block.
        """
        config = self.config
        args = (measurement, tau, config.true_rates, config.params)
        if config.drifts is None:
            key = (measurement, tau)
            if key not in self._static:
                self._static[key] = _block_means(*args, None, t_start, duration_s)
                for a in self._static[key]:
                    a.flags.writeable = False
            means, totals = self._static[key]
        elif config.noiseless:
            means, totals = _block_means(*args, config.drifts, t_start, duration_s)
        else:
            return sample_signals(*args, self.rng, config.drifts, t_start, duration_s)
        return totals if config.noiseless else _draw(means, self.rng)

    def fold(self, grid, pair, workspace):
        """Fold one estimated measurement pair into `grid` in `workspace`: the new grid.

        A pair that could not be estimated (None) or a rejected update
        returns `grid` itself, which the caller counts as a flag.
        """
        if pair is not None:
            try:
                updated = bayes_update(grid, pair, self.curves.pair_value, workspace=workspace)
                return regrid(updated, self.config.grid_size, workspace=workspace)
            except UpdateRejected:
                pass
        return grid

    def duration(self, delays):
        """Seconds one acquisition at `delays` takes."""
        return float(self.timing.duration_seconds(delays.tau_plus, delays.tau_minus))

    def log(self, delays, pair, flagged, state, cpu=0.0):
        """Advance the clocks by one acquisition and `cpu`, and record it with `state`."""
        duration = self.duration(delays)
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
        """Trace the posterior width of a completed update at the run's clocks."""
        self.trace.append(
            TracePoint(
                time_s=self.t_total,
                physical_s=self.t_physical,
                sigma_plus=state.sigma_plus,
                sigma_minus=state.sigma_minus,
            )
        )

    def run_record(self, posterior, state):
        """The finished run; `state` is the moments of the final `posterior`."""
        return RunRecord(
            optimizer=self.config.optimizer,
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
    run = _Run(config)
    posterior = run.prior
    state = moments(posterior)
    for _ in range(config.iterations):
        if config.optimizer == "nob":
            delays = nob_select_delays(state, run.timing, run.curves, config.delay_grid)
        else:
            cloud = ParticleCloud.from_grid(posterior, config.particle_count, run.rng)
            delays = pf_select_delays(cloud, run.timing, run.curves, config.delay_grid)

        (pair,) = _estimate_pairs(run.acquire(delays, run.t_physical), [delays])
        folded = run.fold(posterior, pair, run.workspace)
        flagged = folded is posterior
        run.flagged_count += flagged
        posterior = folded
        state = moments(posterior)
        run.log(delays, pair, flagged, state, config.selector_overhead_s)
        if not flagged:
            run.mark(state)
    return run.run_record(posterior, state)


def run_nap(config, stop_sigma=None, max_physical_s=None):
    """Fixed-list run: sweep, accumulate, recompute from aggregates.

    Each sweep's counts land in one (pairs, 2, 4) float array, a row of four
    counts per branch, and accumulate into running totals; the sweep's
    probes are estimated in one call, and so are the aggregates of each
    rebuild.  After each sweep the posterior is rebuilt from the prior by
    folding in one aggregate measurement pair per delay, in list order,
    through the same fold as the adaptive loop; with zero sweeps the prior
    is returned unchanged.  `stop_sigma` (None or two positive widths) ends
    the run once both posterior widths drop below it; `max_physical_s` (None
    or positive) caps the accumulated acquisition time; both are checked
    before any draw.  Delays carrying an unusable aggregate (zero counts)
    are skipped and counted as flagged for that sweep.

    A rebuild reads only the prior and its own totals, so sweeps are
    rebuilt in pairs: once sweep k is acquired, sweep k + 1 is drawn ahead
    from a local start time, moving no clock, when `iterations` and the cap
    allow it, and `design._two_halves` rebuilds k on the caller and k + 1 on
    one worker thread in its own fold workspace.  Each sweep then commits
    in turn: its probes are logged, its rebuild traced, the stop rule read.
    A drift error drawing sweep k + 1 ahead drops that draw: sweep k is
    rebuilt alone, and sweep k + 1, when due, is drawn again from the same
    start time and raises.  Records, trace and posterior are those of one
    sweep after the other, bit for bit.
    """
    if config.optimizer != "nap":
        raise ValueError("run_nap needs optimizer 'nap'")
    if stop_sigma is not None and not (len(stop_sigma) == 2 and all(s > 0.0 for s in stop_sigma)):
        raise ValueError(f"stop_sigma must be None or two positive numbers, got {stop_sigma!r}")
    if max_physical_s is not None and not max_physical_s > 0.0:
        raise ValueError(f"max_physical_s must be None or positive, got {max_physical_s!r}")
    run = _Run(config)
    pairs = config.nap_delay_pairs()
    # Row 0 holds sweep k and its running totals, row 1 sweep k + 1 drawn ahead.
    sweeps = np.empty((2, len(pairs), 2, 4))
    totals = np.zeros_like(sweeps)
    # Allocated here, on the caller's thread: arrays the worker thread
    # allocates itself raised fixed-sweep peak RSS by about 3 MB.
    worker = _Workspace(config.grid_size)
    posterior = run.prior
    state = moments(posterior)

    def draw(sweep, start):
        """Acquire one sweep into `sweep` from physical time `start`: its end time."""
        for counts, delays in zip(sweep, pairs):
            counts[:] = run.acquire(delays, start)
            start += run.duration(delays)
        return start

    def rebuild(aggregates, workspace):
        """(posterior from the prior and the aggregates, unusable aggregates)."""
        grid, flags = run.prior, 0
        for pair in _estimate_pairs(aggregates, pairs):
            folded = run.fold(grid, pair, workspace)
            flags += folded is grid
            grid = folded
        return grid, flags

    def capped(physical_s):
        return max_physical_s is not None and physical_s >= max_physical_s

    committed = 0
    while committed < config.iterations:
        end = draw(sweeps[0], run.t_physical)
        totals[0] += sweeps[0]
        ahead = None
        if committed + 1 < config.iterations and not capped(end):
            try:
                ahead = draw(sweeps[1], end)
            except ValueError:  # a drift leaving its domain: drawn again when due
                pass
        if ahead is None:
            rebuilt = [rebuild(totals[0], run.workspace)]
        else:
            np.add(totals[0], sweeps[1], out=totals[1])
            rebuilt = _two_halves(
                lambda: rebuild(totals[0], run.workspace), lambda: rebuild(totals[1], worker)
            )
        for sweep, (grid, flags) in zip(sweeps, rebuilt):
            for delays, probe in zip(pairs, _estimate_pairs(sweep, pairs)):
                run.log(delays, probe, probe is None, state)
            run.t_total += config.selector_overhead_s
            run.flagged_count += flags
            posterior, state = grid, moments(grid)
            run.mark(state)
            committed += 1
            stops = stop_sigma is not None and (
                state.sigma_plus <= stop_sigma[0] and state.sigma_minus <= stop_sigma[1]
            )
            if stops or capped(run.t_physical):
                return run.run_record(posterior, state)
        totals[0] = totals[len(rebuilt) - 1]
    return run.run_record(posterior, state)


def replicate_seeds(base_seed, count):
    """Independent child seeds for parallel-safe replicate streams."""
    seq = np.random.SeedSequence(base_seed)
    return [int(child.generate_state(1)[0]) for child in seq.spawn(count)]


def time_to_reach(record, target_plus, target_minus):
    """Earliest physical times at which each posterior width reaches its target.

    Uses the running-minimum envelope of the sigma trace with log-log
    interpolation between points, and a 1/sqrt(T) extrapolation before the
    first point.  Returns ((t_plus, reached_plus), (t_minus, reached_minus));
    an unreached target reports the last trace time with reached = False.
    """
    times, sp, sm = record.trace(with_overhead=False)
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


def sigma_trace_slope(record, branch="+"):
    """Log-log slope of a branch's width trace over its final decade of physical time."""
    if branch not in BRANCHES:
        raise ValueError(f"branch must be one of {BRANCHES}, got {branch!r}")
    times, sp, sm = record.trace(with_overhead=False)
    sigma = sp if branch == "+" else sm
    if times.size < 3:
        raise ValueError("need at least three trace points to fit a slope")
    keep = times >= times[-1] / 10.0
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
    params=SPEEDUP_PARAMS,
    replicates=10,
    adaptive_iterations=20,
    budget_factor=64.0,
    seed=0,
):
    """Paired adaptive-vs-fixed ensemble study over true rate pairs.

    For each rate pair, runs `replicates` adaptive and fixed-sweep
    replicates with independent seed streams, then compares every pairing:
    the fixed arm's interpolated time to reach the adaptive run's final
    widths, over the adaptive run's total time.  The adaptive arm runs NOB
    on the wide delay grid, so slow rates stay optimally measurable, and the
    fixed arm sweeps NAP_DEFAULT_DELAYS; both start from the default prior.
    The fixed arm stops early once it beats the easiest target comfortably
    and is capped at `budget_factor` times the longest adaptive run;
    pairings that never reach their target within the cap are reported at
    the cap and counted as lower bounds.  Physical acquisition time only;
    selector CPU is excluded on both arms.
    """
    if not (_is_int(replicates) and replicates >= 2):
        raise ValueError("replicates must be an integer of at least 2")
    if not (_is_int(adaptive_iterations) and adaptive_iterations >= 1):
        raise ValueError("adaptive_iterations must be an integer of at least 1")
    if not 0.0 < budget_factor < np.inf:
        raise ValueError("budget_factor must be finite and above 0")
    rate_pairs = [(float(a), float(b)) for a, b in rate_pairs]
    points = []
    seed_iter = iter(replicate_seeds(seed, 2 * replicates * len(rate_pairs)))
    wide = DelayGrid.wide()
    for gp, gm in rate_pairs:
        rates = RatePair(gp, gm)
        adaptive_arm = ExperimentConfig(
            true_rates=rates,
            params=params,
            optimizer="nob",
            iterations=adaptive_iterations,
            delay_grid=wide,
        )
        adaptive_runs = [
            run_adaptive(replace(adaptive_arm, seed=next(seed_iter))) for _ in range(replicates)
        ]
        targets = [(r.final.sigma_plus, r.final.sigma_minus) for r in adaptive_runs]
        tightest = (min(t[0] for t in targets), min(t[1] for t in targets))
        stop_sigma = (0.95 * tightest[0], 0.95 * tightest[1])
        budget = budget_factor * max(r.total_physical_s for r in adaptive_runs)

        # Sweeps until the stop rule or the budget ends the run.
        fixed_arm = replace(
            adaptive_arm, optimizer="nap", iterations=10**9, nap_delays=NAP_DEFAULT_DELAYS
        )
        nap_runs = [
            run_nap(replace(fixed_arm, seed=next(seed_iter)), stop_sigma, budget)
            for _ in range(replicates)
        ]

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
