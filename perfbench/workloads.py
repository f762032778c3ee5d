"""The five benchmark workloads: their operations, outputs and checks.

Every workload runs one operation at a time in a closed loop.  A simulate
or ranking operation is one `spinrelax.cli.main` call with generated argv;
drift-acquire calls `experiments.run_adaptive` directly because the CLI
cannot configure drift.  Per-operation seeds come from
`experiments.replicate_seeds(workload_seed % REFERENCE_SEEDS, seeds)`, so
every operation a run can make has a reference output, stored in
`reference/<workload>.json` by make_reference.py.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass

# Workload seeds are reduced modulo this count; references exist for each.
REFERENCE_SEEDS = 16

# Relative tolerance on floats read back at full precision (JSON repr):
# rounding-level drift only.  ratio_sweep.csv prints 6 significant digits,
# so one unit in the last printed digit is allowed there.
RTOL = 1e-9
RTOL_PRINTED = 2e-5

DRIFT_ITERATIONS = 8
# Acceptance criterion 2 ramps alpha 0.8 -> 0.6 over 150 s at R = 1e4; at
# the default R = 1e6 every iteration lasts 100x longer, so does the ramp.
DRIFT_RAMP_S = 150.0 * 100


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "simulate", "rank-protocols" (CLI subcommands) or "drift"
    seeds: int  # distinct operation seeds per run
    work_per_op: int
    work_unit: str
    flags: tuple = ()  # extra simulate flags


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fig2-nob", "simulate", 4, 30, "adaptive iteration"),
        Workload("fig2-pf", "simulate", 2, 30, "adaptive iteration", ("--optimizer", "pf")),
        Workload("fixed-sweep", "simulate", 2, 30, "sweep", ("--optimizer", "nap")),
        Workload("fig7-ranking", "rank-protocols", 1, 86, "minimal_cost evaluation"),
        Workload("drift-acquire", "drift", 2, DRIFT_ITERATIONS, "adaptive iteration"),
    )
}

MOMENT_KEYS = (
    "gamma_plus_mean_per_ms",
    "gamma_minus_mean_per_ms",
    "gamma_plus_sigma_per_ms",
    "gamma_minus_sigma_per_ms",
)


def op_seeds(program, workload, workload_seed):
    """Operation seeds of one run; the ranking takes no seed."""
    if workload.kind == "rank-protocols":
        return [0]
    return program.experiments.replicate_seeds(workload_seed % REFERENCE_SEEDS, workload.seeds)


def cli_argv(workload, seed, out_dir):
    if workload.kind == "rank-protocols":
        return ["rank-protocols", "--preset", "fig7", "--out", out_dir]
    return ["simulate", "--preset", "fig2", "--seed", str(seed), *workload.flags, "--out", out_dir]


def drift_config(program, seed):
    """Drifted acquisition: truth (1, 3) /ms, default SignalParams, NOB."""

    def alpha(t):
        return 0.8 - 0.2 * min(t / DRIFT_RAMP_S, 1.0)

    return program.experiments.ExperimentConfig(
        true_rates=program.rates.RatePair(1.0, 3.0),
        params=program.signals.SignalParams(),
        optimizer="nob",
        iterations=DRIFT_ITERATIONS,
        seed=seed,
        drifts={"alpha": alpha},
    )


def sensitivity(mean_plus, mean_minus, sigma_plus, sigma_minus, total_time_s):
    """sqrt((s+/m+)^2 + (s-/m-)^2) * sqrt(T): the paper's figure of merit."""
    return math.hypot(sigma_plus / mean_plus, sigma_minus / mean_minus) * math.sqrt(total_time_s)


def _delays_digest(pairs):
    """sha256 of the delay sequence; JSON float repr round-trips exactly."""
    return hashlib.sha256(json.dumps([list(p) for p in pairs]).encode()).hexdigest()


def _run_outcome(delays, final, total_time_s, flagged):
    return {
        "iterations": len(delays),
        "delays_sha256": _delays_digest(delays),
        "final": list(final),
        "total_time_s": total_time_s,
        "flagged": flagged,
        "sensitivity_sqrt_s": sensitivity(*final, total_time_s),
    }


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def simulate_outcome(run_dir):
    with open(os.path.join(run_dir, "records.jsonl"), "r", encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    run = _read_json(os.path.join(run_dir, "summary.json"))["runs"][0]
    delays = [(r["tau_plus_ms"], r["tau_minus_ms"]) for r in records]
    flagged = sum(bool(r["flagged"]) for r in records)
    return _run_outcome(delays, [run[k] for k in MOMENT_KEYS], run["total_time_s"], flagged)


def ranking_outcome(run_dir):
    ranking = _read_json(os.path.join(run_dir, "ranking.json"))["entries"]
    rows = [
        [e["protocol"], e["tau_plus_ms"], e["tau_minus_ms"], e["cost_sqrt_s"]] for e in ranking
    ]
    with open(os.path.join(run_dir, "ratio_sweep.csv"), "r", encoding="utf-8") as fh:
        sweep = [[float(v) for v in line.split(",")] for line in fh.read().splitlines()[1:]]
    return {
        "ranking": rows,
        "census": _read_json(os.path.join(run_dir, "census.json")),
        "ratio_sweep": sweep,
        "sensitivity_sqrt_s": rows[0][3],
    }


def record_outcome(record):
    """Outcome of a RunRecord returned by the library, as for simulate."""
    delays = [(r.delays.tau_plus, r.delays.tau_minus) for r in record.iterations]
    f = record.final
    final = (f.mean_plus, f.mean_minus, f.sigma_plus, f.sigma_minus)
    flagged = sum(r.flagged for r in record.iterations)
    return _run_outcome(delays, [float(v) for v in final], record.total_time_s, flagged)


def cli_outcome(workload, run_dir):
    if workload.kind == "rank-protocols":
        return ranking_outcome(run_dir)
    return simulate_outcome(run_dir)


def _close(a, b, rtol):
    return math.isclose(a, b, rel_tol=rtol, abs_tol=0.0)


def compare(outcome, reference):
    """Mismatches between an operation's outcome and its reference."""
    problems = []
    if "ranking" in reference:
        got, want = outcome["ranking"], reference["ranking"]
        if [r[:3] for r in got] != [r[:3] for r in want]:
            problems.append("ranking order or delays differ")
        elif not all(_close(g[3], w[3], RTOL) for g, w in zip(got, want)):
            problems.append("ranking costs differ")
        if outcome["census"] != reference["census"]:
            problems.append("census differs")
        got, want = outcome["ratio_sweep"], reference["ratio_sweep"]
        if len(got) != len(want) or not all(
            _close(g, w, RTOL_PRINTED) for gr, wr in zip(got, want) for g, w in zip(gr, wr)
        ):
            problems.append("ratio sweep differs")
        return problems
    for key in ("iterations", "delays_sha256", "flagged"):
        if outcome[key] != reference[key]:
            problems.append(f"{key} differs: {outcome[key]} != {reference[key]}")
    if not all(_close(g, w, RTOL) for g, w in zip(outcome["final"], reference["final"])):
        problems.append(f"final moments differ: {outcome['final']} != {reference['final']}")
    if not _close(outcome["total_time_s"], reference["total_time_s"], RTOL):
        problems.append("total_time_s differs")
    return problems


def reference_path(workload):
    return os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference", f"{workload.name}.json")


def load_reference(workload):
    """{str(op seed): outcome} stored from the seed commit."""
    return _read_json(reference_path(workload))["ops"]
