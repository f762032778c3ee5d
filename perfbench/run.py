"""spinrelax benchmark: one workload, closed loop, one process.

Run from the repository root:

    python3 perfbench/run.py --workload fig2-nob --seed 0 --seconds 20 --trace 0

With --trace 0 it measures the end-to-end metrics of the untraced program,
with operation times scaled to a nominal host speed by a calibration kernel
timed around every operation (see calibration_ms).  With --trace 1 it wraps
the spinrelax module boundaries (see tracer.py) and reports per-layer
metrics instead.  Every operation's output is compared
with the reference stored from the seed commit; a mismatch, an exception or
a nonzero CLI exit code fails the operation.  The last line of standard
output is the result object; the line before it, and a file under
.perfbench_out/, carry provenance, sample counts and per-operation detail.
See perfbench/README.md for the workloads and the metric definitions.
"""

from __future__ import annotations

import os

# One process, no extra threads: pin the numeric libraries before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from types import SimpleNamespace

import numpy as np

import tracer
import workloads

PACKAGE = "spinrelax"
SETUP_PROBES = 3
# calibration_ms() on the reference host (2-core Xeon VM at 2.0 GHz, Python
# 3.11.7, numpy 2.4.6), rounded from its median over 40 calls; end-to-end
# operation times are reported as if the host ran at this speed.
CALIBRATION_NOMINAL_MS = 130.0
OUT_DIR = ".perfbench_out"
TMP_DIR = ".perfbench_tmp"

NOTES = (
    "rates kernels (model_m, model_gradient, propagator) are not wrapped: design.ROBUST_CURVES "
    "captured them at import, so their time is self time of the calling design/posterior functions",
    "per-layer calls and counts are per operation, averaged over the run's operation seeds "
    "(each traced once); total_ms and self_ms are medians over those traced operations",
    "trace.overhead_ms is the traced minus the untraced wall time of the same operation seed, "
    "median over the seeds run both ways in this process",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="workload seed")
    parser.add_argument("--seconds", type=int, default=20, help="measurement time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def load_program(root):
    """Import spinrelax from ./src of the checkout, never from elsewhere."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, PACKAGE, "__init__.py")):
        raise SystemExit(f"perfbench: no {PACKAGE} sources under {src}; run from the repository root")
    sys.path.insert(0, src)
    names = ("cli", "experiments", "design", "protocols", "posterior", "signals", "estimator", "rates")
    modules = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in names}
    package = sys.modules[PACKAGE]
    if not os.path.abspath(package.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"perfbench: imported {package.__file__}, not the sources under {src}")
    return SimpleNamespace(package=package, **modules)


def build_inputs(program, workload, seeds):
    """What an operation needs before it starts: argv lists or configs."""
    if workload.kind == "drift":
        return {seed: workloads.drift_config(program, seed) for seed in seeds}
    return {seed: None for seed in seeds}


def measure_setup(args, root):
    """Median wall time of fresh processes that import and build the inputs."""
    command = [
        sys.executable, os.path.abspath(__file__), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        done = subprocess.run(command, cwd=root, capture_output=True, text=True, timeout=120)
        samples.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise SystemExit(f"perfbench: setup probe failed: {done.stderr.strip()}")
    return samples


def calibration_ms():
    """Wall ms of fixed work that never touches spinrelax.

    On a shared 2-core Xeon VM the speed drifted by up to 1.6x over minutes,
    with CPU time tracking wall time, so run medians of raw times spread
    beyond any usable bound.  The kernel mixes the kinds of work the workloads do (a Python
    loop, many small numpy calls, a few passes over 1e6-element arrays), and
    each operation's time is scaled by the nominal over the mean of the
    calibrations just before and just after it.
    """
    start = time.perf_counter()
    total = 0
    for i in range(450_000):
        total += i * i % 7
    x = np.ones(64)
    m = np.eye(3)
    for _ in range(9_000):
        x = x * 1.0000001 + 1e-9
        m = m @ m
    a = np.linspace(0.0, 1.0, 1_000_000)
    b = np.empty_like(a)
    for _ in range(9):
        np.exp(a, out=b)
        np.multiply(b, a, out=b)
        np.sqrt(b, out=b)
    return (time.perf_counter() - start) * 1e3


def run_op(program, workload, seed, config, out_dir):
    """Run one operation; returns (seconds, outcome, error, bytes written)."""
    if workload.kind == "drift":
        start = time.perf_counter()
        try:
            record = program.experiments.run_adaptive(config)
        except Exception as exc:  # a raising operation is a failed operation
            return time.perf_counter() - start, None, f"raised {exc!r}", 0
        elapsed = time.perf_counter() - start
        return elapsed, workloads.record_outcome(record), None, 0

    argv = workloads.cli_argv(workload, seed, out_dir)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = time.perf_counter()
        try:
            code = program.cli.main(argv)
        except Exception as exc:  # cli.main maps errors to exit codes; anything else fails
            code = repr(exc)
        elapsed = time.perf_counter() - start
    try:
        if code != 0:
            return elapsed, None, f"exit {code}: {stderr.getvalue().strip()}", 0
        run_dir = stdout.getvalue().strip().splitlines()[-1]
        written = sum(
            os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(out_dir) for f in files
        )
        return elapsed, workloads.cli_outcome(workload, run_dir), None, written
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return elapsed, None, f"unreadable output: {exc!r}", 0
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def provenance(root, program):
    """Where the numbers come from: code, interpreter, libraries, cores."""
    sha = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
            )
            sha = done.stdout.strip() if done.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    digest = hashlib.sha256()
    package_dir = os.path.dirname(program.package.__file__)
    for name in sorted(os.listdir(package_dir)):
        if name.endswith(".py"):
            with open(os.path.join(package_dir, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    import numpy
    import scipy

    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def schedule(seeds, trace):
    """(seed, traced) of operation i; traced runs trace each seed once first."""
    k = len(seeds)
    if not trace:
        return lambda i: (seeds[i % k], False)
    return lambda i: (seeds[i], True) if i < k else (seeds[(i - k) % k], False)


def tail_percentile(values):
    """Highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n < 20:
        return None
    q = int(100 * (1 - 10 / n))
    return {"percentile": q, "value_ms": statistics.quantiles(values, n=100)[q - 1], "samples": n}


def end_to_end(workload, ops, setup_samples, sensitivities):
    """Metrics as (value, unit, samples), from calibrated operation times."""
    times_ms = [op["calibrated_ms"] for op in ops]
    ok = [op for op in ops if op["error"] is None]
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s", len(setup_samples)),
        "op_ms_p50": (statistics.median(times_ms), "ms", len(times_ms)),
        "work_per_s": (
            len(ok) * workload.work_per_op / (sum(times_ms) / 1e3), "1/s", len(times_ms)
        ),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
        "ok_share": (len(ok) / len(ops), "ratio", len(ops)),
        "sensitivity_sqrt_s": (
            statistics.median(sensitivities) if sensitivities else float("nan"),
            "sqrt_s",
            len(sensitivities),
        ),
    }
    return metrics


def per_layer(program_tracer, ops, overhead_pairs):
    traced = [op for op in ops if op["traced"]]
    counts = [program_tracer.op_counts(op["index"]) for op in traced]
    times = [program_tracer.op_times(op["index"]) for op in traced]
    n = len(traced)
    metrics = {}
    for module, attr in tracer.TRACED:
        name = f"{module}.{attr}"
        metrics[f"{name}.calls"] = (sum(c[f"{name}.calls"] for c in counts) / n, "count/op", n)
        metrics[f"{name}.total_ms"] = (statistics.median(t[name][0] for t in times), "ms/op", n)
        metrics[f"{name}.self_ms"] = (statistics.median(t[name][1] for t in times), "ms/op", n)
    for module in tracer.MODULES:
        metrics[f"{module}.self_ms"] = (
            statistics.median(
                sum(v[1] for k, v in t.items() if k.startswith(module + ".")) for t in times
            ),
            "ms/op",
            n,
        )
    metrics["experiments.run.self_ms"] = (
        statistics.median(t["experiments.run_adaptive"][1] + t["experiments.run_nap"][1] for t in times),
        "ms/op",
        n,
    )
    for name in tracer.COUNTS + tuple(tracer.RAISED):
        metrics[name] = (sum(c[name] for c in counts) / n, "count/op", n)
    iterations = sum(c["experiments.iterations"] for c in counts)
    flagged = sum(c["experiments.flagged"] for c in counts)
    metrics["estimator.flagged_share"] = (flagged / iterations if iterations else 0.0, "ratio", n)
    metrics["cli.bytes_written"] = (sum(op["bytes"] for op in traced) / n, "B/op", n)
    metrics["trace.spans"] = (len(program_tracer.spans) / n, "count/op", n)
    diffs = [t - u for t, u in overhead_pairs]
    base = statistics.median(u for _, u in overhead_pairs)
    metrics["trace.overhead_ms"] = (statistics.median(diffs), "ms/op", len(diffs))
    metrics["trace.overhead_share"] = (statistics.median(diffs) / base, "ratio", len(diffs))
    return metrics


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    workload = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        program = load_program(root)
        build_inputs(program, workload, workloads.op_seeds(program, workload, args.seed))
        return 0

    setup_samples = [] if args.trace else measure_setup(args, root)
    program = load_program(root)
    seeds = workloads.op_seeds(program, workload, args.seed)
    inputs = build_inputs(program, workload, seeds)
    reference = workloads.load_reference(workload)
    program_tracer = tracer.Tracer(PACKAGE) if args.trace else None
    calibration = []
    if not args.trace:
        calibration_ms()  # the first call pays one-off allocation costs; discard it
    op_plan = schedule(seeds, args.trace)
    min_ops = len(seeds) + (1 if args.trace else 0)

    scratch = os.path.join(root, TMP_DIR, str(os.getpid()))
    os.makedirs(scratch, exist_ok=True)
    ops = []
    first_outcome = {}
    started = time.perf_counter()
    try:
        while True:
            if len(ops) >= min_ops:
                predicted = statistics.median(op["ms"] for op in ops) / 1e3
                if time.perf_counter() - started + predicted > args.seconds:
                    break
            index = len(ops)
            seed, traced = op_plan(index)
            if not args.trace:
                calibration.append(calibration_ms())
            if traced:
                program_tracer.install(index)
            try:
                seconds, outcome, error, written = run_op(
                    program, workload, seed, inputs[seed], os.path.join(scratch, f"op{index}")
                )
            finally:
                if traced:
                    program_tracer.uninstall()
            if error is None:
                want = reference.get(str(seed))
                problems = ["no reference output"] if want is None else workloads.compare(outcome, want)
                error = "; ".join(problems) or None
            if error is None:
                first_outcome.setdefault(seed, outcome)
            ops.append(
                {"index": index, "seed": seed, "traced": traced, "ms": seconds * 1e3,
                 "error": error, "bytes": written}
            )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failed = sum(op["error"] is not None for op in ops)
    if args.trace:
        first_untraced = {}
        for op in ops:
            if not op["traced"]:
                first_untraced.setdefault(op["seed"], op["ms"])
        pairs = [
            (op["ms"], first_untraced[op["seed"]])
            for op in ops
            if op["traced"] and op["seed"] in first_untraced
        ]
        metrics = per_layer(program_tracer, ops, pairs)
    else:
        # Each operation is timed between two calibrations; scale it by their mean.
        calibration.append(calibration_ms())
        for op, before, after in zip(ops, calibration, calibration[1:]):
            op["calibrated_ms"] = op["ms"] * CALIBRATION_NOMINAL_MS / ((before + after) / 2)
        sensitivities = [first_outcome[s]["sensitivity_sqrt_s"] for s in seeds if s in first_outcome]
        metrics = end_to_end(workload, ops, setup_samples, sensitivities)

    detail = {
        "workload": workload.name,
        "work_unit": workload.work_unit,
        "work_per_op": workload.work_per_op,
        "trace": args.trace,
        "seconds": args.seconds,
        "provenance": provenance(root, program),
        "workload_seed": args.seed,
        "reference_seed": args.seed % workloads.REFERENCE_SEEDS,
        "op_seeds": seeds,
        "samples": {name: value[2] for name, value in metrics.items()},
        "setup_s_samples": setup_samples,
        "calibration_ms": calibration,
        "op_ms_tail": None if args.trace else tail_percentile([op["ms"] for op in ops]),
        "ops": [
            {k: op[k] for k in ("seed", "traced", "ms", "calibrated_ms", "error", "bytes") if k in op}
            for op in ops
        ],
        "notes": list(NOTES) if args.trace else [],
    }
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    stem = os.path.join(root, OUT_DIR, f"{workload.name}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"detail": detail, "metrics": metrics}, fh, indent=1)
    if args.trace:
        with open(stem + "-spans.jsonl", "w", encoding="utf-8") as fh:
            for row in program_tracer.span_records():
                fh.write(json.dumps(row) + "\n")

    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value[0], "unit": value[1]} for name, value in metrics.items()},
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
