"""Module-boundary tracing of spinrelax, installed from outside the package.

The traced run wraps the public functions listed in TRACED.  The modules
bind each other's functions by name at import time, so a wrapper replaces
every reference to the original function in every spinrelax module
namespace, not only the attribute of the defining module; that is the name
the caller resolves.  Wrappers are installed for one operation and removed
afterwards, so untraced operations run the unmodified program.

Each wrapper records a span (operation id, name, start, end, parent) in
memory and counts work at the same boundary from the call's arguments and
return value.  The `rates` kernels are not wrapped: `design.ROBUST_CURVES`
and the posterior likelihood captured `rates.model_m` and
`rates.model_gradient` at import, so their time shows up as self time of
the calling `design` and `posterior` functions.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import Counter

# (module, attribute) of every wrapped function, in report order.
TRACED = (
    ("cli", "main"),
    ("experiments", "run_adaptive"),
    ("experiments", "run_nap"),
    ("experiments", "sigma_trace_slope"),
    ("design", "nob_select_delays"),
    ("design", "approx_cost_surface"),
    ("design", "pf_select_delays"),
    ("design", "ParticleCloud.from_grid"),
    ("design", "cost_surface"),
    ("protocols", "census"),
    ("protocols", "rank_protocols"),
    ("protocols", "minimal_cost"),
    ("protocols", "enumerate_protocols"),
    ("protocols", "sensitivity_ratio_curve"),
    ("posterior", "initial_grid"),
    ("posterior", "bayes_update"),
    ("posterior", "regrid"),
    ("posterior", "moments"),
    ("signals", "sample_signals"),
    ("signals", "expected_counts"),
    ("estimator", "measurement_estimate"),
    ("estimator", "sigma_m_from_expectations"),
)

MODULES = ("cli", "experiments", "design", "protocols", "posterior", "signals", "estimator")

# Work counts derived at the wrapped boundaries, reported per operation.
COUNTS = (
    "design.cost_cells",
    "design.particle_evals",
    "posterior.grid_cells",
    "signals.drift_blocks",
    "experiments.flagged",
    "experiments.iterations",
)


def _cost_cells(counts, args, surface):
    counts["design.cost_cells"] += int(surface.size)


def _particle_evals(counts, args, _):
    """Particles x candidate delays x branches scored by the utility."""
    cloud = args["cloud"]
    if cloud.is_degenerate():
        return  # falls back to the NOB scan, counted as cost cells
    grid = args["grid"]
    n_taus = 1000 if grid is None else grid.taus.size  # DelayGrid.default()
    step = max(1, n_taus // int(args["subgrid"]))
    candidates = len(range(0, n_taus, step))
    counts["design.particle_evals"] += cloud.gammas.shape[0] * candidates * 2


def _grid_in(counts, args, _):
    counts["posterior.grid_cells"] += int(args["grid"].log_weights.size)


def _grid_out(counts, args, grid):
    counts["posterior.grid_cells"] += int(grid.log_weights.size)


def _drift_blocks(counts, args, _):
    if args["drifts"] is not None:
        reps = args["params"].repetitions_R
        counts["signals.drift_blocks"] += math.ceil(reps / args["block_reps"])


def _run_record(counts, args, record):
    counts["experiments.flagged"] += sum(r.flagged for r in record.iterations)
    counts["experiments.iterations"] += len(record.iterations)


COUNTERS = {
    "design.approx_cost_surface": _cost_cells,
    "design.cost_surface": _cost_cells,
    "design.pf_select_delays": _particle_evals,
    "posterior.bayes_update": _grid_in,
    "posterior.regrid": _grid_out,
    "signals.sample_signals": _drift_blocks,
    "experiments.run_adaptive": _run_record,
    "experiments.run_nap": _run_record,
}

# Counts of exceptions that ended a wrapped call: work lost.
RAISED = {
    "posterior.rejected": (("posterior.bayes_update", "UpdateRejected"), ("posterior.regrid", "UpdateRejected")),
    "estimator.errors": (("estimator.measurement_estimate", "EstimationError"),),
}


class Tracer:
    """Spans and counts for the operations run while it is installed.

    A span is [op, name, start, end, parent index, time covered by
    children]; self time is its duration minus the children's time.
    """

    def __init__(self, package):
        self.package = package
        self.spans = []
        self.counts = {}
        self.op = None
        self._stack = []
        self._patches = []
        self._wrapped = {}

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        spans = self.spans
        stack = self._stack
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts = self.counts[self.op]
            index = len(spans)
            parent = stack[-1] if stack else None
            span = [self.op, name, 0.0, 0.0, parent, 0.0]
            spans.append(span)
            stack.append(index)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                span[3] = perf_counter()
                stack.pop()
                if parent is not None:
                    spans[parent][5] += span[3] - span[2]
                counts[name + ".calls"] += 1
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(counts, bound.arguments, result)
            return result

        return traced

    def install(self, op):
        """Wrap every TRACED function for operation `op`."""
        self.op = op
        self.counts[op] = Counter()
        modules = [
            module
            for key, module in sys.modules.items()
            if key == self.package or key.startswith(self.package + ".")
        ]
        for module_name, attr in TRACED:
            module = sys.modules[f"{self.package}.{module_name}"]
            name = f"{module_name}.{attr}"
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                if name not in self._wrapped:
                    self._wrapped[name] = classmethod(self._wrap(name, original.__func__))
                setattr(cls, method, self._wrapped[name])
                self._patches.append((cls, method, original))
                continue
            original = getattr(module, attr)
            if name not in self._wrapped:
                self._wrapped[name] = self._wrap(name, original)
            for target in modules:
                for key, value in list(vars(target).items()):
                    if value is original:
                        setattr(target, key, self._wrapped[name])
                        self._patches.append((target, key, original))

    def uninstall(self):
        for target, key, original in reversed(self._patches):
            setattr(target, key, original)
        self._patches.clear()
        self.op = None

    def op_counts(self, op):
        """Work counts of one operation: wrapper calls, COUNTS and raises."""
        raw = self.counts[op]
        out = {f"{m}.{a}.calls": raw[f"{m}.{a}.calls"] for m, a in TRACED}
        out.update({name: raw[name] for name in COUNTS})
        for name, sources in RAISED.items():
            out[name] = sum(raw[f"{fn}.raised.{exc}"] for fn, exc in sources)
        return out

    def op_times(self, op):
        """{function: (total_ms, self_ms)} over the spans of one operation."""
        out = {f"{m}.{a}": [0.0, 0.0] for m, a in TRACED}
        for span_op, name, start, end, _, children in self.spans:
            if span_op != op:
                continue
            entry = out[name]
            entry[0] += (end - start) * 1e3
            entry[1] += (end - start - children) * 1e3
        return out

    def span_records(self):
        """Spans as JSON-ready rows: op, name, start_us, duration_us, parent."""
        if not self.spans:
            return []
        origin = min(span[2] for span in self.spans)
        return [
            [op, name, round((start - origin) * 1e6, 1), round((end - start) * 1e6, 1), parent]
            for op, name, start, end, parent, _ in self.spans
        ]
