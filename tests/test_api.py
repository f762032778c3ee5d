"""Public names: every module's __all__ resolves, and so does every function
the benchmark tracer (perfbench/tracer.py) wraps, with the parameter names
its work counters read, and every `program.<module>.<attr>` the benchmark
scripts (perfbench/*.py) read.  The benchmark is read, never changed."""

import glob
import importlib
import importlib.util
import inspect
import os
import re

import pytest

MODULES = (
    "cli", "design", "estimator", "experiments", "posterior", "protocols", "rates", "signals"
)
PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
TRACER = os.path.join(PERFBENCH, "tracer.py")


@pytest.mark.parametrize("name", ("",) + MODULES)
def test_all_resolves(name):
    module = importlib.import_module(f"spinrelax.{name}" if name else "spinrelax")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"{module.__name__}.__all__ names missing attributes: {missing}"


def test_traced_functions_take_the_arguments_their_counters_read():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    reads = {
        name: set(re.findall(r'args\["(\w+)"\]', inspect.getsource(counter)))
        for name, counter in tracer.COUNTERS.items()
    }
    # The pattern must see what the counters are known to read.
    assert {"cloud", "grid", "subgrid", "params", "drifts", "block_reps"} <= set().union(
        *reads.values()
    )
    for module_name, attr in tracer.TRACED:
        target = importlib.import_module(f"spinrelax.{module_name}")
        for part in attr.split("."):
            target = getattr(target, part)
        parameters = inspect.signature(target).parameters
        missing = reads.get(f"{module_name}.{attr}", set()) - set(parameters)
        assert not missing, f"{module_name}.{attr} lacks parameters {sorted(missing)}"


def test_benchmark_reads_resolve():
    reads = set()
    for path in glob.glob(os.path.join(PERFBENCH, "*.py")):
        with open(path) as fh:
            reads |= set(re.findall(r"\bprogram\.(\w+)\.(\w+)", fh.read()))
    reads.discard(("package", "__file__"))  # the package itself, not a module
    # The pattern must see what the scripts are known to read.
    assert {
        ("cli", "main"),
        ("experiments", "run_adaptive"),
        ("experiments", "replicate_seeds"),
        ("experiments", "ExperimentConfig"),
        ("rates", "RatePair"),
        ("signals", "SignalParams"),
    } <= reads
    missing = [
        f"{module_name}.{attr}"
        for module_name, attr in sorted(reads)
        if not hasattr(importlib.import_module(f"spinrelax.{module_name}"), attr)
    ]
    assert not missing, f"perfbench reads missing attributes: {missing}"
