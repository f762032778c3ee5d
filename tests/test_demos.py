"""Smoke tests: the demos run to completion, including their own checks."""

import importlib.util
from pathlib import Path

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def load_demo(name):
    spec = importlib.util.spec_from_file_location(f"demo_{name}", DEMOS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_adaptive_run_demo(capsys):
    load_demo("adaptive_run").main()
    out = capsys.readouterr().out
    assert out.startswith("fast selector (no recorded overhead)")
    assert "same run charged 2 s of selector CPU per iteration" in out
    assert out.count("duty cycle") == 2
