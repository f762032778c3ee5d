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


def test_protocol_ranking_demo(capsys):
    load_demo("protocol_ranking").main()
    out = capsys.readouterr().out
    assert out.startswith("protocol census")
    assert "measurement label classes   : 9\n" in out
    assert "distinct model functions    : 7\n" in out
    assert "pulse-error-free protocols  : (+0,00),(-0,00)\n" in out
    assert "robust-vs-optimal cost ratio across rate asymmetry" in out


def test_speedup_comparison_demo(capsys):
    load_demo("speedup_comparison").main()
    out = capsys.readouterr().out
    assert out.startswith("time-to-equal-width speedup, 3x3 pairings per rate point")
    rows = [line.split() for line in out.splitlines() if line.endswith("/9")]
    assert [row[0] for row in rows] == ["0.055", "0.393", "2.802", "20.000"]
    assert rows[-1][-1] == "9/9"  # every pairing at 20 /ms hits the fixed arm's cap


def test_estimator_bias_demo(capsys):
    load_demo("estimator_bias").main()
    out = capsys.readouterr().out
    assert out.startswith("true normalized signal M = 0.22921 at tau = 0.4 ms")
    first_words = [line.split()[0] for line in out.splitlines() if line.strip()]
    assert first_words[1:6] == ["R", "1000", "10000", "100000", "1000000"]
