"""Command-line interface: config ingest, artifacts, determinism, exit codes."""

import hashlib
import inspect
import json
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

import spinrelax
from spinrelax.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RUNTIME,
    _DEFAULTS,
    _resolve,
    _table_text,
    build_parser,
    main,
)
from spinrelax.estimator import BiasStudyResult, bias_study
from spinrelax.experiments import SPEEDUP_PARAMS, SpeedupStudy, speedup_study
from spinrelax.protocols import OPTIMAL_LABEL, ROBUST_LABEL, ProtocolRanking

FAST_YAML = """\
rates:
  gamma_plus_per_ms: 1.0
  gamma_minus_per_ms: 3.0
run:
  iterations: 4
  seed: 7
params:
  repetitions_R: 100000
"""


@pytest.fixture()
def fast_config(tmp_path):
    path = tmp_path / "fast.yaml"
    path.write_text(FAST_YAML)
    return str(path)


def read(run_dir, name):
    with open(os.path.join(run_dir, name), "r", encoding="utf-8") as fh:
        return fh.read()


def run_dir_from(capsys):
    return capsys.readouterr().out.strip().split("\n")[-1]


def run_in(out, argv):
    """Exit code and run directories of one command writing under `out`."""
    code = main([*argv, "--out", str(out)])
    return code, sorted(os.listdir(out)) if out.exists() else None


class TestExitCodes:
    def test_missing_rates_names_field(self, tmp_path, capsys):
        code = main(["simulate", "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "rates.gamma_plus_per_ms" in capsys.readouterr().err

    def test_unknown_config_field_named(self, tmp_path, capsys):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("rates:\n  gamma_plus_per_ms: 1.0\n  gamma_min: 3.0\n")
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "rates.gamma_min" in capsys.readouterr().err

    def test_unknown_section_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("rate_pairs:\n  gamma_plus_per_ms: 1.0\n")
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "rate_pairs" in capsys.readouterr().err

    def test_preset_command_mismatch(self, tmp_path, capsys):
        code = main(["simulate", "--preset", "fig5", "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "fig5" in capsys.readouterr().err

    def test_bad_rates_flag(self, tmp_path):
        assert main(["simulate", "--rates", "1;3", "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_bad_repetitions_flag(self, fast_config, tmp_path):
        code = main(
            ["simulate", "--config", fast_config, "--R", "2.5", "--out", str(tmp_path)]
        )
        assert code == EXIT_CONFIG

    def test_string_noiseless_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "quoted.yaml"
        cfg.write_text(FAST_YAML.replace("run:\n", 'run:\n  noiseless: "false"\n'))
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "run.noiseless" in capsys.readouterr().err

    def test_bias_r_values_entries_validated(self, tmp_path, capsys):
        cfg = tmp_path / "bias.yaml"
        cfg.write_text("bias:\n  r_values: [0, 1000]\n  replicates: 1000\n")
        code = main(["bias-study", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "bias.r_values" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, edit",
        [
            ("run.iterations", ("iterations: 4", "iterations: true\n  particle_count: true")),
            ("run.particle_count", ("run:\n", "run:\n  particle_count: true\n")),
            ("params.f0", ("params:\n", "params:\n  f0: true\n")),
            ("timing.per_shot_s", ("run:\n", "timing:\n  per_shot_s: false\nrun:\n")),
            ("prior.grid_size", ("run:\n", "prior:\n  grid_size: true\nrun:\n")),
            ("delays.nap_list_ms", ("run:\n", "delays:\n  nap_list_ms: [0.1, true]\nrun:\n")),
            (
                "delays.grid.points",
                ("run:\n", "delays:\n  grid: {lo_ms: 0.01, hi_ms: 5.0, points: true}\nrun:\n"),
            ),
        ],
    )
    def test_boolean_numbers_rejected(self, tmp_path, capsys, field, edit):
        cfg = tmp_path / "bools.yaml"
        cfg.write_text(FAST_YAML.replace(*edit))
        out = tmp_path / "runs"
        code = main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, edit",
        [
            ("timing.overhead_T0_s", ("run:\n", "timing:\n  overhead_T0_s: .nan\nrun:\n")),
            ("timing.per_shot_s", ("run:\n", "timing:\n  per_shot_s: .inf\nrun:\n")),
            ("run.selector_overhead_s", ("run:\n", "run:\n  selector_overhead_s: .nan\n")),
            ("rates.gamma_plus_per_ms", ("gamma_plus_per_ms: 1.0", "gamma_plus_per_ms: -.inf")),
            ("delays.nap_list_ms", ("run:\n", "delays:\n  nap_list_ms: [0.1, .nan]\nrun:\n")),
        ],
    )
    def test_non_finite_numbers_rejected(self, tmp_path, capsys, field, edit):
        cfg = tmp_path / "nonfinite.yaml"
        cfg.write_text(FAST_YAML.replace(*edit))
        assert run_in(tmp_path / "runs", ["simulate", "--config", str(cfg)]) == (EXIT_CONFIG, None)
        assert f"field {field} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, entry, field",
        [
            (["bias-study", "--replicates", "999"], None, "bias.replicates"),
            (["bias-study"], "bias: {replicates: 500}\n", "bias.replicates"),
            (["speedup", "--replicates", "1"], None, "speedup.replicates"),
            (["speedup"], "speedup: {replicates: 1}\n", "speedup.replicates"),
            (["simulate", "--rates", "1,3", "--replicates", "0"], None, "run.replicates"),
        ],
        ids=["bias-flag", "bias-file", "speedup-flag", "speedup-file", "simulate-flag"],
    )
    def test_replicate_minimums_write_nothing(self, tmp_path, capsys, argv, entry, field):
        if entry is not None:
            cfg = tmp_path / "entry.yaml"
            cfg.write_text(entry)
            argv = [*argv, "--config", str(cfg)]
        assert run_in(tmp_path / "runs", argv) == (EXIT_CONFIG, None)
        assert f"field {field} must be at least" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, entry, flags",
        [
            (
                "rank-protocols",
                "ranking: {ratio_lo: 8.0, ratio_hi: 0.125, ratio_points: 1}\n",
                ["--ratio-sweep", "8:0.125:1"],
            ),
            (
                "speedup",
                "speedup: {rate_lo_per_ms: 2.0, rate_hi_per_ms: 20.0, rate_points: 1}\n",
                ["--rates", "2:20:1"],
            ),
            ("simulate", FAST_YAML.replace("100000", "1e5"), ["--R", "1e5"]),
        ],
        ids=["ranking-range", "speedup-range", "repetitions-1e5"],
    )
    def test_file_entry_and_flag_agree(self, fast_config, tmp_path, capsys, command, entry, flags):
        cfg = tmp_path / "entry.yaml"
        cfg.write_text(entry)
        by_file = run_in(tmp_path / "file", [command, "--config", str(cfg)])
        file_err = capsys.readouterr().err
        if command == "simulate":
            flags = ["--config", fast_config, *flags]
        by_flag = run_in(tmp_path / "flag", [command, *flags])
        assert by_file == by_flag
        assert file_err == capsys.readouterr().err
        assert by_file[0] == (EXIT_OK if command == "simulate" else EXIT_CONFIG)

    def test_runtime_error_writes_nothing(self, fast_config, tmp_path, capsys, monkeypatch):
        def fail(config):
            raise RuntimeError("acquisition failed")

        monkeypatch.setattr("spinrelax.cli.run_adaptive", fail)
        assert run_in(tmp_path / "runs", ["simulate", "--config", fast_config]) == (
            EXIT_RUNTIME,
            None,
        )
        assert "acquisition failed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, bad",
        [("ratio_points", "true"), ("ratio_lo", "-0.5"), ("ratio_hi", "wide")],
    )
    def test_bad_ratio_sweep_writes_nothing(self, tmp_path, capsys, field, bad):
        sweep = {"ratio_lo": "0.125", "ratio_hi": "8.0", "ratio_points": "25", field: bad}
        cfg = tmp_path / "ratios.yaml"
        cfg.write_text("ranking:\n" + "".join(f"  {k}: {v}\n" for k, v in sweep.items()))
        out = tmp_path / "runs"
        code = main(["rank-protocols", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert f"ranking.{field}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("given", [("ratio_hi",), ("ratio_lo", "ratio_points")])
    def test_partial_ratio_sweep_names_missing_fields(self, tmp_path, capsys, given):
        sweep = {"ratio_lo": 0.125, "ratio_hi": 4.0, "ratio_points": 25}
        cfg = tmp_path / "ratios.yaml"
        cfg.write_text("ranking:\n" + "".join(f"  {k}: {sweep[k]}\n" for k in given))
        out = tmp_path / "runs"
        code = main(["rank-protocols", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert all((f"ranking.{k}" in err) == (k not in given) for k in sweep)
        assert not out.exists()

    def test_rank_protocols_rejects_seed(self, tmp_path, capsys):
        # the ranking is deterministic: a seed flag would be silently unused
        assert run_in(tmp_path / "runs", ["rank-protocols", "--seed", "4"]) == (EXIT_CONFIG, None)
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("optimizer", ["nob", "pf", "nap"])
    def test_nap_list_checked_under_every_optimizer(self, tmp_path, capsys, optimizer):
        cfg = tmp_path / "naps.yaml"
        cfg.write_text(FAST_YAML + "delays:\n  nap_list_ms: [0.2, -1]\n")
        argv = ["simulate", "--config", str(cfg), "--optimizer", optimizer]
        assert run_in(tmp_path / "runs", argv) == (EXIT_CONFIG, None)
        assert "nap_delays must be positive and strictly increasing" in capsys.readouterr().err

    def test_bad_grid_bounds_are_config_errors(self, tmp_path, capsys):
        cfg = tmp_path / "grid.yaml"
        cfg.write_text(FAST_YAML + "delays:\n  grid: {lo_ms: -1, hi_ms: 5, points: 10}\n")
        assert run_in(tmp_path / "runs", ["simulate", "--config", str(cfg)]) == (EXIT_CONFIG, None)
        assert "delay grid must be positive and strictly increasing" in capsys.readouterr().err

    def test_one_point_prior_grid_writes_nothing(self, tmp_path, capsys):
        cfg = tmp_path / "grid.yaml"
        cfg.write_text(FAST_YAML + "prior:\n  grid_size: 1\n")
        out = tmp_path / "runs"
        code = main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "grid_size" in capsys.readouterr().err
        assert not out.exists()

    def test_config_json_holds_coerced_fields(self, tmp_path, capsys):
        cfg = tmp_path / "floats.yaml"
        floats = FAST_YAML.replace("iterations: 4", "iterations: 2.0")
        cfg.write_text(floats + "prior:\n  grid_size: 50.0\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
        config = json.loads(read(run_dir_from(capsys), "config.json"))
        assert type(config["run"]["iterations"]) is int and config["run"]["iterations"] == 2
        assert type(config["prior"]["grid_size"]) is int and config["prior"]["grid_size"] == 50

    def test_argparse_usage_error_is_2(self):
        assert main([]) == EXIT_CONFIG
        assert main(["simulate", "--preset", "bogus"]) == EXIT_CONFIG

    def test_version_exits_cleanly(self, capsys):
        assert main(["--version"]) == EXIT_OK
        assert "spinrelax" in capsys.readouterr().out

    def test_show_missing_target(self, tmp_path):
        assert main(["show", str(tmp_path / "nowhere")]) == EXIT_CONFIG


class TestSimulate:
    def test_records_summary_manifest(self, fast_config, tmp_path, capsys):
        assert main(["simulate", "--config", fast_config, "--out", str(tmp_path)]) == EXIT_OK
        run_dir = run_dir_from(capsys)
        records = read(run_dir, "records.jsonl").strip().split("\n")
        assert len(records) == 4
        row = json.loads(records[0])
        assert "tau_plus_ms" in row and "gamma_plus_mean_per_ms" in row
        summary = json.loads(read(run_dir, "summary.json"))
        assert summary["replicates"] == 1
        assert summary["runs"][0]["seed"] == 7
        manifest = json.loads(read(run_dir, "manifest.json"))
        assert set(manifest["outputs"]) >= {"config.json", "records.jsonl", "summary.json"}
        assert manifest["python_version"] == platform.python_version()
        assert manifest["numpy_version"] == np.__version__

    def test_manifest_hash_matches_canonical_config(self, fast_config, tmp_path, capsys):
        main(["simulate", "--config", fast_config, "--out", str(tmp_path)])
        run_dir = run_dir_from(capsys)
        config = json.loads(read(run_dir, "config.json"))
        canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(canonical.encode()).hexdigest()
        manifest = json.loads(read(run_dir, "manifest.json"))
        assert manifest["config_sha256"] == digest
        assert digest[:12] in os.path.basename(run_dir)

    def test_same_seed_byte_identical(self, fast_config, tmp_path, capsys):
        main(["simulate", "--config", fast_config, "--out", str(tmp_path / "a")])
        d1 = run_dir_from(capsys)
        main(["simulate", "--config", fast_config, "--out", str(tmp_path / "b")])
        d2 = run_dir_from(capsys)
        assert read(d1, "records.jsonl") == read(d2, "records.jsonl")
        assert read(d1, "summary.json") == read(d2, "summary.json")

    def test_round_trip_from_emitted_config(self, fast_config, tmp_path, capsys):
        main(["simulate", "--config", fast_config, "--out", str(tmp_path / "a")])
        d1 = run_dir_from(capsys)
        code = main(
            ["simulate", "--config", os.path.join(d1, "config.json"), "--out", str(tmp_path / "b")]
        )
        assert code == EXIT_OK
        d2 = run_dir_from(capsys)
        assert os.path.basename(d1) == os.path.basename(d2)
        assert read(d1, "records.jsonl") == read(d2, "records.jsonl")

    def test_seed_flag_overrides_config(self, fast_config, tmp_path, capsys):
        main(["simulate", "--config", fast_config, "--out", str(tmp_path / "a")])
        d1 = run_dir_from(capsys)
        main(["simulate", "--config", fast_config, "--seed", "8", "--out", str(tmp_path / "b")])
        d2 = run_dir_from(capsys)
        assert read(d1, "records.jsonl") != read(d2, "records.jsonl")

    def test_json_config_ingest(self, tmp_path, capsys):
        cfg = tmp_path / "fast.json"
        cfg.write_text(
            json.dumps(
                {
                    "rates": {"gamma_plus_per_ms": 1.0, "gamma_minus_per_ms": 3.0},
                    "run": {"iterations": 2, "seed": 1},
                    "params": {"repetitions_R": 100000},
                }
            )
        )
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK

    def test_env_var_output_dir(self, fast_config, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SPINRELAX_OUT", str(tmp_path / "from-env"))
        assert main(["simulate", "--config", fast_config]) == EXIT_OK
        run_dir = run_dir_from(capsys)
        assert str(tmp_path / "from-env") in run_dir

    def test_replicates_write_numbered_records(self, fast_config, tmp_path, capsys):
        code = main(
            ["simulate", "--config", fast_config, "--replicates", "2", "--out", str(tmp_path)]
        )
        assert code == EXIT_OK
        run_dir = run_dir_from(capsys)
        assert os.path.exists(os.path.join(run_dir, "records-000.jsonl"))
        assert os.path.exists(os.path.join(run_dir, "records-001.jsonl"))
        summary = json.loads(read(run_dir, "summary.json"))
        assert summary["ensemble"] is not None
        assert len(summary["runs"]) == 2

    def test_nap_optimizer_via_config(self, tmp_path, capsys):
        cfg = tmp_path / "nap.yaml"
        cfg.write_text(
            FAST_YAML
            + "delays:\n  nap_list_ms: [0.05, 0.2]\n"
        )
        code = main(
            ["simulate", "--config", str(cfg), "--optimizer", "nap", "--out", str(tmp_path)]
        )
        assert code == EXIT_OK
        run_dir = run_dir_from(capsys)
        records = read(run_dir, "records.jsonl").strip().split("\n")
        # 4 sweeps over a 2-delay list: one row per probe
        assert len(records) == 8

    def test_pf_optimizer_flag(self, fast_config, tmp_path):
        code = main(
            ["simulate", "--config", fast_config, "--optimizer", "pf", "--out", str(tmp_path)]
        )
        assert code == EXIT_OK


class TestShow:
    def test_renders_units_and_final(self, fast_config, tmp_path, capsys):
        main(["simulate", "--config", fast_config, "--out", str(tmp_path)])
        run_dir = run_dir_from(capsys)
        assert main(["show", run_dir]) == EXIT_OK
        out = capsys.readouterr().out
        assert "tau+_ms" in out and "G+_mean_per_ms" in out and "time_s" in out
        assert "final: G+ =" in out and "/ms" in out


class TestStudyCommands:
    @pytest.mark.parametrize(
        "argv, name",
        [
            (["simulate", "--preset", "fig2"], "simulate-be1889cd15de"),
            (["rank-protocols", "--preset", "fig7"], "rank-protocols-609f02e3d267"),
            (["bias-study", "--preset", "fig6"], "bias-study-3fbec8bf58f1"),
        ],
    )
    def test_preset_run_directory_names(self, tmp_path, argv, name):
        # The name is the hash of the resolved config, so it pins every default.
        assert run_in(tmp_path, argv) == (EXIT_OK, [name])

    def test_speedup_preset_name_without_running(self):
        # As above for fig5, whose study is too long to run here: the hash of
        # the resolved config pins the speedup defaults the library supplies.
        config = _resolve("speedup", build_parser().parse_args(["speedup", "--preset", "fig5"]))
        canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(canonical.encode()).hexdigest()
        assert f"speedup-{digest[:12]}" == "speedup-fa6d94db6f60"

    def test_rank_protocols_artifacts(self, tmp_path, capsys):
        code = main(
            ["rank-protocols", "--ratio-sweep", "0.5:2:3", "--out", str(tmp_path)]
        )
        assert code == EXIT_OK
        run_dir = run_dir_from(capsys)
        ranking = read(run_dir, "ranking.csv").strip().split("\n")
        assert ranking[0] == "protocol,tau_plus_ms,tau_minus_ms,cost_sqrt_s,cost_ratio"
        assert ranking[0].split(",") == list(ProtocolRanking.COLUMNS)
        assert len(ranking) == 37
        assert ranking[1].startswith('"(+0,++),(-0,--)"')
        payload = json.loads(read(run_dir, "ranking.json"))
        assert payload["format"] == "protocol-ranking-v1"
        assert payload["reference"] == OPTIMAL_LABEL
        assert len(payload["entries"]) == 36
        assert ROBUST_LABEL in {e["protocol"] for e in payload["entries"]}
        census = json.loads(read(run_dir, "census.json"))
        assert census["raw_count"] == 6561
        assert census["independent_count"] == 36
        sweep = read(run_dir, "ratio_sweep.csv").strip().split("\n")
        assert sweep[0] == "rate_ratio,cost_robust_sqrt_s,cost_optimal_sqrt_s,cost_ratio"
        assert len(sweep) == 4

    def test_bias_study_artifacts(self, tmp_path, capsys):
        code = main(
            [
                "bias-study",
                "--R",
                "1e3:1e4",
                "--replicates",
                "1000",
                "--seed",
                "3",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == EXIT_OK
        run_dir = run_dir_from(capsys)
        table = read(run_dir, "bias.csv").strip().split("\n")
        assert table[0].split(",")[0] == "R"
        assert table[0].split(",") == list(BiasStudyResult.COLUMNS)
        assert len(table) == 3
        meta = json.loads(read(run_dir, "bias.json"))
        assert meta["tau_ms"] == 0.4
        assert len(meta["rows"]) == 2

    def test_speedup_artifacts(self, tmp_path, capsys):
        code = main(
            [
                "speedup",
                "--rates",
                "2:20:2",
                "--replicates",
                "2",
                "--R",
                "1e5",
                "--seed",
                "5",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == EXIT_OK
        run_dir = run_dir_from(capsys)
        table = read(run_dir, "speedup.csv").strip().split("\n")
        assert table[0].startswith("gamma_plus_per_ms,gamma_minus_per_ms,speedup_plus_mean")
        assert table[0].split(",") == list(SpeedupStudy.COLUMNS)
        assert len(table) == 3
        payload = json.loads(read(run_dir, "speedup.json"))
        assert payload["format"] == "speedup-study-v1"
        assert len(payload["points"]) == 2
        assert payload["points"][0]["pairings"] == 4


def test_table_writer_formats_each_kind():
    text = _table_text(("label", "float", "int", "missing"), [("x", 1.5, 10**6, float("nan"))])
    assert text == 'label,float,int,missing\n"x",1.5,1000000,nan\n'


def test_cli_import_loads_no_scipy():
    # scipy is a test-only dependency; importing it was most of CLI start-up.
    src = os.path.dirname(os.path.dirname(os.path.abspath(spinrelax.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    probe = "import sys, spinrelax.cli; print('scipy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"


def _help_text(command, capsys):
    assert main([command, "--help"]) == EXIT_OK
    return " ".join(capsys.readouterr().out.split())


def test_help_shows_library_defaults(capsys, monkeypatch):
    def replicates(study):
        return inspect.signature(study).parameters["replicates"].default

    expected = {
        "simulate": ["independent replicates (default 1)"],
        "rank-protocols": ["for the ranking table (default 1,3)"],
        "bias-study": ["in /ms (default 1,3)", f"draws per R (default {replicates(bias_study)})"],
        "speedup": [
            "in /ms (default 0.05:100:5)",
            f"per signal (default {SPEEDUP_PARAMS.repetitions_R})",
            f"per arm (default {replicates(speedup_study)})",
        ],
    }
    for command, phrases in expected.items():
        text = _help_text(command, capsys)
        assert all(phrase in text for phrase in phrases), (command, text)
    # The texts follow the defaults rather than restating them.
    monkeypatch.setitem(_DEFAULTS["speedup"]["speedup"], "rate_points", 7)
    monkeypatch.setitem(_DEFAULTS["speedup"]["speedup"], "replicates", 3)
    monkeypatch.setitem(_DEFAULTS["bias-study"]["rates"], "gamma_minus_per_ms", 2.5)
    assert "(default 0.05:100:7)" in _help_text("speedup", capsys)
    assert "per arm (default 3)" in _help_text("speedup", capsys)
    assert "in /ms (default 1,2.5)" in _help_text("bias-study", capsys)
