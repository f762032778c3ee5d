"""Command-line front end: config ingest, study subcommands, artifact export.

Subcommands
    simulate        one or more adaptive / fixed-sweep estimation runs
    rank-protocols  census and cost ranking of the independent protocols
    bias-study      Monte Carlo of the ratio-estimator bias versus R
    speedup         paired adaptive-vs-fixed ensemble speedup sweep
    show            pretty-print a stored run record

Configuration comes from a YAML (or JSON) file plus command-line overrides;
flags win over the file, the file wins over a --preset, presets win over
built-in defaults.  Every run directory receives the fully resolved config
(config.json), the data artifacts, and a manifest (manifest.json) whose
config hash is the sha256 of the canonicalized config, so re-ingesting
config.json reproduces the run byte-for-byte on the deterministic paths.

Exit codes: 0 success, 2 configuration error, 3 runtime error.
"""

import argparse
import dataclasses
import datetime
import hashlib
import json
import os
import sys

import numpy as np
import yaml

from . import __version__
from .design import DelayGrid, TimingModel
from .estimator import bias_study
from .experiments import (
    NAP_DEFAULT_DELAYS,
    ExperimentConfig,
    replicate_seeds,
    run_adaptive,
    run_nap,
    sigma_trace_slope,
    speedup_study,
)
from .posterior import DEFAULT_BOUNDS, GRID_SIZE
from .protocols import IDEAL_RANKING_PARAMS, census, rank_protocols, sensitivity_ratio_curve
from .rates import RatePair
from .signals import SignalParams

OUT_ENV = "SPINRELAX_OUT"
EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

_PRESET_COMMANDS = {
    "fig2": "simulate",
    "fig5": "speedup",
    "fig7": "rank-protocols",
    "fig6": "bias-study",
}


class ConfigError(ValueError):
    """Invalid or incomplete configuration; maps to exit code 2."""


@dataclasses.dataclass(frozen=True)
class RunManifest:
    """Provenance record written next to every artifact set."""

    command: str
    config_sha256: str
    seed: int
    tool_version: str
    created_utc: str
    outputs: tuple


# --------------------------------------------------------------------------
# config assembly


# ExperimentConfig fields exposed, with their defaults, in the run section.
_RUN_FIELDS = (
    "optimizer", "iterations", "seed", "noiseless", "particle_count", "selector_overhead_s"
)


def _simulate_skeleton():
    fields = dataclasses.fields(ExperimentConfig)
    run = {f.name: f.default for f in fields if f.name in _RUN_FIELDS}
    return {
        "rates": {"gamma_plus_per_ms": None, "gamma_minus_per_ms": None},
        "run": {**run, "replicates": 1},
        "params": dataclasses.asdict(SignalParams()),
        "timing": {"overhead_T0_s": 0.0, "per_shot_s": 0.0},
        "prior": {
            "lo_per_ms": DEFAULT_BOUNDS[0],
            "hi_per_ms": DEFAULT_BOUNDS[1],
            "grid_size": GRID_SIZE,
        },
        "delays": {"grid": "default", "nap_list_ms": list(NAP_DEFAULT_DELAYS)},
    }


def _ranking_skeleton():
    return {
        "rates": {"gamma_plus_per_ms": 1.0, "gamma_minus_per_ms": 3.0},
        "params": dataclasses.asdict(IDEAL_RANKING_PARAMS),
        "ranking": {"ratio_lo": None, "ratio_hi": None, "ratio_points": None},
    }


def _bias_skeleton():
    return {
        "rates": {"gamma_plus_per_ms": 1.0, "gamma_minus_per_ms": 3.0},
        "params": dataclasses.asdict(SignalParams()),
        "bias": {
            "tau_ms": 0.4,
            "r_values": [10**3, 10**4, 10**5, 10**6, 10**7],
            "replicates": 10**4,
            "seed": 0,
        },
    }


def _speedup_skeleton():
    return {
        "params": dataclasses.asdict(SignalParams(repetitions_R=10**5)),
        "speedup": {
            "rate_lo_per_ms": 0.05,
            "rate_hi_per_ms": 100.0,
            "rate_points": 5,
            "replicates": 10,
            "adaptive_iterations": 20,
            "budget_factor": 64.0,
            "seed": 0,
        },
    }


_PRESET_OVERLAYS = {
    # standard adaptive simulation: truth (1, 3) /ms, 30 NOB iterations
    "fig2": {"rates": {"gamma_plus_per_ms": 1.0, "gamma_minus_per_ms": 3.0}},
    # diagonal speedup sweep at reduced scale (defaults already match)
    "fig5": {},
    # ideal-parameter ranking with the standard asymmetry sweep
    "fig7": {"ranking": {"ratio_lo": 0.125, "ratio_hi": 8.0, "ratio_points": 25}},
    # estimator-bias table over five decades of R (defaults already match)
    "fig6": {},
}

_KNOWN_SECTIONS = ("rates", "run", "params", "timing", "prior", "delays", "ranking", "bias", "speedup")


def _load_config_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            loaded = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {path} does not parse: {exc}") from exc
    if loaded is None:
        loaded = {}
    if not isinstance(loaded, dict):
        raise ConfigError(f"config file {path} must hold a mapping at top level")
    for section in loaded:
        if section not in _KNOWN_SECTIONS:
            raise ConfigError(f"unknown config section: {section}")
    return loaded


def _merge_overlay(config, overlay, strict_sections):
    """Overlay known sections onto the skeleton, naming any unknown field.

    Sections outside the command's skeleton are ignored when they are valid
    elsewhere (shared config files), but fields inside a consumed section
    must exist in the skeleton.
    """
    for section, content in overlay.items():
        if section not in config:
            continue
        if not isinstance(content, dict):
            raise ConfigError(f"config section {section} must be a mapping")
        for key, value in content.items():
            if strict_sections and key not in config[section]:
                raise ConfigError(f"unknown config field: {section}.{key}")
            config[section][key] = value
    return config


def _require(config, section, key):
    value = config.get(section, {}).get(key)
    if value is None:
        raise ConfigError(f"missing required field: {section}.{key}")
    return value


def _number(raw, field, kind, positive=False, nonnegative=False):
    if isinstance(raw, bool):
        raise ConfigError(f"field {field} must be a {kind.__name__}: got {raw!r}")
    try:
        value = kind(raw)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"field {field} must be a {kind.__name__}: got {raw!r}")
    if kind is int and isinstance(raw, float) and raw != value:
        raise ConfigError(f"field {field} must be an integer: got {raw!r}")
    if positive and not value > 0:
        raise ConfigError(f"field {field} must be positive: got {raw!r}")
    if nonnegative and value < 0:
        raise ConfigError(f"field {field} must be nonnegative: got {raw!r}")
    return value


def _coerce_number(config, section, key, kind, positive=False, nonnegative=False):
    value = _number(config[section][key], f"{section}.{key}", kind, positive, nonnegative)
    config[section][key] = value
    return value


def _preset_overlay(preset, command):
    if preset is None:
        return {}
    expected = _PRESET_COMMANDS[preset]
    if expected != command:
        raise ConfigError(
            f"preset {preset} configures '{expected}', not '{command}'"
        )
    return _PRESET_OVERLAYS[preset]


def _assemble(command, skeleton, args, flag_overlay):
    config = skeleton
    _merge_overlay(config, _preset_overlay(getattr(args, "preset", None), command), True)
    if getattr(args, "config", None):
        _merge_overlay(config, _load_config_file(args.config), True)
    _merge_overlay(config, flag_overlay, True)
    return config


# --------------------------------------------------------------------------
# flag value parsers


def _parse_rate_pair(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"--rates expects 'G+,G-' in /ms: got {text!r}")
    try:
        pair = (float(parts[0]), float(parts[1]))
    except ValueError:
        raise ConfigError(f"--rates expects two numbers: got {text!r}")
    if not all(v > 0 for v in pair):
        raise ConfigError(f"--rates must be positive: got {text!r}")
    return pair


def _parse_geom_range(text, flag, default_points):
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise ConfigError(f"{flag} expects 'LO:HI' or 'LO:HI:N': got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        points = int(parts[2]) if len(parts) == 3 else default_points
    except ValueError:
        raise ConfigError(f"{flag} expects numbers: got {text!r}")
    if not (0 < lo < hi and points >= 2):
        raise ConfigError(f"{flag} needs 0 < LO < HI and N >= 2: got {text!r}")
    return lo, hi, points


def _parse_r_values(text):
    """--R for bias-study: 'LO:HI' spans whole decades; a single value is one row."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 2:
            raise ConfigError(f"--R expects 'LO:HI' or a single value: got {text!r}")
        try:
            lo, hi = float(parts[0]), float(parts[1])
        except ValueError:
            raise ConfigError(f"--R expects numbers: got {text!r}")
        if not (1 <= lo < hi):
            raise ConfigError(f"--R needs 1 <= LO < HI: got {text!r}")
        lo_dec = int(np.ceil(np.log10(lo) - 1e-9))
        hi_dec = int(np.floor(np.log10(hi) + 1e-9))
        if lo_dec > hi_dec:
            raise ConfigError(f"--R range {text!r} spans no whole decade")
        return [10**d for d in range(lo_dec, hi_dec + 1)]
    return [_parse_repetitions(text)]


def _parse_repetitions(text):
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"--R expects a number: got {text!r}")
    if not (value >= 1 and value == int(value)):
        raise ConfigError(f"--R must be a positive integer: got {text!r}")
    return int(value)


# --------------------------------------------------------------------------
# artifact writing


def _canonical_json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _config_hash(config):
    return hashlib.sha256(_canonical_json(config).encode("utf-8")).hexdigest()


def _out_root(args):
    return args.out or os.environ.get(OUT_ENV) or "runs"


def _prepare_run_dir(args, command, config):
    digest = _config_hash(config)
    run_dir = os.path.join(_out_root(args), f"{command}-{digest[:12]}")
    os.makedirs(run_dir, exist_ok=True)
    _write_json(os.path.join(run_dir, "config.json"), config)
    return run_dir, digest


def _write_text(path, text):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _write_json(path, obj):
    _write_text(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _table_cell(value):
    if isinstance(value, str):
        return f'"{value}"'
    if isinstance(value, (int, np.integer)):
        return str(value)
    return f"{value:.6g}"


def _table_text(columns, rows):
    """CSV of a result table: floats as .6g, ints as they are, labels quoted."""
    lines = [",".join(columns)] + [",".join(map(_table_cell, row)) for row in rows]
    return "\n".join(lines) + "\n"


def _finish(run_dir, command, digest, seed, outputs):
    manifest = RunManifest(
        command=command,
        config_sha256=digest,
        seed=seed,
        tool_version=__version__,
        created_utc=datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        outputs=tuple(outputs),
    )
    _write_json(os.path.join(run_dir, "manifest.json"), dataclasses.asdict(manifest))
    print(run_dir)
    return EXIT_OK


# --------------------------------------------------------------------------
# subcommands


def _signal_params(config):
    section = dict(config["params"])
    for key in ("f0", "contrast_C", "alpha", "eta_plus", "eta_minus", "background"):
        _coerce_number(config, "params", key, float, nonnegative=True)
        section[key] = config["params"][key]
    reps = _coerce_number(config, "params", "repetitions_R", int, positive=True)
    section["repetitions_R"] = reps
    try:
        return SignalParams(**section)
    except ValueError as exc:
        raise ConfigError(f"invalid params section: {exc}") from exc


def _rate_pair(config):
    gp = _require(config, "rates", "gamma_plus_per_ms")
    gm = _require(config, "rates", "gamma_minus_per_ms")
    gp = _coerce_number(config, "rates", "gamma_plus_per_ms", float, positive=True)
    gm = _coerce_number(config, "rates", "gamma_minus_per_ms", float, positive=True)
    return RatePair(gp, gm)


def _delay_grid(config):
    spec = config["delays"]["grid"]
    if spec == "default":
        return DelayGrid.default()
    if spec == "wide":
        return DelayGrid.wide()
    if isinstance(spec, dict):
        kinds = {"lo_ms": float, "hi_ms": float, "points": int}
        for key in spec:
            if key not in kinds:
                raise ConfigError(f"unknown config field: delays.grid.{key}")
        bounds = [_number(spec.get(key), f"delays.grid.{key}", kind) for key, kind in kinds.items()]
        try:
            return DelayGrid.from_bounds(*bounds)
        except ValueError as exc:
            raise ConfigError(f"invalid delays.grid mapping: {exc}") from exc
    raise ConfigError(
        f"field delays.grid must be 'default', 'wide', or a lo_ms/hi_ms/points mapping: got {spec!r}"
    )


def _experiment_config(config, seed):
    rates = _rate_pair(config)
    params = _signal_params(config)
    run = config["run"]
    if run["optimizer"] not in ("nob", "pf", "nap"):
        raise ConfigError(f"field run.optimizer must be nob, pf, or nap: got {run['optimizer']!r}")
    if not isinstance(run["noiseless"], bool):
        raise ConfigError(f"field run.noiseless must be true or false: got {run['noiseless']!r}")
    iterations = _coerce_number(config, "run", "iterations", int, nonnegative=True)
    _coerce_number(config, "run", "particle_count", int, positive=True)
    _coerce_number(config, "run", "selector_overhead_s", float, nonnegative=True)
    _coerce_number(config, "timing", "overhead_T0_s", float, nonnegative=True)
    _coerce_number(config, "timing", "per_shot_s", float, nonnegative=True)
    lo = _coerce_number(config, "prior", "lo_per_ms", float, positive=True)
    hi = _coerce_number(config, "prior", "hi_per_ms", float, positive=True)
    if not lo < hi:
        raise ConfigError("field prior.hi_per_ms must exceed prior.lo_per_ms")
    grid_size = _coerce_number(config, "prior", "grid_size", int, positive=True)
    nap_list = config["delays"]["nap_list_ms"]
    if not isinstance(nap_list, (list, tuple)) or not nap_list:
        raise ConfigError("field delays.nap_list_ms must be a nonempty list of delays in ms")
    nap_list = [_number(v, "delays.nap_list_ms", float) for v in nap_list]
    timing = TimingModel(
        repetitions_R=params.repetitions_R,
        overhead_T0=config["timing"]["overhead_T0_s"],
        per_shot_time=config["timing"]["per_shot_s"],
    )
    try:
        return ExperimentConfig(
            true_rates=rates,
            params=params,
            optimizer=run["optimizer"],
            iterations=iterations,
            nap_delays=tuple(nap_list) if run["optimizer"] == "nap" else (),
            delay_grid=_delay_grid(config),
            prior_bounds=(lo, hi),
            grid_size=grid_size,
            timing=timing,
            seed=seed,
            noiseless=run["noiseless"],
            particle_count=run["particle_count"],
            selector_overhead_s=run["selector_overhead_s"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _run_summary(record, seed):
    summary = record.summary_dict()
    summary["seed"] = seed
    try:
        summary["sigma_slope_plus"] = sigma_trace_slope(record, "+")
        summary["sigma_slope_minus"] = sigma_trace_slope(record, "-")
    except ValueError:
        summary["sigma_slope_plus"] = None
        summary["sigma_slope_minus"] = None
    return summary


def _ensemble_stats(summaries):
    keys = (
        "gamma_plus_mean_per_ms",
        "gamma_minus_mean_per_ms",
        "gamma_plus_sigma_per_ms",
        "gamma_minus_sigma_per_ms",
        "total_time_s",
        "duty_cycle",
    )
    stats = {}
    for key in keys:
        values = np.array([s[key] for s in summaries], dtype=float)
        stats[key] = {"mean": float(values.mean()), "std": float(values.std(ddof=1))}
    return stats


def cmd_simulate(args):
    flag_overlay = {"rates": {}, "run": {}, "params": {}}
    if args.rates is not None:
        gp, gm = _parse_rate_pair(args.rates)
        flag_overlay["rates"] = {"gamma_plus_per_ms": gp, "gamma_minus_per_ms": gm}
    if args.seed is not None:
        flag_overlay["run"]["seed"] = args.seed
    if args.replicates is not None:
        flag_overlay["run"]["replicates"] = args.replicates
    if args.optimizer is not None:
        flag_overlay["run"]["optimizer"] = args.optimizer
    if args.R is not None:
        flag_overlay["params"]["repetitions_R"] = _parse_repetitions(args.R)
    config = _assemble("simulate", _simulate_skeleton(), args, flag_overlay)

    base_seed = _coerce_number(config, "run", "seed", int, nonnegative=True)
    replicates = _coerce_number(config, "run", "replicates", int, positive=True)
    experiment = _experiment_config(config, base_seed)  # coerces before config.json
    run_dir, digest = _prepare_run_dir(args, "simulate", config)
    seeds = [base_seed] if replicates == 1 else replicate_seeds(base_seed, replicates)

    outputs = ["config.json"]
    summaries = []
    runner = run_nap if experiment.optimizer == "nap" else run_adaptive
    for index, seed in enumerate(seeds):
        record = runner(dataclasses.replace(experiment, seed=seed))
        name = "records.jsonl" if replicates == 1 else f"records-{index:03d}.jsonl"
        _write_text(os.path.join(run_dir, name), record.to_jsonl())
        outputs.append(name)
        summaries.append(_run_summary(record, seed))
    payload = {
        "command": "simulate",
        "replicates": replicates,
        "runs": summaries,
        "ensemble": _ensemble_stats(summaries) if replicates > 1 else None,
    }
    _write_json(os.path.join(run_dir, "summary.json"), payload)
    outputs.append("summary.json")
    return _finish(run_dir, "simulate", digest, base_seed, outputs)


_RATIO_SWEEP_COLUMNS = ("rate_ratio", "cost_robust_sqrt_s", "cost_optimal_sqrt_s", "cost_ratio")


def cmd_rank_protocols(args):
    flag_overlay = {"rates": {}, "ranking": {}}
    if args.rates is not None:
        gp, gm = _parse_rate_pair(args.rates)
        flag_overlay["rates"] = {"gamma_plus_per_ms": gp, "gamma_minus_per_ms": gm}
    if args.ratio_sweep is not None:
        lo, hi, points = _parse_geom_range(args.ratio_sweep, "--ratio-sweep", 25)
        flag_overlay["ranking"] = {"ratio_lo": lo, "ratio_hi": hi, "ratio_points": points}
    config = _assemble("rank-protocols", _ranking_skeleton(), args, flag_overlay)

    rates = _rate_pair(config)
    params = _signal_params(config)
    ratios = None
    missing = [f"ranking.{key}" for key, value in config["ranking"].items() if value is None]
    if missing and len(missing) < len(config["ranking"]):
        raise ConfigError(f"the ratio sweep needs every ranking field; missing: {', '.join(missing)}")
    if not missing:
        kinds = {"ratio_lo": float, "ratio_hi": float, "ratio_points": int}
        ratios = np.geomspace(
            *(_coerce_number(config, "ranking", k, kind, positive=True) for k, kind in kinds.items())
        )
    run_dir, digest = _prepare_run_dir(args, "rank-protocols", config)
    outputs = ["config.json"]

    report = census()
    _write_json(os.path.join(run_dir, "census.json"), dataclasses.asdict(report))
    outputs.append("census.json")

    ranking = rank_protocols(rates, params)
    columns, table = ranking.COLUMNS, ranking.table
    _write_text(os.path.join(run_dir, "ranking.csv"), _table_text(columns, table))
    payload = {
        "format": "protocol-ranking-v1",
        "reference": ranking.reference_label,
        "entries": [dict(zip(columns, row)) for row in table],
    }
    _write_json(os.path.join(run_dir, "ranking.json"), payload)
    outputs.extend(["ranking.csv", "ranking.json"])

    if ratios is not None:
        rows = sensitivity_ratio_curve(ratios, params=params)
        text = _table_text(_RATIO_SWEEP_COLUMNS, rows)
        _write_text(os.path.join(run_dir, "ratio_sweep.csv"), text)
        outputs.append("ratio_sweep.csv")

    return _finish(run_dir, "rank-protocols", digest, 0, outputs)


def cmd_bias_study(args):
    flag_overlay = {"rates": {}, "bias": {}}
    if args.rates is not None:
        gp, gm = _parse_rate_pair(args.rates)
        flag_overlay["rates"] = {"gamma_plus_per_ms": gp, "gamma_minus_per_ms": gm}
    if args.R is not None:
        flag_overlay["bias"]["r_values"] = _parse_r_values(args.R)
    if args.replicates is not None:
        flag_overlay["bias"]["replicates"] = args.replicates
    if args.seed is not None:
        flag_overlay["bias"]["seed"] = args.seed
    config = _assemble("bias-study", _bias_skeleton(), args, flag_overlay)

    rates = _rate_pair(config)
    params = _signal_params(config)
    tau = _coerce_number(config, "bias", "tau_ms", float, positive=True)
    replicates = _coerce_number(config, "bias", "replicates", int, positive=True)
    seed = _coerce_number(config, "bias", "seed", int, nonnegative=True)
    r_values = config["bias"]["r_values"]
    if not isinstance(r_values, (list, tuple)) or not r_values:
        raise ConfigError("field bias.r_values must be a nonempty list of repetition counts")
    r_values = [_number(r, "bias.r_values", int, positive=True) for r in r_values]
    config["bias"]["r_values"] = r_values

    run_dir, digest = _prepare_run_dir(args, "bias-study", config)
    result = bias_study(params, rates, tau, r_values, replicates=replicates, seed=seed)
    _write_text(os.path.join(run_dir, "bias.csv"), _table_text(result.COLUMNS, result.table))
    meta = {
        "command": "bias-study",
        "tau_ms": tau,
        "replicates": replicates,
        "m_true": result.m_true,
        "delta_per_repetition_counts": result.delta_per_repetition,
        "rows": [dataclasses.asdict(row) for row in result.rows],
    }
    _write_json(os.path.join(run_dir, "bias.json"), meta)
    return _finish(
        run_dir, "bias-study", digest, seed, ["config.json", "bias.csv", "bias.json"]
    )


def cmd_speedup(args):
    flag_overlay = {"params": {}, "speedup": {}}
    if args.rates is not None:
        lo, hi, points = _parse_geom_range(args.rates, "--rates", 5)
        flag_overlay["speedup"] = {
            "rate_lo_per_ms": lo,
            "rate_hi_per_ms": hi,
            "rate_points": points,
        }
    if args.R is not None:
        flag_overlay["params"]["repetitions_R"] = _parse_repetitions(args.R)
    if args.replicates is not None:
        flag_overlay["speedup"]["replicates"] = args.replicates
    if args.seed is not None:
        flag_overlay["speedup"]["seed"] = args.seed
    config = _assemble("speedup", _speedup_skeleton(), args, flag_overlay)

    params = _signal_params(config)
    section = config["speedup"]
    lo = _coerce_number(config, "speedup", "rate_lo_per_ms", float, positive=True)
    hi = _coerce_number(config, "speedup", "rate_hi_per_ms", float, positive=True)
    if not lo < hi:
        raise ConfigError("field speedup.rate_hi_per_ms must exceed speedup.rate_lo_per_ms")
    points = _coerce_number(config, "speedup", "rate_points", int, positive=True)
    replicates = _coerce_number(config, "speedup", "replicates", int, positive=True)
    iterations = _coerce_number(config, "speedup", "adaptive_iterations", int, positive=True)
    budget = _coerce_number(config, "speedup", "budget_factor", float, positive=True)
    seed = _coerce_number(config, "speedup", "seed", int, nonnegative=True)

    run_dir, digest = _prepare_run_dir(args, "speedup", config)
    pairs = [(g, g) for g in np.geomspace(lo, hi, points)]
    study = speedup_study(
        pairs,
        params=params,
        replicates=replicates,
        adaptive_iterations=iterations,
        budget_factor=budget,
        seed=seed,
    )
    _write_text(os.path.join(run_dir, "speedup.csv"), _table_text(study.COLUMNS, study.table))
    payload = {
        "format": "speedup-study-v1",
        "replicates": study.replicates,
        "points": [dict(zip(study.COLUMNS, row)) for row in study.table],
    }
    _write_json(os.path.join(run_dir, "speedup.json"), payload)
    return _finish(
        run_dir, "speedup", digest, seed, ["config.json", "speedup.csv", "speedup.json"]
    )


_SHOW_COLUMNS = (
    ("iteration", "iteration", "d"),
    ("tau_plus_ms", "tau+_ms", "g"),
    ("tau_minus_ms", "tau-_ms", "g"),
    ("gamma_plus_mean_per_ms", "G+_mean_per_ms", "g"),
    ("gamma_plus_sigma_per_ms", "G+_sigma_per_ms", "g"),
    ("gamma_minus_mean_per_ms", "G-_mean_per_ms", "g"),
    ("gamma_minus_sigma_per_ms", "G-_sigma_per_ms", "g"),
    ("cumulative_time_s", "time_s", "g"),
    ("flagged", "flagged", "s"),
)


def _records_path(target):
    if os.path.isdir(target):
        for name in ("records.jsonl", "records-000.jsonl"):
            candidate = os.path.join(target, name)
            if os.path.exists(candidate):
                return candidate
        raise ConfigError(f"no records.jsonl found under {target}")
    if os.path.exists(target):
        return target
    raise ConfigError(f"no such run record: {target}")


def cmd_show(args):
    path = _records_path(args.target)
    with open(path, "r", encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    if not rows:
        print(f"{path}: empty record")
        return EXIT_OK

    table = [[header for _, header, _ in _SHOW_COLUMNS]]
    for row in rows:
        rendered = []
        for key, _, kind in _SHOW_COLUMNS:
            value = row.get(key)
            if value is None:
                rendered.append("-")
            elif kind == "d":
                rendered.append(f"{value:d}")
            elif kind == "g":
                rendered.append(f"{value:.6g}")
            else:
                rendered.append(str(value))
        table.append(rendered)
    widths = [max(len(line[i]) for line in table) for i in range(len(table[0]))]
    for line in table:
        print("  ".join(cell.rjust(width) for cell, width in zip(line, widths)))

    last = rows[-1]
    print()
    print(f"source: {path}")
    print(
        "final: G+ = {0:.6g} +- {1:.6g} /ms, G- = {2:.6g} +- {3:.6g} /ms".format(
            last["gamma_plus_mean_per_ms"],
            last["gamma_plus_sigma_per_ms"],
            last["gamma_minus_mean_per_ms"],
            last["gamma_minus_sigma_per_ms"],
        )
    )
    summary_path = os.path.join(os.path.dirname(path), "summary.json")
    if os.path.exists(summary_path):
        with open(summary_path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        runs = payload.get("runs", [])
        if runs:
            total = runs[0].get("total_time_s")
            duty = runs[0].get("duty_cycle")
            if total is not None and duty is not None:
                print(f"clock: {total:.6g} s total, duty cycle {duty:.4f}")
    return EXIT_OK


# --------------------------------------------------------------------------
# parser


def _add_common(parser, rates_help):
    parser.add_argument("--config", metavar="FILE", help="YAML or JSON configuration file")
    parser.add_argument(
        "--preset",
        choices=sorted(_PRESET_COMMANDS),
        help="named parameter set (each applies to one subcommand)",
    )
    parser.add_argument("--out", metavar="DIR", help=f"output directory (default ${OUT_ENV} or ./runs)")
    parser.add_argument("--seed", type=int, help="base random seed")
    parser.add_argument("--rates", metavar="SPEC", help=rates_help)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="spinrelax",
        description="Simulated three-level relaxometry: adaptive runs, protocol ranking, estimator bias, and speedup studies.",
    )
    parser.add_argument("--version", action="version", version=f"spinrelax {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run adaptive or fixed-sweep estimation")
    _add_common(p, "true rates 'G+,G-' in /ms (required unless config or preset provides them)")
    p.add_argument("--replicates", type=int, metavar="N", help="independent replicates (default 1)")
    p.add_argument("--R", metavar="N", help="pulse-sequence repetitions per signal")
    p.add_argument("--optimizer", choices=("nob", "pf", "nap"), help="delay scheduler")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("rank-protocols", help="census and cost ranking of measurement protocols")
    _add_common(p, "rate point 'G+,G-' in /ms for the ranking table (default 1,3)")
    p.add_argument(
        "--ratio-sweep",
        metavar="LO:HI[:N]",
        help="also sweep the rate asymmetry G+/G- geometrically",
    )
    p.set_defaults(func=cmd_rank_protocols)

    p = sub.add_parser("bias-study", help="ratio-estimator bias versus repetition count")
    _add_common(p, "true rates 'G+,G-' in /ms (default 1,3)")
    p.add_argument("--R", metavar="LO:HI", help="repetition range, expanded to whole decades")
    p.add_argument("--replicates", type=int, metavar="N", help="Monte Carlo draws per R (default 10000)")
    p.set_defaults(func=cmd_bias_study)

    p = sub.add_parser("speedup", help="adaptive-vs-fixed-sweep speedup over true rates")
    _add_common(p, "diagonal rate sweep 'LO:HI[:N]' in /ms (default 0.05:100:5)")
    p.add_argument("--R", metavar="N", help="pulse-sequence repetitions per signal (default 1e5)")
    p.add_argument("--replicates", type=int, metavar="N", help="replicates per arm (default 10)")
    p.set_defaults(func=cmd_speedup)

    p = sub.add_parser("show", help="pretty-print a stored run record")
    p.add_argument("target", help="run directory or records.jsonl path")
    p.set_defaults(func=cmd_show)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except KeyboardInterrupt:
        raise
    except Exception as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
