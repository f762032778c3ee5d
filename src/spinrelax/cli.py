"""Command-line front end: config ingest, study subcommands, artifact export.

Subcommands
    simulate        one or more adaptive / fixed-sweep estimation runs
    rank-protocols  census and cost ranking of the independent protocols
    bias-study      Monte Carlo of the ratio-estimator bias versus R
    speedup         paired adaptive-vs-fixed ensemble speedup sweep
    show            pretty-print a stored run record

A study command resolves its config in one pass.  It starts from the
command's built-in defaults and applies the --preset, the YAML (or JSON)
--config file and the flags, in that order; a flag only splits its text into
config fields, so a flag and a file entry meet the same checks.  Every field
is coerced once to its kind in _KINDS, which rejects YAML booleans,
non-integral integers and non-finite numbers by `section.field` name.  The
library objects (RatePair, SignalParams, TimingModel, DelayGrid,
ExperimentConfig) then check their own domains, and _check_ranges checks the
few fields no library object checks before work starts.  The command
returns its outputs as text, and only when it has succeeded is the run
directory written: the coerced config (config.json), the outputs, and a
manifest (manifest.json) whose config hash is the sha256 of the
canonicalized config, so re-ingesting config.json reproduces the run
byte-for-byte on the deterministic paths.

Exit codes: 0 success, 2 configuration error, 3 runtime error.  Neither
error leaves a run directory.
"""

import argparse
import copy
import dataclasses
import datetime
import fractions
import hashlib
import inspect
import json
import math
import os
import platform
import sys

import numpy as np
import yaml

from . import __version__
from .design import DEFAULT_GRID, DelayGrid, TimingModel
from .estimator import bias_study
from .experiments import (
    NAP_DEFAULT_DELAYS,
    SPEEDUP_PARAMS,
    ExperimentConfig,
    replicate_seeds,
    run_adaptive,
    run_nap,
    sigma_trace_slope,
    speedup_study,
)
from .protocols import IDEAL_RANKING_PARAMS, census, rank_protocols, sensitivity_ratio_curve
from .rates import RatePair
from .signals import SignalParams

OUT_ENV = "SPINRELAX_OUT"
EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


class ConfigError(ValueError):
    """Invalid or incomplete configuration; maps to exit code 2."""


@dataclasses.dataclass(frozen=True)
class RunManifest:
    """Provenance record written next to every artifact set.

    The Python and numpy versions sit outside the config hash: seeded
    outputs are bit-identical only under the same numpy kernels.
    """

    command: str
    config_sha256: str
    seed: int
    tool_version: str
    python_version: str
    numpy_version: str
    created_utc: str
    outputs: tuple


# --------------------------------------------------------------------------
# config: defaults, kinds and rules


# The truth of the standard simulations, in /ms.
_TRUTH = {"gamma_plus_per_ms": 1.0, "gamma_minus_per_ms": 3.0}
# The run section's ExperimentConfig fields, under the same names.
_RUN_FIELDS = (
    "optimizer", "iterations", "seed", "noiseless", "particle_count", "selector_overhead_s"
)
_SIGNAL = dataclasses.asdict(SignalParams())
_SWEEPS = {
    "ranking": ("ratio_lo", "ratio_hi", "ratio_points"),
    "speedup": ("rate_lo_per_ms", "rate_hi_per_ms", "rate_points"),
}


def _defaults(function, *names):
    """{name: default} of the named arguments of a library function or dataclass."""
    parameters = inspect.signature(function).parameters
    return {name: parameters[name].default for name in names}


_EXPERIMENT = _defaults(ExperimentConfig, *_RUN_FIELDS, "prior_bounds", "grid_size")
_TIMING = _defaults(TimingModel, "overhead_T0", "per_shot_time")

# Each command's config before the preset, the file and the flags.
_DEFAULTS = {
    "simulate": {
        "rates": dict.fromkeys(_TRUTH),
        "run": {**{key: _EXPERIMENT[key] for key in _RUN_FIELDS}, "replicates": 1},
        "params": _SIGNAL,
        "timing": {"overhead_T0_s": _TIMING["overhead_T0"], "per_shot_s": _TIMING["per_shot_time"]},
        "prior": {
            "lo_per_ms": _EXPERIMENT["prior_bounds"][0],
            "hi_per_ms": _EXPERIMENT["prior_bounds"][1],
            "grid_size": _EXPERIMENT["grid_size"],
        },
        "delays": {"grid": "default", "nap_list_ms": list(NAP_DEFAULT_DELAYS)},
    },
    "rank-protocols": {
        "rates": _TRUTH,
        "params": dataclasses.asdict(IDEAL_RANKING_PARAMS),
        "ranking": dict.fromkeys(_SWEEPS["ranking"]),
    },
    "bias-study": {
        "rates": _TRUTH,
        "params": _SIGNAL,
        "bias": {
            "tau_ms": 0.4,
            "r_values": [10**3, 10**4, 10**5, 10**6, 10**7],
            **_defaults(bias_study, "replicates", "seed"),
        },
    },
    "speedup": {
        "params": dataclasses.asdict(SPEEDUP_PARAMS),
        "speedup": {
            "rate_lo_per_ms": 0.05,
            "rate_hi_per_ms": 100.0,
            "rate_points": 5,
            **_defaults(speedup_study, "replicates", "adaptive_iterations", "budget_factor", "seed"),
        },
    },
}

# preset: (the command it configures, its overlay)
_PRESETS = {
    # standard adaptive simulation: truth (1, 3) /ms, 30 NOB iterations
    "fig2": ("simulate", {"rates": _TRUTH}),
    # diagonal speedup sweep at reduced scale (defaults already match)
    "fig5": ("speedup", {}),
    # ideal-parameter ranking with the standard asymmetry sweep
    "fig7": ("rank-protocols", {"ranking": dict(zip(_SWEEPS["ranking"], (0.125, 8.0, 25)))}),
    # estimator-bias table over five decades of R (defaults already match)
    "fig6": ("bias-study", {}),
}

# The kind of every field: float, int, bool, str, [kind] for a nonempty
# list, or a mapping of subfields (delays.grid, which may also be a name).
_KINDS = {
    "rates": dict.fromkeys(_TRUTH, float),
    "run": {
        "optimizer": str,
        "iterations": int,
        "seed": int,
        "noiseless": bool,
        "particle_count": int,
        "selector_overhead_s": float,
        "replicates": int,
    },
    "params": {**dict.fromkeys(_SIGNAL, float), "repetitions_R": int},
    "timing": {"overhead_T0_s": float, "per_shot_s": float},
    "prior": {"lo_per_ms": float, "hi_per_ms": float, "grid_size": int},
    "delays": {"grid": {"lo_ms": float, "hi_ms": float, "points": int}, "nap_list_ms": [float]},
    "ranking": {"ratio_lo": float, "ratio_hi": float, "ratio_points": int},
    "bias": {"tau_ms": float, "r_values": [int], "replicates": int, "seed": int},
    "speedup": {
        "rate_lo_per_ms": float,
        "rate_hi_per_ms": float,
        "rate_points": int,
        "replicates": int,
        "adaptive_iterations": int,
        "budget_factor": float,
        "seed": int,
    },
}
_GRID_NAMES = {"default": DEFAULT_GRID, "wide": DelayGrid.wide()}

# Ranges of the fields that no library object checks before work starts
# (the ranking and speedup sweeps are checked by _check_ranges itself).
_RANGES = {
    **dict.fromkeys(("bias.seed", "speedup.seed"), (lambda v: v >= 0, "nonnegative")),
    "run.replicates": (lambda v: v >= 1, "at least 1"),
    "bias.replicates": (lambda v: v >= 1000, "at least 1000"),
    "speedup.replicates": (lambda v: v >= 2, "at least 2"),
    "bias.tau_ms": (lambda v: v > 0, "positive"),
    "bias.r_values": (lambda v: min(v) > 0, "positive"),
    "speedup.adaptive_iterations": (lambda v: v > 0, "positive"),
    "speedup.budget_factor": (lambda v: v > 0, "positive"),
}


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
    return loaded


def _merge_overlay(config, overlay):
    """Overlay the command's sections onto its config, naming any unknown field.

    Sections the command does not use are ignored, so one file can serve
    several commands, but every field of a section it uses must exist.
    """
    for section, content in overlay.items():
        if section not in _KINDS:
            raise ConfigError(f"unknown config section: {section}")
        if section not in config:
            continue
        if not isinstance(content, dict):
            raise ConfigError(f"config section {section} must be a mapping")
        for key, value in content.items():
            if key not in config[section]:
                raise ConfigError(f"unknown config field: {section}.{key}")
            config[section][key] = value


def _split(text, flag, names, sep, last=None):
    """A flag's text split into the named fields; `last` fills an omitted last part."""
    parts = text.split(sep)
    if last is not None and len(parts) == len(names) - 1:
        parts.append(last)
    if len(parts) != len(names):
        raise ConfigError(f"{flag} expects {len(names)} values separated by {sep!r}: got {text!r}")
    return dict(zip(names, parts))


def _decades(text):
    """--R for bias-study: 'LO:HI' spans whole decades; a single value is one row."""
    if ":" not in text:
        return [text]
    try:
        lo, hi = map(float, text.split(":"))
    except ValueError:
        raise ConfigError(f"--R expects 'LO:HI' or a single value: got {text!r}") from None
    if not 1 <= lo < hi < math.inf:
        raise ConfigError(f"--R needs 1 <= LO < HI: got {text!r}")
    decades = range(math.ceil(math.log10(lo) - 1e-9), math.floor(math.log10(hi) + 1e-9) + 1)
    if not decades:
        raise ConfigError(f"--R range {text!r} spans no whole decade")
    return [10**d for d in decades]


def _flag_fields(command, args):
    """The config fields the flags set; a flag only splits its text into fields."""
    given = {flag: value for flag, value in vars(args).items() if value is not None}
    own = {"simulate": "run", "rank-protocols": "ranking", "bias-study": "bias"}.get(
        command, command
    )
    # A flag named after a field of the command's own section (--seed, --replicates,
    # --optimizer) sets it.
    fields = {own: {key: given[key] for key in _KINDS[own].keys() & given.keys()}}
    if "rates" in given and command == "speedup":
        points = _DEFAULTS["speedup"]["speedup"]["rate_points"]
        fields[own].update(_split(given["rates"], "--rates", _SWEEPS[own], ":", points))
    elif "rates" in given:
        fields["rates"] = _split(given["rates"], "--rates", tuple(_TRUTH), ",")
    if "ratio_sweep" in given:
        points = _PRESETS["fig7"][1]["ranking"]["ratio_points"]
        fields[own].update(_split(given["ratio_sweep"], "--ratio-sweep", _SWEEPS[own], ":", points))
    if "R" in given and command == "bias-study":
        fields[own]["r_values"] = _decades(given["R"])
    elif "R" in given:
        fields["params"] = {"repetitions_R": given["R"]}
    return fields


def _number(raw, name, kind):
    """A finite float, or an exact integer however written (100000, '1e5', 100000.0)."""
    try:
        if isinstance(raw, bool):
            raise TypeError
        value = float(raw)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"field {name} must be a number: got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"field {name} must be finite: got {raw!r}")
    if kind is float:
        return value
    exact = fractions.Fraction(raw)
    if exact.denominator != 1:
        raise ConfigError(f"field {name} must be an integer: got {raw!r}")
    return int(exact)


def _coerce(raw, name, kind):
    """One field coerced to its kind from _KINDS."""
    if kind in (float, int):
        return _number(raw, name, kind)
    if isinstance(kind, list):
        if not isinstance(raw, list) or not raw:
            raise ConfigError(f"field {name} must be a nonempty list: got {raw!r}")
        return [_number(value, name, kind[0]) for value in raw]
    if isinstance(kind, dict):
        if isinstance(raw, str) and raw in _GRID_NAMES:
            return raw
        if not isinstance(raw, dict):
            names = ", ".join(map(repr, _GRID_NAMES))
            mapping = "/".join(kind)
            raise ConfigError(f"field {name} must be {names} or a {mapping} mapping: got {raw!r}")
        for key in raw:
            if key not in kind:
                raise ConfigError(f"unknown config field: {name}.{key}")
        return {key: _number(raw.get(key), f"{name}.{key}", sub) for key, sub in kind.items()}
    if not isinstance(raw, kind):
        raise ConfigError(f"field {name} must be a {kind.__name__}: got {raw!r}")
    return raw


def _check_ranges(config):
    for name, (ok, rule) in _RANGES.items():
        section, key = name.split(".")
        if section in config and not ok(config[section][key]):
            raise ConfigError(f"field {name} must be {rule}: got {config[section][key]!r}")
    for section, names in _SWEEPS.items():
        lo, hi, points = (config.get(section, {}).get(key) for key in names)
        if points is not None and not (0 < lo < hi and points >= 2):
            lo_name, hi_name, points_name = (f"{section}.{key}" for key in names)
            raise ConfigError(
                f"the {section} sweep needs 0 < {lo_name} < {hi_name} and {points_name} >= 2: "
                f"got {lo!r}, {hi!r}, {points!r}"
            )


def _resolve(command, args):
    """The command's config: defaults, preset, file and flags, coerced and checked."""
    config = copy.deepcopy(_DEFAULTS[command])
    if args.preset is not None:
        preset_command, overlay = _PRESETS[args.preset]
        if preset_command != command:
            raise ConfigError(
                f"preset {args.preset} configures '{preset_command}', not '{command}'"
            )
        _merge_overlay(config, overlay)
    if args.config:
        _merge_overlay(config, _load_config_file(args.config))
    _merge_overlay(config, _flag_fields(command, args))
    for section, fields in config.items():
        unset = [f"{section}.{key}" for key, value in fields.items() if value is None]
        if section == "ranking" and len(unset) == len(fields):
            continue  # no ratio sweep: all three ranking fields or none
        if unset:
            raise ConfigError(f"missing required field: {', '.join(unset)}")
        for key, value in fields.items():
            fields[key] = _coerce(value, f"{section}.{key}", _KINDS[section][key])
    _check_ranges(config)
    return config


def _built(what, factory, *args, **kwargs):
    """A library object built from config fields; its domain error is a config error."""
    try:
        return factory(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"invalid {what}: {exc}") from exc


def _rate_pair(config):
    return _built("rates section", RatePair, *(config["rates"][key] for key in _TRUTH))


def _signal_params(config):
    return _built("params section", SignalParams, **config["params"])


def _delay_grid(spec):
    if isinstance(spec, str):
        return _GRID_NAMES[spec]
    return _built("delays.grid", DelayGrid.from_bounds, *spec.values())


def _sweep(config, section):
    lo, hi, points = (config[section][key] for key in _SWEEPS[section])
    return None if points is None else np.geomspace(lo, hi, points)


# --------------------------------------------------------------------------
# artifact writing


def _json_text(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


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


def _write_run(args, command, config, seed, outputs):
    """Write a succeeded command's run directory: config, outputs, manifest."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    out_root = args.out or os.environ.get(OUT_ENV) or "runs"
    run_dir = os.path.join(out_root, f"{command}-{digest[:12]}")
    files = {"config.json": _json_text(config), **outputs}
    manifest = RunManifest(
        command=command,
        config_sha256=digest,
        seed=seed,
        tool_version=__version__,
        python_version=platform.python_version(),
        numpy_version=np.__version__,
        created_utc=datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        outputs=tuple(files),
    )
    files["manifest.json"] = _json_text(dataclasses.asdict(manifest))
    os.makedirs(run_dir, exist_ok=True)
    for name, text in files.items():
        with open(os.path.join(run_dir, name), "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    print(run_dir)
    return EXIT_OK


# --------------------------------------------------------------------------
# subcommands: each takes the resolved config and returns (seed, {name: text})


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


def cmd_simulate(config):
    run, prior, delays = config["run"], config["prior"], config["delays"]
    params = _signal_params(config)
    timing = _built(
        "timing section", TimingModel, params.repetitions_R, *config["timing"].values()
    )
    experiment = _built(
        "run, prior or delays section",
        ExperimentConfig,
        true_rates=_rate_pair(config),
        params=params,
        nap_delays=tuple(delays["nap_list_ms"]),
        delay_grid=_delay_grid(delays["grid"]),
        prior_bounds=(prior["lo_per_ms"], prior["hi_per_ms"]),
        grid_size=prior["grid_size"],
        timing=timing,
        **{key: run[key] for key in _RUN_FIELDS},
    )
    replicates = run["replicates"]
    seeds = [run["seed"]] if replicates == 1 else replicate_seeds(run["seed"], replicates)

    outputs = {}
    summaries = []
    runner = run_nap if experiment.optimizer == "nap" else run_adaptive
    for index, seed in enumerate(seeds):
        record = runner(dataclasses.replace(experiment, seed=seed))
        name = "records.jsonl" if replicates == 1 else f"records-{index:03d}.jsonl"
        outputs[name] = record.to_jsonl()
        summaries.append(_run_summary(record, seed))
    payload = {
        "command": "simulate",
        "replicates": replicates,
        "runs": summaries,
        "ensemble": _ensemble_stats(summaries) if replicates > 1 else None,
    }
    outputs["summary.json"] = _json_text(payload)
    return run["seed"], outputs


_RATIO_SWEEP_COLUMNS = ("rate_ratio", "cost_robust_sqrt_s", "cost_optimal_sqrt_s", "cost_ratio")


def cmd_rank_protocols(config):
    rates = _rate_pair(config)
    params = _signal_params(config)
    outputs = {"census.json": _json_text(dataclasses.asdict(census()))}

    ranking = rank_protocols(rates, params)
    columns, table = ranking.COLUMNS, ranking.table
    outputs["ranking.csv"] = _table_text(columns, table)
    payload = {
        "format": "protocol-ranking-v1",
        "reference": ranking.reference_label,
        "entries": [dict(zip(columns, row)) for row in table],
    }
    outputs["ranking.json"] = _json_text(payload)

    ratios = _sweep(config, "ranking")
    if ratios is not None:
        rows = sensitivity_ratio_curve(ratios, params=params)
        outputs["ratio_sweep.csv"] = _table_text(_RATIO_SWEEP_COLUMNS, rows)
    return 0, outputs


def cmd_bias_study(config):
    rates = _rate_pair(config)
    params = _signal_params(config)
    bias = config["bias"]
    result = bias_study(
        params, rates, bias["tau_ms"], bias["r_values"], bias["replicates"], bias["seed"]
    )
    meta = {
        "command": "bias-study",
        "tau_ms": bias["tau_ms"],
        "replicates": bias["replicates"],
        "m_true": result.m_true,
        "delta_per_repetition_counts": result.delta_per_repetition,
        "rows": [dataclasses.asdict(row) for row in result.rows],
    }
    outputs = {"bias.csv": _table_text(result.COLUMNS, result.table), "bias.json": _json_text(meta)}
    return bias["seed"], outputs


def cmd_speedup(config):
    params = _signal_params(config)
    section = config["speedup"]
    arguments = ("replicates", "adaptive_iterations", "budget_factor", "seed")
    pairs = [(g, g) for g in _sweep(config, "speedup")]
    study = speedup_study(pairs, params, **{key: section[key] for key in arguments})
    payload = {
        "format": "speedup-study-v1",
        "replicates": study.replicates,
        "points": [dict(zip(study.COLUMNS, row)) for row in study.table],
    }
    table = _table_text(study.COLUMNS, study.table)
    return section["seed"], {"speedup.csv": table, "speedup.json": _json_text(payload)}


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
        choices=sorted(_PRESETS),
        help="named parameter set (each applies to one subcommand)",
    )
    parser.add_argument("--out", metavar="DIR", help=f"output directory (default ${OUT_ENV} or ./runs)")
    parser.add_argument("--rates", metavar="SPEC", help=rates_help)


def _help(text, *defaults, sep=","):
    """`text` followed by '(default V)', the defaults joined by `sep`."""
    return f"{text} (default {sep.join(f'{v:g}' for v in defaults)})"


def build_parser():
    parser = argparse.ArgumentParser(
        prog="spinrelax",
        description="Simulated three-level relaxometry: adaptive runs, protocol ranking, estimator bias, and speedup studies.",
    )
    parser.add_argument("--version", action="version", version=f"spinrelax {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run adaptive or fixed-sweep estimation")
    _add_common(p, "true rates 'G+,G-' in /ms (required unless config or preset provides them)")
    p.add_argument("--seed", type=int, help="base random seed")
    replicates = _help("independent replicates", _DEFAULTS["simulate"]["run"]["replicates"])
    p.add_argument("--replicates", type=int, metavar="N", help=replicates)
    p.add_argument("--R", metavar="N", help="pulse-sequence repetitions per signal")
    p.add_argument("--optimizer", choices=("nob", "pf", "nap"), help="delay scheduler")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("rank-protocols", help="census and cost ranking of measurement protocols")
    rates = _DEFAULTS["rank-protocols"]["rates"].values()
    _add_common(p, _help("rate point 'G+,G-' in /ms for the ranking table", *rates))
    p.add_argument(
        "--ratio-sweep",
        metavar="LO:HI[:N]",
        help="also sweep the rate asymmetry G+/G- geometrically",
    )
    p.set_defaults(func=cmd_rank_protocols)

    p = sub.add_parser("bias-study", help="ratio-estimator bias versus repetition count")
    bias = _DEFAULTS["bias-study"]
    _add_common(p, _help("true rates 'G+,G-' in /ms", *bias["rates"].values()))
    p.add_argument("--seed", type=int, help="base random seed")
    p.add_argument("--R", metavar="LO:HI", help="repetition range, expanded to whole decades")
    replicates = _help("Monte Carlo draws per R", bias["bias"]["replicates"])
    p.add_argument("--replicates", type=int, metavar="N", help=replicates)
    p.set_defaults(func=cmd_bias_study)

    p = sub.add_parser("speedup", help="adaptive-vs-fixed-sweep speedup over true rates")
    speedup = _DEFAULTS["speedup"]
    sweep = (speedup["speedup"][key] for key in _SWEEPS["speedup"])
    _add_common(p, _help("diagonal rate sweep 'LO:HI[:N]' in /ms", *sweep, sep=":"))
    p.add_argument("--seed", type=int, help="base random seed")
    repetitions = _help("pulse-sequence repetitions per signal", speedup["params"]["repetitions_R"])
    p.add_argument("--R", metavar="N", help=repetitions)
    replicates = _help("replicates per arm", speedup["speedup"]["replicates"])
    p.add_argument("--replicates", type=int, metavar="N", help=replicates)
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
        if args.func is cmd_show:
            return cmd_show(args)
        config = _resolve(args.command, args)
        seed, outputs = args.func(config)
        return _write_run(args, args.command, config, seed, outputs)
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
