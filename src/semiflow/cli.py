"""Declarative experiment runner.

A single JSON config describes the family, grid, norm, initial state,
schedule and tasks; `run_experiment` builds everything, runs the tasks and
writes one JSON report per task (plus one CSV per evolve time) together with
a manifest listing all outputs, their content hashes and the versions of
semiflow, numpy and Python that ran it.  Runs are deterministic for a fixed
config and seed.

Command line:

    semiflow run <config.json> [--out DIR]
    semiflow verify <config.json> [--out DIR]
    semiflow plot <csv> <svg>

Exit codes: 0 every asserted check passed, 1 an asserted check failed,
2 config error, an output path that names a file included.  The environment
variable SEMIFLOW_OUT overrides the default output directory.

Every input rule is stated once, in the library module that applies it;
parse_config calls that statement at the field's own path and reports its
text there.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import difflib
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from . import diagnostics as diag
from .chernoff import (
    DEFAULT_N_MAX,
    DEFAULT_N_MIN,
    DEFAULT_TOL,
    Record,
    check_level,
    check_tol,
    chernoff_limits,
    dyadic_partition,
    evolve_path,
    semigroup_defect,
)
from .families_linear import (
    GbmParams,
    HeatDriftParams,
    make_heat_family,
    make_identity_base_family,
)
from .families_nonlinear import (
    COST_PRESETS,
    PERTURBATION_PRESETS,
    SigmaLambdaSet,
    auto_lambda_grid,
    cost_preset,
    make_g_expectation_family,
    make_gexp_family,
    make_ode_family,
    make_perturbation_family,
    make_robust_gbm_family,
    perturbation_preset,
    telescoping_residual,
    user_lambda_grid,
    vector_field_preset,
)
from .state_space import (
    Grid,
    GridFunction,
    NormSpec,
    PRESET_NAMES,
    VectorState,
    _is_finite_number,
    _is_integer,
    grid_create,
    lipschitz_constant_estimate,
    read_csv_table,
    sample_function,
    write_csv,
)

__all__ = ["ExperimentSpec", "ConfigError", "parse_config", "run_experiment",
           "emit_plot", "main"]

# Every default a family reads, by family; parse_config fills them in.
_FAMILY_DEFAULTS = {
    "ode_neg_identity": {},
    "ode_rotation": {},
    "heat": {"drift": 0.0, "sigma": 1.0},
    "gexp": {"cost": {"name": "quadratic"}, "lambda_grid": "auto"},
    "g_expectation": {"sigmas": [0.5, 1.0], "lambdas": [-1.0, 0.0, 1.0]},
    "robust_gbm": {"pairs": [[0.1, 0.2], [-0.1, 0.2]],
                   "M": GbmParams.quad_points, "p": NormSpec.p},
    "perturbation": {"base": "heat", "drift": 0.0, "sigma": 1.0,
                     "psi": {"name": "sin"}},
}
FAMILY_NAMES = tuple(_FAMILY_DEFAULTS)
# Grid and norm defaults, all that an ODE spec may give (it reads neither).
_SECTION_DEFAULTS = {"grid": {"dim": 1, "x_max": 8.0, "n_points": 1601},
                     "norm": dataclasses.asdict(NormSpec())}
# The family fields that name a preset, with the presets they may name.
_PRESETS = {"cost": COST_PRESETS, "psi": PERTURBATION_PRESETS}
# Every schedule default a task reads.  Derived from t_list at parse time:
# defect_t = t_list[0] / 2 and monotonicity_t = t_list[0].
_SCHEDULE_DEFAULTS = {
    "t_list": [0.5], "tol": DEFAULT_TOL, "n_min": DEFAULT_N_MIN, "n_max": DEFAULT_N_MAX,
    "h_levels": [2.0**-k for k in range(4, 9)], "monotonicity_levels": [2, 3, 4, 5],
    "certificate_horizon": 0.5, "certificate_levels": [4, 5, 6, 7, 8],
    "audit_samples": 20, "audit_radius": 1.0, "audit_times": [0.25, 0.5],
}
# Most steps one selected task may take; a schedule that allows more is a
# config error.  A limit over a span T takes fewer than T 2^(n_max+1) steps;
# generator limits go GENERATOR_EXTRA_LEVELS past n_max; a certificate ladder
# up to level n takes T 2^n steps, or symmetric T 2^n linear batches that
# serve both states, and is budgeted T 2^(n+1).
# Every shipped config and benchmark workload stays below 2^18.
MAX_LIMIT_STEPS = 2**27
TASK_NAMES = ("evolve", "defect", "generator", "certificate", "audit",
              "monotonicity", "telescoping")


class ConfigError(ValueError):
    """Schema violation; carries the offending field path."""

    def __init__(self, path: str, message: str):
        self.field_path = path
        super().__init__(f"{path}: {message}")


def _one_of(value, names, path, what):
    """value, which must be one of names: else an error at path, with a hint."""
    if value not in names:
        close = difflib.get_close_matches(str(value), names, n=3, cutoff=0.5)
        hint = f" (did you mean: {', '.join(close)})" if close else ""
        raise ConfigError(path, f"unknown {what} {value!r}{hint}")


def _filled(given, path, defaults, also=()):
    """defaults updated by given, which must be an object every key of which
    is a default or in also: a field that nothing reads, say a misspelled
    one, is an error rather than a run with its default."""
    if not isinstance(given, dict):
        raise ConfigError(path, "must be an object")
    for key in given:
        _one_of(key, [*defaults, *also], f"{path}.{key}", "field")
    return {**defaults, **given}


@dataclass(frozen=True)
class ExperimentSpec(Record):
    family: dict
    grid: dict
    norm: dict
    initial: dict
    schedule: dict
    tasks: tuple[str, ...]
    output_dir: str | None
    seed: int


def _require(mapping, key, path):
    if not isinstance(mapping, dict):
        raise ConfigError(path, "must be an object")
    if key not in mapping:
        raise ConfigError(f"{path}.{key}", "missing required field")
    return mapping[key]


def _validated(path, build, *args, **kwargs):
    """build(*args, **kwargs), with a ValueError, TypeError, KeyError or
    OSError it raises re-raised as a ConfigError at path: the library's
    checks state the rules.  A ConfigError passes through unchanged."""
    try:
        return build(*args, **kwargs)
    except ConfigError:
        raise
    except KeyError as e:
        raise ConfigError(path, f"missing key {e}") from None
    except (TypeError, ValueError, OSError) as e:
        raise ConfigError(path, str(e)) from None


def _integer(value, least):
    if not _is_integer(value) or value < least:
        raise ValueError(f"must be an integer >= {least}, got {value!r}")


def _number(value, least=-sys.float_info.max):
    if not (_is_finite_number(value) and least <= value):
        bound = f" >= {least:g}" if least > -sys.float_info.max else ""
        raise ValueError(f"must be a finite number{bound}, got {value!r}")


def _numbers(value, path):
    """value, a finite number or a (nested) list of them, checked entrywise."""
    if isinstance(value, list):
        for i, entry in enumerate(value):
            _numbers(entry, f"{path}[{i}]")
    else:
        _validated(path, _number, value)


def _preset(given, path, presets, name):
    """given, an object {"name": ..., **params} (name when it names none),
    filled from the defaults of that preset; each param a finite number."""
    name = given.get("name", name) if isinstance(given, dict) else name
    _one_of(name, tuple(presets), f"{path}.name", "preset")
    filled = _filled(given, path, {"name": name, **presets[name]})
    for key in presets[name]:
        _validated(f"{path}.{key}", _number, filled[key])
    return filled


def _check_lambda_grid(value, path):
    """"auto", a list of drifts, or an object of finite min, max and step > 0."""
    if isinstance(value, list):
        _numbers(value, path)
    elif value != "auto":
        keys = ("min", "max", "step")
        bounds = _filled(value, path, {}, keys)
        for key in keys:
            _validated(f"{path}.{key}", _number, _require(bounds, key, path))
        if not bounds["step"] > 0:
            raise ConfigError(f"{path}.step", "must be positive")


def _check_pairs(value, path):
    """A list of [mu, sigma] pairs of finite numbers."""
    if not isinstance(value, list):
        raise ConfigError(path, "must be a list of [mu, sigma] pairs")
    for i, pair in enumerate(value):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ConfigError(f"{path}[{i}]",
                              f"must be a pair [mu, sigma] of numbers, got {pair!r}")
        _numbers(pair, f"{path}[{i}]")


def _list(schedule, key, least):
    """(field path, schedule[key]), which must be a list of at least `least`
    entries."""
    path = f"config.schedule.{key}"
    entries = schedule[key]
    if not isinstance(entries, list) or len(entries) < least:
        raise ConfigError(path, f"must be a list of {least} or more entries")
    return path, entries


def _entries(schedule, key, least, check, *args):
    """schedule[key], a _list each entry of which is passed through
    check(entry, *args) at its own field path."""
    path, entries = _list(schedule, key, least)
    for i, entry in enumerate(entries):
        _validated(f"{path}[{i}]", check, entry, *args)
    return entries


def _check_tasks(schedule, tasks):
    """The times the selected tasks derive from the schedule must be dyadic
    at the levels those tasks run them at: each h of the generator follows
    diagnostics.check_h_level and the certificate horizon
    diagnostics.check_horizon.  The steps each task can take must stay
    within MAX_LIMIT_STEPS."""
    path = "config.schedule"
    top = schedule["n_max"] + 1
    # task -> (the field setting its levels, span, level): < span 2^level steps
    budget = {}
    if "evolve" in tasks:
        budget["evolve"] = ("n_max", schedule["t_list"][-1], top)
    if "defect" in tasks:
        _validated(f"{path}.defect_t", dyadic_partition, schedule["defect_t"],
                   schedule["n_min"])
        budget["defect"] = ("n_max", 4.0 * schedule["defect_t"], top)
    if "monotonicity" in tasks:
        levels = _entries(schedule, "monotonicity_levels", 2, check_level)
        _validated(f"{path}.monotonicity_t", dyadic_partition,
                   schedule["monotonicity_t"], min(levels))
        budget["monotonicity"] = ("monotonicity_levels",
                                  schedule["monotonicity_t"], max(levels) + 1)
    if "generator" in tasks:
        hpath, hs = _list(schedule, "h_levels", 1)
        for i, h in enumerate(hs):
            _validated(f"{hpath}[{i}]", diag.check_h_level, h, schedule["n_max"],
                       hs[i - 1] if i else math.inf)
        budget["generator"] = ("n_max", sum(hs), top + diag.GENERATOR_EXTRA_LEVELS)
    if "certificate" in tasks:
        levels = _entries(schedule, "certificate_levels", 1, check_level)
        T = schedule["certificate_horizon"]
        # at the lowest level alone: the budget below bounds the others
        _validated(f"{path}.certificate_horizon", diag.check_horizon, T, [min(levels)])
        budget["certificate"] = ("certificate_levels", T, max(levels) + 1)
    if "audit" in tasks:
        _validated(f"{path}.audit_samples", _integer, schedule["audit_samples"], 1)
        _validated(f"{path}.audit_radius", _number, schedule["audit_radius"], 0)
        _entries(schedule, "audit_times", 1, _number, 0)
    for task, (key, span, level) in budget.items():
        # compared in log2, the integer level with a float: 2.0**level and
        # float(level) overflow
        if span > 0 and level > math.log2(MAX_LIMIT_STEPS) - math.log2(span):
            raise ConfigError(f"{path}.{key}", f"{task} may take up to {span:g}"
                              f" * 2^{level} steps, more than {MAX_LIMIT_STEPS}")


def parse_config(path) -> ExperimentSpec:
    """Parse and validate a JSON experiment config, filling defaults."""
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(str(path), "config file not found") from None
    except json.JSONDecodeError as e:
        raise ConfigError(str(path), f"invalid JSON: {e}") from None
    if not isinstance(raw, dict):
        raise ConfigError(str(path), "top-level config must be an object")

    _filled(raw, "config", {}, [f.name for f in dataclasses.fields(ExperimentSpec)])
    given = _require(raw, "family", "config")
    fname = _require(given, "name", "config.family")
    _one_of(fname, FAMILY_NAMES, "config.family.name", "family")
    family = _filled(given, "config.family", copy.deepcopy(_FAMILY_DEFAULTS[fname]),
                     ["name", "expected_verdict"]
                     + ["trust_horizon"] * (fname == "robust_gbm"))
    for key, value in family.items():
        path = f"config.family.{key}"
        if key in _PRESETS:
            family[key] = _preset(value, path, _PRESETS[key],
                                  _FAMILY_DEFAULTS[fname][key]["name"])
        elif key == "lambda_grid":
            _check_lambda_grid(value, path)
        elif key == "M":
            _validated(path, _integer, value, GbmParams.MIN_QUAD_POINTS)
        elif key == "pairs":
            _check_pairs(value, path)
        elif key == "base":
            _one_of(value, ("heat", "identity"), path, "base")
        elif key == "expected_verdict":
            _one_of(value, diag.VERDICTS, path, "verdict")
        elif key != "name":
            _numbers(value, path)

    grid = _filled(raw.get("grid", {}), "config.grid", _SECTION_DEFAULTS["grid"])
    _validated("config.grid", grid_create, **grid)
    norm = _filled(raw.get("norm", {}), "config.norm", _SECTION_DEFAULTS["norm"])
    _validated("config.norm", NormSpec, **norm)
    for key, value in (("grid", grid), ("norm", norm)):
        if fname.startswith("ode_") and value != _SECTION_DEFAULTS[key]:
            raise ConfigError(f"config.{key}", "an ODE family reads no grid or norm")

    initial = _filled(raw.get("initial", {}), "config.initial", {},
                      ["value"] if fname.startswith("ode_") else ["preset", "table"])
    if fname.startswith("ode_"):
        initial.setdefault("value", [1.0] if fname == "ode_neg_identity"
                           else [1.0, 0.0])
        _numbers(initial["value"], "config.initial.value")
    else:
        preset = initial.get("preset")
        if preset is None and "table" not in initial:
            initial["preset"] = "gaussian_bump"
        elif preset is not None:
            _one_of(preset, PRESET_NAMES, "config.initial.preset", "preset")

    schedule = _filled(raw.get("schedule", {}), "config.schedule",
                       copy.deepcopy(_SCHEDULE_DEFAULTS),
                       ["defect_t", "monotonicity_t"])
    _validated("config.schedule.tol", check_tol, schedule["tol"])
    _validated("config.schedule.n_min", check_level, schedule["n_min"])
    _validated("config.schedule.n_max", check_level, schedule["n_max"], schedule["n_min"])
    ts = _entries(schedule, "t_list", 1, dyadic_partition, schedule["n_min"])
    prev = 0.0
    for i, t in enumerate(ts):
        if t <= prev and not (i == 0 and t == 0.0):
            raise ConfigError(f"config.schedule.t_list[{i}]",
                              "times must be strictly increasing")
        prev = t
    schedule.setdefault("defect_t", schedule["t_list"][0] / 2.0)
    schedule.setdefault("monotonicity_t", schedule["t_list"][0])
    if fname == "robust_gbm":
        family.setdefault("trust_horizon", schedule["t_list"][-1])
        if "norm" in raw and (norm["kind"] != "weighted" or norm["p"] != family["p"]):
            raise ConfigError("config.norm", "robust_gbm runs in the weighted "
                              f"norm with the family's p = {family['p']!r}")
        norm = {"kind": "weighted", "p": family["p"]}

    tasks = raw.get("tasks", ["evolve"])
    if not isinstance(tasks, list) or not tasks:
        raise ConfigError("config.tasks", "must be a list of at least one task")
    for i, task in enumerate(tasks):
        _one_of(task, TASK_NAMES, f"config.tasks[{i}]", "task")
        if task in tasks[:i]:
            raise ConfigError(f"config.tasks[{i}]", f"task {task!r} is listed twice")
    output_dir = raw.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        raise ConfigError("config.output_dir", "must be a path string")

    if "monotonicity" in tasks and fname.startswith("ode_"):
        raise ConfigError("config.tasks", "monotonicity requires a grid family")
    if "telescoping" in tasks and fname != "perturbation":
        raise ConfigError("config.tasks",
                          "telescoping requires a perturbation family")
    _check_tasks(schedule, tasks)

    seed = raw.get("seed", 0)
    _validated("config.seed", _integer, seed, 0)
    if {"audit", "telescoping"} & set(tasks) and "seed" not in raw:
        raise ConfigError("config.seed",
                          "a seed is required when randomized tasks are selected")

    return ExperimentSpec(
        family=family,
        grid=grid,
        norm=norm,
        initial=initial,
        schedule=schedule,
        tasks=tuple(tasks),
        output_dir=output_dir,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# building families and states from a spec
# ---------------------------------------------------------------------------

def build_family(spec: ExperimentSpec):
    """Returns (family, initial_state) for a parsed spec."""
    fam_cfg = spec.family
    name = fam_cfg["name"]

    if name.startswith("ode_"):
        vf = vector_field_preset(name.removeprefix("ode_"))
        family = make_ode_family(vf)
        value = np.atleast_1d(spec.initial["value"])
        if value.size != vf.dim:
            raise ConfigError("config.initial.value",
                              f"expected {vf.dim} coordinates")
        return family, VectorState(value)

    grid = grid_create(**spec.grid)
    norm = NormSpec(**spec.norm)
    initial = _build_initial_grid_state(spec, grid)

    if name in ("heat", "perturbation"):  # heat is a perturbation's default base
        base = (make_heat_family(HeatDriftParams.create(
                    fam_cfg["drift"], fam_cfg["sigma"], grid.dim), norm, grid)
                if fam_cfg.get("base", "heat") == "heat"
                else make_identity_base_family(grid, norm))
        if name == "heat":
            return base, initial
        pert = perturbation_preset(**fam_cfg["psi"])
        return make_perturbation_family(base, pert, grid), initial
    if name == "gexp":
        cost = cost_preset(**fam_cfg["cost"])
        lg_cfg = fam_cfg["lambda_grid"]
        if lg_cfg == "auto":
            lgrid = auto_lambda_grid(cost, lipschitz_constant_estimate(initial))
        elif isinstance(lg_cfg, dict):
            lo, hi, step = lg_cfg["min"], lg_cfg["max"], lg_cfg["step"]
            lgrid = user_lambda_grid(np.round(np.arange(lo, hi + step / 2, step), 12))
        else:
            lgrid = user_lambda_grid(lg_cfg)
        return make_gexp_family(lgrid, cost, grid, norm), initial
    if name == "g_expectation":
        pairs = tuple((s, l) for s in fam_cfg["sigmas"] for l in fam_cfg["lambdas"])
        return make_g_expectation_family(SigmaLambdaSet(pairs), grid, norm), initial
    if name == "robust_gbm":
        family = make_robust_gbm_family(fam_cfg["pairs"], grid,
                                        fam_cfg["trust_horizon"], fam_cfg["M"],
                                        fam_cfg["p"])
        return family, dataclasses.replace(initial, extension_mode="clamp")
    raise ConfigError("config.family.name", f"unknown family {name!r}")


def _build_initial_grid_state(spec: ExperimentSpec, grid: Grid) -> GridFunction:
    init = spec.initial
    if "table" in init:
        names, data = _validated("config.initial.table", read_csv_table,
                                 init["table"])
        coords = data[:, :grid.dim]
        if coords.shape[0] != grid.n_nodes or not np.array_equal(
                coords, grid.node_coords()):
            raise ConfigError("config.initial.table",
                              "table nodes do not match the configured grid")
        return _validated("config.initial.table", sample_function,
                          data[:, grid.dim:], grid)
    return sample_function(init["preset"], grid)


# ---------------------------------------------------------------------------
# tasks
# ---------------------------------------------------------------------------

def _fmt_time(t: float) -> str:
    """t in %.17g, as the CSV values are, so distinct times name distinct files."""
    return ("%.17g" % t).replace("-", "m").replace(".", "p")


def _task_evolve(spec, family, state, outdir, writes, limits):
    sched = spec.schedule
    states, reports = evolve_path(family, sched["t_list"], state,
                                  tol=sched["tol"], n_min=sched["n_min"],
                                  n_max=sched["n_max"], limits=limits)
    entries = []
    for t, st, rep in zip(sched["t_list"], states, reports):
        entry = {"t": t, "report": rep.to_json_dict()}
        if isinstance(st, VectorState):
            entry["state"] = list(st.coordinates)
        else:
            csv_name = f"state_t{_fmt_time(t)}.csv"
            write_csv(st, outdir / csv_name)
            writes.append(csv_name)
            entry["csv"] = csv_name
        entries.append(entry)
    passed = all(e["report"]["converged"] for e in entries)
    return {"task": "evolve", "passed": passed, "states": entries}


def _task_defect(spec, family, state, limits):
    sched = spec.schedule
    t = sched["defect_t"]
    tol = sched["tol"]
    value = semigroup_defect(family, t, t, state, tol=tol,
                             n_min=sched["n_min"], n_max=sched["n_max"],
                             limits=limits)
    return {"task": "defect", "s": t, "t": t, "defect": value,
            "bound": 3.0 * tol, "passed": value <= 3.0 * tol}


def _task_generator(spec, family, state):
    sched = spec.schedule
    table = diag.generator_estimate(family, state, sched["h_levels"],
                                    tol=max(sched["tol"], 1e-3),
                                    n_max=sched["n_max"])
    return {"task": "generator", "table": table.to_json_dict(),
            "passed": table.monotone_decreasing and not any(table.flagged)}


def _task_certificate(spec, family, state):
    sched = spec.schedule
    levels = sched["certificate_levels"]
    T = sched["certificate_horizon"]
    if family.conjugate_step is not None:
        plus, minus, verdict = diag.symmetric_lipschitz_certificate(
            family, state, T, levels)
        result = {"task": "certificate", "plus": plus.to_json_dict(),
                  "minus": minus.to_json_dict(), "joint_verdict": verdict}
    else:
        cert = diag.lipschitz_certificate(family, state, T, levels)
        result = {"task": "certificate", "certificate": cert.to_json_dict()}
        verdict = cert.verdict
    expected = spec.family.get("expected_verdict")
    result["passed"] = verdict == expected if expected else verdict != "inconclusive"
    return result


def _task_audit(spec, family, state):
    sched = spec.schedule
    report = diag.alpha_beta_audit(
        family,
        n_samples=sched["audit_samples"],
        R=float(sched["audit_radius"]),
        t_list=sched["audit_times"],
        seed=spec.seed,
    )
    return {"task": "audit", "report": report.to_json_dict(),
            "passed": report.violation_count == 0}


def _task_monotonicity(spec, family, state):
    sched = spec.schedule
    levels = sched["monotonicity_levels"]
    t = sched["monotonicity_t"]
    value = diag.partition_monotonicity_check(family, state, t, levels)
    return {"task": "monotonicity", "t": t, "levels": levels,
            "min_increment": value, "bound": -1e-10,
            "passed": value >= -1e-10}


def _task_telescoping(spec, family, state):
    base = family.params["base_family"]
    pert = family.params["perturbation"]
    rng = np.random.default_rng(spec.seed)
    g_state = diag.random_ball_state(family, rng, 1.0)
    probes = []
    worst = 0.0
    for n in (3, 4, 5):
        for k in sorted({1, 2 ** (n - 1), 2**n}):
            r = telescoping_residual(base, pert, state, g_state, k, n)
            probes.append({"k": k, "n": n, "residual": r})
            worst = max(worst, r)
    return {"task": "telescoping", "probes": probes, "max_residual": worst,
            "bound": 1e-10, "passed": worst <= 1e-10}


_TASK_RUNNERS = {
    "generator": _task_generator,
    "certificate": _task_certificate,
    "audit": _task_audit,
    "monotonicity": _task_monotonicity,
    "telescoping": _task_telescoping,
}


def _shared_limits(spec, family, state):
    """The limits evolve and defect both start from, in one chernoff_limits
    walk: evolve's first time t_list[0], and the defect's S(s)x and S(2s)x
    (with the default s = t_list[0] / 2, S(2s)x is evolve's first limit).
    None when the tasks do not both run, or when the walk raises: each task
    then meets its own failure, as it would alone."""
    if not {"evolve", "defect"} <= set(spec.tasks):
        return None
    sched = spec.schedule
    s = sched["defect_t"]
    try:
        return chernoff_limits(family, (float(sched["t_list"][0]), s, 2.0 * s),
                               state, sched["tol"], sched["n_min"], sched["n_max"])
    except Exception:
        return None


def run_experiment(spec: ExperimentSpec, out_dir=None) -> dict:
    """Run all tasks; write per-task reports, CSVs and the manifest.

    Deterministic for fixed spec and seed.  Partial task failures are
    recorded in the manifest; the manifest's `passed` flag is the exit-code
    contract (true iff every asserted check passed).
    """
    family, state = _validated("config.family", build_family, spec)
    outdir = Path(out_dir or spec.output_dir or os.environ.get("SEMIFLOW_OUT", "out"))
    # an output path that names a file is a config error, before any write
    _validated(str(outdir), outdir.mkdir, parents=True, exist_ok=True)

    limits = _shared_limits(spec, family, state)
    writes: list[str] = []
    results = {}
    errors = {}
    for task in spec.tasks:
        try:
            if task == "evolve":
                results[task] = _task_evolve(spec, family, state, outdir, writes,
                                             limits)
            elif task == "defect":
                results[task] = _task_defect(spec, family, state, limits)
            else:
                results[task] = _TASK_RUNNERS[task](spec, family, state)
        except Exception as e:  # recorded, not fatal: the manifest carries it
            errors[task] = f"{type(e).__name__}: {e}"
            results[task] = {"task": task, "passed": False, "error": errors[task]}
        report_name = f"{task}.json"
        (outdir / report_name).write_text(
            json.dumps(results[task], indent=2, sort_keys=True))
        writes.append(report_name)

    passed = all(r.get("passed", False) for r in results.values())
    manifest = {
        "spec": spec.to_json_dict(),
        "passed": passed,
        "tasks": {t: r.get("passed", False) for t, r in results.items()},
        "errors": errors,
        "versions": {"semiflow": __version__, "numpy": np.__version__,
                     "python": "%d.%d.%d" % sys.version_info[:3]},
        "outputs": [
            {
                "path": name,
                "sha256": hashlib.sha256((outdir / name).read_bytes()).hexdigest(),
                "bytes": (outdir / name).stat().st_size,
            }
            for name in sorted(writes)
        ],
    }
    (outdir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True))
    return manifest


# ---------------------------------------------------------------------------
# static SVG line plots
# ---------------------------------------------------------------------------

_SVG_W, _SVG_H = 800, 500
_MARGIN = {"l": 70, "r": 20, "t": 20, "b": 45}
_COLORS = ("#1f6fb2", "#c23b22", "#2e8b57", "#8a2be2", "#b8860b", "#444444")


def _nice_ticks(lo: float, hi: float, target: int = 6):
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    raw = span / max(target - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + 1e-12 * span:
        ticks.append(0.0 if abs(v) < step * 1e-9 else v)
        v += step
    return ticks


def emit_plot(csv_path, svg_path) -> None:
    """Render x vs each value column of a grid-function CSV as a static SVG.

    Fixed 800x500 viewBox, round-number axis ticks, a legend when more than
    one series is present, no external assets.
    """
    names, data = read_csv_table(csv_path)
    n_coord = 2 if len(names) > 1 and names[1] == "y" else 1
    if data.shape[1] <= n_coord:
        raise ValueError(f"{csv_path}: no value columns")
    x = data[:, 0]
    series = [(names[j], data[:, j]) for j in range(n_coord, data.shape[1])]

    x_lo, x_hi = float(np.min(x)), float(np.max(x))
    ys = np.concatenate([s for _, s in series])
    y_lo, y_hi = float(np.min(ys)), float(np.max(ys))
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    iw = _SVG_W - _MARGIN["l"] - _MARGIN["r"]
    ih = _SVG_H - _MARGIN["t"] - _MARGIN["b"]

    def sx(v):
        return _MARGIN["l"] + (v - x_lo) / (x_hi - x_lo) * iw

    def sy(v):
        return _MARGIN["t"] + (y_hi - v) / (y_hi - y_lo) * ih

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
    ]
    axis_style = 'stroke="#333" stroke-width="1"'
    text_style = 'font-family="sans-serif" font-size="12" fill="#333"'
    x0, y0 = _MARGIN["l"], _MARGIN["t"] + ih
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x0 + iw}" y2="{y0}" {axis_style}/>')
    parts.append(f'<line x1="{x0}" y1="{_MARGIN["t"]}" x2="{x0}" y2="{y0}" {axis_style}/>')
    for tv in _nice_ticks(x_lo, x_hi):
        px = sx(tv)
        parts.append(f'<line x1="{px:.2f}" y1="{y0}" x2="{px:.2f}" y2="{y0 + 5}" {axis_style}/>')
        parts.append(f'<text x="{px:.2f}" y="{y0 + 20}" text-anchor="middle" {text_style}>{tv:g}</text>')
    for tv in _nice_ticks(y_lo, y_hi):
        py = sy(tv)
        parts.append(f'<line x1="{x0 - 5}" y1="{py:.2f}" x2="{x0}" y2="{py:.2f}" {axis_style}/>')
        parts.append(f'<text x="{x0 - 8}" y="{py + 4:.2f}" text-anchor="end" {text_style}>{tv:g}</text>')

    for i, (nm, s) in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        pts = " ".join(f"{sx(xv):.2f},{sy(yv):.2f}" for xv, yv in zip(x, s))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
    if len(series) > 1:
        for i, (nm, _) in enumerate(series):
            color = _COLORS[i % len(_COLORS)]
            ly = _MARGIN["t"] + 14 + 16 * i
            lx = x0 + iw - 120
            parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 24}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
            parts.append(f'<text x="{lx + 30}" y="{ly}" {text_style}>{nm}</text>')
    parts.append("</svg>")
    Path(svg_path).write_text("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="semiflow")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None)
    p_ver = sub.add_parser("verify", help="run a config and print pass/fail lines")
    p_ver.add_argument("config")
    p_ver.add_argument("--out", default=None)
    p_plot = sub.add_parser("plot", help="render a CSV as an SVG line plot")
    p_plot.add_argument("csv")
    p_plot.add_argument("svg")
    args = parser.parse_args(argv)

    if args.command == "plot":
        try:
            emit_plot(args.csv, args.svg)
        except (ValueError, OSError) as e:
            print(f"plot error: {e}", file=sys.stderr)
            return 2
        return 0

    try:
        spec = parse_config(args.config)
        manifest = run_experiment(spec, out_dir=args.out)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    if args.command == "verify":
        for task, ok in manifest["tasks"].items():
            print(f"{task}: {'PASS' if ok else 'FAIL'}")
        print(f"overall: {'PASS' if manifest['passed'] else 'FAIL'}")
    return 0 if manifest["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
