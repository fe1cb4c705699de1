"""Declarative experiment runner.

A single JSON config describes the family, grid, norm, initial state,
schedule and tasks; `run_experiment` builds everything, runs the tasks and
writes one JSON report per task (plus one CSV per evolve time) together with
a manifest listing all outputs and their content hashes.  Runs are
deterministic for a fixed config and seed.

Command line:

    semiflow run <config.json> [--out DIR]
    semiflow verify <config.json> [--out DIR]
    semiflow plot <csv> <svg>

Exit codes: 0 every asserted check passed, 1 an asserted check failed,
2 config error.  The environment variable SEMIFLOW_OUT overrides the default
output directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import difflib
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import diagnostics as diag
from .chernoff import (
    DEFAULT_N_MAX,
    DEFAULT_N_MIN,
    DEFAULT_TOL,
    GeneratingFamilyDescriptor,
    chernoff_limit,
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
    SigmaLambdaSet,
    auto_lambda_grid,
    indicator_cost,
    make_g_expectation_family,
    make_gexp_family,
    make_ode_family,
    make_perturbation_family,
    make_robust_gbm_family,
    perturbation_preset,
    quadratic_cost,
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
    grid_create,
    lipschitz_constant_estimate,
    read_csv_table,
    sample_function,
    write_csv,
)

__all__ = ["ExperimentSpec", "ConfigError", "parse_config", "run_experiment",
           "emit_plot", "main"]

DEFAULT_QUAD_POINTS = 64
DEFAULT_WEIGHT_P = 3.0

FAMILY_NAMES = (
    "ode_neg_identity",
    "ode_rotation",
    "heat",
    "gexp",
    "g_expectation",
    "robust_gbm",
    "perturbation",
)
TASK_NAMES = ("evolve", "defect", "generator", "certificate", "audit",
              "monotonicity", "telescoping")


class ConfigError(ValueError):
    """Schema violation; carries the offending field path."""

    def __init__(self, path: str, message: str):
        self.field_path = path
        super().__init__(f"{path}: {message}")


def _suggest(name, candidates):
    close = difflib.get_close_matches(name, candidates, n=3, cutoff=0.5)
    return f" (did you mean: {', '.join(close)})" if close else ""


@dataclass(frozen=True)
class ExperimentSpec:
    family: dict
    grid: dict
    norm: dict
    initial: dict
    schedule: dict
    tasks: tuple[str, ...]
    output_dir: str | None
    seed: int

    def to_json_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["tasks"] = list(self.tasks)
        return d


def _require(mapping, key, path, default=None, required=False):
    if key not in mapping:
        if required:
            raise ConfigError(f"{path}.{key}", "missing required field")
        return default
    return mapping[key]


def _check_dyadic(t, level, path):
    """ConfigError at path unless t is a dyadic time at the given level."""
    try:
        dyadic_partition(float(t), int(level))
    except ValueError as e:  # NonDyadicTimeError carries the level hint
        raise ConfigError(path, str(e)) from None


def _check_derived_times(schedule, tasks):
    """The times the selected tasks derive from the schedule must be dyadic
    at the levels those tasks run them at: the generator starts each h at
    its smallest dyadic level, which must lie within n_max."""
    path = "config.schedule"
    if "defect" in tasks:
        _check_dyadic(schedule.get("defect_t", schedule["t_list"][0] / 2.0),
                      schedule["n_min"], f"{path}.defect_t")
    if "monotonicity" in tasks:
        levels = schedule.get("monotonicity_levels", [2, 3, 4, 5])
        if len(levels) < 2:
            raise ConfigError(f"{path}.monotonicity_levels",
                              "need at least two levels")
        _check_dyadic(schedule.get("monotonicity_t", schedule["t_list"][0]),
                      min(levels), f"{path}.monotonicity_t")
    if "generator" in tasks:
        hs = schedule.get("h_levels", [2.0**-k for k in range(4, 9)])
        for i, h in enumerate(hs):
            if not h > 0 or (i and h >= hs[i - 1]):
                raise ConfigError(f"{path}.h_levels[{i}]",
                                  "must be positive and strictly decreasing")
            _check_dyadic(h, schedule["n_max"], f"{path}.h_levels[{i}]")
    if "certificate" in tasks:
        T = schedule.get("certificate_horizon", 0.5)
        if not T > 0:
            raise ConfigError(f"{path}.certificate_horizon", "must be positive")
        _check_dyadic(T, min(schedule.get("certificate_levels", [4, 5, 6, 7, 8])),
                      f"{path}.certificate_horizon")


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

    family = dict(_require(raw, "family", "config", required=True))
    fname = _require(family, "name", "config.family", required=True)
    if fname not in FAMILY_NAMES:
        raise ConfigError("config.family.name",
                          f"unknown family {fname!r}{_suggest(fname, FAMILY_NAMES)}")

    grid = dict(_require(raw, "grid", "config", default={}))
    grid.setdefault("dim", 1)
    grid.setdefault("x_max", 8.0)
    grid.setdefault("n_points", 1601)
    if grid["dim"] not in (1, 2):
        raise ConfigError("config.grid.dim", "dim must be 1 or 2")
    npts = grid["n_points"]
    for v in np.atleast_1d(npts):
        if int(v) % 2 == 0 or int(v) < 3:
            raise ConfigError("config.grid.n_points", "must be odd and >= 3")

    norm = dict(_require(raw, "norm", "config", default={}))
    norm.setdefault("kind", "sup")
    norm.setdefault("p", DEFAULT_WEIGHT_P)
    if norm["kind"] not in ("sup", "weighted"):
        raise ConfigError("config.norm.kind", "must be 'sup' or 'weighted'")
    if norm["kind"] == "weighted" and not norm["p"] > 1:
        raise ConfigError("config.norm.p", "weight exponent must be > 1")

    initial = dict(_require(raw, "initial", "config", default={}))
    if fname.startswith("ode_"):
        initial.setdefault("value", [1.0] if fname == "ode_neg_identity"
                           else [1.0, 0.0])
    else:
        preset = initial.get("preset")
        if preset is None and "table" not in initial:
            initial["preset"] = "gaussian_bump"
        elif preset is not None and preset not in PRESET_NAMES:
            raise ConfigError(
                "config.initial.preset",
                f"unknown preset {preset!r}{_suggest(preset, PRESET_NAMES)}")

    schedule = dict(_require(raw, "schedule", "config", default={}))
    schedule.setdefault("t_list", [0.5])
    schedule.setdefault("tol", DEFAULT_TOL)
    schedule.setdefault("n_min", DEFAULT_N_MIN)
    schedule.setdefault("n_max", DEFAULT_N_MAX)
    if schedule["tol"] <= 0:
        raise ConfigError("config.schedule.tol", "tolerance must be positive")
    for key in ("n_min", "n_max"):
        if type(schedule[key]) is not int or schedule[key] < 0:
            raise ConfigError(f"config.schedule.{key}",
                              "must be a nonnegative integer")
    if schedule["n_min"] > schedule["n_max"]:
        raise ConfigError("config.schedule.n_max", "must be >= n_min")
    if not schedule["t_list"]:
        raise ConfigError("config.schedule.t_list", "must be nonempty")
    prev = 0.0
    for i, t in enumerate(schedule["t_list"]):
        if t <= prev and not (i == 0 and t == 0.0):
            raise ConfigError(f"config.schedule.t_list[{i}]",
                              "times must be strictly increasing")
        _check_dyadic(float(t), schedule["n_min"],
                      f"config.schedule.t_list[{i}]")
        prev = t

    tasks = _require(raw, "tasks", "config", default=["evolve"])
    if not tasks:
        raise ConfigError("config.tasks", "must list at least one task")
    for i, task in enumerate(tasks):
        if task not in TASK_NAMES:
            raise ConfigError(f"config.tasks[{i}]",
                              f"unknown task {task!r}{_suggest(task, TASK_NAMES)}")

    if "monotonicity" in tasks and fname.startswith("ode_"):
        raise ConfigError("config.tasks", "monotonicity requires a grid family")
    if "telescoping" in tasks and fname != "perturbation":
        raise ConfigError("config.tasks",
                          "telescoping requires a perturbation family")
    _check_derived_times(schedule, tasks)

    seed = int(_require(raw, "seed", "config", default=0))
    randomized = {"audit"}
    if randomized & set(tasks) and "seed" not in raw:
        raise ConfigError("config.seed",
                          "a seed is required when randomized tasks are selected")

    # family parameter defaults
    if fname == "heat":
        family.setdefault("drift", 0.0)
        family.setdefault("sigma", 1.0)
    elif fname == "gexp":
        family.setdefault("cost", {"name": "quadratic", "a": 0.5})
        family.setdefault("lambda_grid", "auto")
    elif fname == "g_expectation":
        family.setdefault("sigmas", [0.5, 1.0])
        family.setdefault("lambdas", [-1.0, 0.0, 1.0])
    elif fname == "robust_gbm":
        family.setdefault("pairs", [[0.1, 0.2], [-0.1, 0.2]])
        family.setdefault("M", DEFAULT_QUAD_POINTS)
        family.setdefault("p", DEFAULT_WEIGHT_P)
        family.setdefault("trust_horizon", max(schedule["t_list"]))
        if int(family["M"]) < 8:
            raise ConfigError("config.family.M", "quadrature nodes must be >= 8")
        norm = {"kind": "weighted", "p": family["p"]}
    elif fname == "perturbation":
        family.setdefault("base", "heat")
        family.setdefault("psi", {"name": "sin"})
        if family["base"] not in ("heat", "identity"):
            raise ConfigError("config.family.base", "must be 'heat' or 'identity'")

    return ExperimentSpec(
        family=family,
        grid=grid,
        norm=norm,
        initial=initial,
        schedule=schedule,
        tasks=tuple(tasks),
        output_dir=raw.get("output_dir"),
        seed=seed,
    )


# ---------------------------------------------------------------------------
# building families and states from a spec
# ---------------------------------------------------------------------------

def _build_grid(spec: ExperimentSpec) -> Grid:
    g = spec.grid
    return grid_create(int(g["dim"]), g["x_max"], g["n_points"])


def _build_norm(spec: ExperimentSpec) -> NormSpec:
    return NormSpec(kind=spec.norm["kind"], p=float(spec.norm["p"]))


def _build_cost(cfg, path):
    name = cfg.get("name", "quadratic")
    if name == "quadratic":
        return quadratic_cost(float(cfg.get("a", 0.5)))
    if name == "indicator":
        return indicator_cost(float(cfg.get("lo", -1.0)), float(cfg.get("hi", 1.0)))
    raise ConfigError(path, f"unknown cost {name!r}"
                            f"{_suggest(name, ['quadratic', 'indicator'])}")


def build_family(spec: ExperimentSpec):
    """Returns (family, initial_state) for a parsed spec."""
    fam_cfg = spec.family
    name = fam_cfg["name"]

    if name.startswith("ode_"):
        vf = vector_field_preset("neg_identity" if name == "ode_neg_identity"
                                 else "rotation")
        family = make_ode_family(vf)
        value = np.atleast_1d(np.asarray(spec.initial["value"], dtype=float))
        if value.size != vf.dim:
            raise ConfigError("config.initial.value",
                              f"expected {vf.dim} coordinates")
        return family, VectorState(value)

    grid = _build_grid(spec)
    norm = _build_norm(spec)
    initial = _build_initial_grid_state(spec, grid)

    if name == "heat":
        params = HeatDriftParams.create(fam_cfg["drift"], fam_cfg["sigma"],
                                        grid.dim)
        return make_heat_family(params, norm, grid), initial
    if name == "gexp":
        cost = _build_cost(fam_cfg["cost"], "config.family.cost")
        lg_cfg = fam_cfg["lambda_grid"]
        if lg_cfg == "auto":
            lgrid = auto_lambda_grid(cost, lipschitz_constant_estimate(initial))
        elif isinstance(lg_cfg, dict):
            lo, hi = float(lg_cfg["min"]), float(lg_cfg["max"])
            step = float(lg_cfg["step"])
            lgrid = user_lambda_grid(np.round(np.arange(lo, hi + step / 2, step), 12))
        else:
            lgrid = user_lambda_grid(np.asarray(lg_cfg, dtype=float))
        return make_gexp_family(lgrid, cost, grid, norm), initial
    if name == "g_expectation":
        pairs = tuple((float(s), float(l))
                      for s in fam_cfg["sigmas"] for l in fam_cfg["lambdas"])
        uset = SigmaLambdaSet(pairs=pairs, kind="diffusion_drift")
        return make_g_expectation_family(uset, grid, norm), initial
    if name == "robust_gbm":
        pairs = tuple((float(mu), float(sig)) for mu, sig in fam_cfg["pairs"])
        uset = SigmaLambdaSet(pairs=pairs, kind="gbm")
        params = GbmParams(mu=pairs[0][0], sigma=pairs[0][1],
                           quad_points=int(fam_cfg["M"]), p=float(fam_cfg["p"]))
        family = make_robust_gbm_family(uset, params, grid,
                                        trust_horizon=float(fam_cfg["trust_horizon"]))
        return family, _coerce_clamp(initial)
    if name == "perturbation":
        if fam_cfg["base"] == "heat":
            base = make_heat_family(
                HeatDriftParams.create(fam_cfg.get("drift", 0.0),
                                       fam_cfg.get("sigma", 1.0), grid.dim),
                norm, grid)
        else:
            base = make_identity_base_family(grid, norm)
        psi_cfg = dict(fam_cfg["psi"])
        pert = perturbation_preset(psi_cfg.pop("name"), **psi_cfg)
        return make_perturbation_family(base, pert, grid), initial
    raise ConfigError("config.family.name", f"unknown family {name!r}")


def _build_initial_grid_state(spec: ExperimentSpec, grid: Grid) -> GridFunction:
    init = spec.initial
    if "table" in init:
        names, data = read_csv_table(init["table"])
        coords = data[:, :grid.dim]
        if coords.shape[0] != grid.n_nodes or not np.array_equal(
                coords, grid.node_coords()):
            raise ConfigError("config.initial.table",
                              "table nodes do not match the configured grid")
        return sample_function(data[:, grid.dim:], grid)
    return sample_function(init["preset"], grid)


def _coerce_clamp(f: GridFunction) -> GridFunction:
    if f.extension_mode == "clamp":
        return f
    return GridFunction(f.grid, f.codomain_dim, f.values, extension_mode="clamp")


# ---------------------------------------------------------------------------
# tasks
# ---------------------------------------------------------------------------

def _fmt_time(t: float) -> str:
    return ("%g" % t).replace("-", "m").replace(".", "p")


def _task_evolve(spec, family, state, outdir, writes):
    sched = spec.schedule
    states, reports = evolve_path(family, sched["t_list"], state,
                                  tol=sched["tol"], n_min=sched["n_min"],
                                  n_max=sched["n_max"], collect_reports=True)
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


def _task_defect(spec, family, state):
    sched = spec.schedule
    t = sched.get("defect_t", sched["t_list"][0] / 2.0)
    tol = sched["tol"]
    value = semigroup_defect(family, t, t, state, tol=tol,
                             n_min=sched["n_min"], n_max=sched["n_max"])
    return {"task": "defect", "s": t, "t": t, "defect": value,
            "bound": 3.0 * tol, "passed": value <= 3.0 * tol}


def _task_generator(spec, family, state):
    sched = spec.schedule
    hs = sched.get("h_levels", [2.0**-k for k in range(4, 9)])
    table = diag.generator_estimate(family, state, hs,
                                    tol=max(sched["tol"], 1e-3),
                                    n_max=sched["n_max"])
    return {"task": "generator", "table": table.to_json_dict(),
            "passed": table.monotone_decreasing and not any(table.flagged)}


def _task_certificate(spec, family, state):
    sched = spec.schedule
    levels = sched.get("certificate_levels", [4, 5, 6, 7, 8])
    T = sched.get("certificate_horizon", 0.5)
    if family.minus_conjugate and family.state_kind == "grid":
        plus, minus, joint = diag.symmetric_lipschitz_certificate(
            family, state, T, levels)
        result = {"task": "certificate", "plus": plus.to_json_dict(),
                  "minus": minus.to_json_dict(), "joint_verdict": joint}
        verdict = joint
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
        n_samples=int(sched.get("audit_samples", 20)),
        R=float(sched.get("audit_radius", 1.0)),
        t_list=sched.get("audit_times", [0.25, 0.5]),
        seed=spec.seed,
    )
    return {"task": "audit", "report": report.to_json_dict(),
            "passed": report.violation_count == 0}


def _task_monotonicity(spec, family, state):
    sched = spec.schedule
    levels = sched.get("monotonicity_levels", [2, 3, 4, 5])
    t = sched.get("monotonicity_t", sched["t_list"][0])
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
    "defect": _task_defect,
    "generator": _task_generator,
    "certificate": _task_certificate,
    "audit": _task_audit,
    "monotonicity": _task_monotonicity,
    "telescoping": _task_telescoping,
}


def run_experiment(spec: ExperimentSpec, out_dir=None) -> dict:
    """Run all tasks; write per-task reports, CSVs and the manifest.

    Deterministic for fixed spec and seed.  Partial task failures are
    recorded in the manifest; the manifest's `passed` flag is the exit-code
    contract (true iff every asserted check passed).
    """
    try:
        family, state = build_family(spec)
    except ConfigError:
        raise
    except ValueError as e:  # a family constructor rejected the config
        raise ConfigError("config.family", str(e)) from None
    outdir = Path(out_dir or spec.output_dir or os.environ.get("SEMIFLOW_OUT", "out"))
    outdir.mkdir(parents=True, exist_ok=True)

    writes: list[str] = []
    results = {}
    errors = {}
    for task in spec.tasks:
        try:
            if task == "evolve":
                results[task] = _task_evolve(spec, family, state, outdir, writes)
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


def emit_plot(csv_path, svg_path, options: dict | None = None) -> None:
    """Render x vs each value column of a grid-function CSV as a static SVG.

    Fixed 800x500 viewBox, round-number axis ticks, a legend when more than
    one series is present, no external assets.
    """
    options = options or {}
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
