"""Seeded workload definitions.

Each workload is a list of experiments.  An experiment is a semiflow JSON
config plus the facts the output checks need (closed forms, expected
failures).  Inputs depend only on the workload seed: the same seed writes
byte-identical config and table files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

WORKLOAD_NAMES = ("certify_wide", "evolve_deep", "gbm_robust", "plane_2d")


def axis_nodes(x_max: float, n: int) -> np.ndarray:
    """Grid nodes exactly as semiflow's Grid.axis computes them."""
    j = np.arange(n, dtype=np.float64)
    return (2.0 * j - (n - 1)) * (x_max / (n - 1))


def node_coords(dim: int, x_max: float, n: int) -> np.ndarray:
    ax = axis_nodes(x_max, n)
    if dim == 1:
        return ax[:, None]
    g0, g1 = np.meshgrid(ax, ax, indexing="ij")
    return np.stack([g0.ravel(), g1.ravel()], axis=1)


def bump_mixture(rng, count, center, width, amp, dim=1):
    """Gaussian bumps a_i exp(-|x - c_i|^2 / w_i^2) with uniform parameters."""
    return [{"c": [float(rng.uniform(*center)) for _ in range(dim)],
             "w": float(rng.uniform(*width)),
             "a": float(rng.uniform(*amp))} for _ in range(count)]


def mixture_values(bumps, coords) -> np.ndarray:
    vals = np.zeros(coords.shape[0])
    for b in bumps:
        r2 = np.sum((coords - np.asarray(b["c"])) ** 2, axis=1)
        vals += b["a"] * np.exp(-r2 / b["w"] ** 2)
    return vals


def write_table(path: Path, coords: np.ndarray, values: np.ndarray) -> None:
    """A node table in semiflow's CSV layout (17 significant digits)."""
    names = ["x", "y"][: coords.shape[1]] + ["v1"]
    rows = [",".join(names)]
    rows += [",".join("%.17g" % v for v in (*c, v_)) for c, v_ in zip(coords, values)]
    path.write_text("\n".join(rows) + "\n")


def _experiment(exp_id, config, inputs: Path, **facts):
    path = inputs / f"{exp_id}.json"
    path.write_text(json.dumps(config, indent=1, sort_keys=True))
    return {"id": exp_id, "config": str(path), **facts}


def _grid_table(inputs, exp_id, bumps, dim, x_max, n):
    coords = node_coords(dim, x_max, n)
    path = inputs / f"{exp_id}_init.csv"
    write_table(path, coords, mixture_values(bumps, coords))
    return str(path)


def certify_wide(rng, inputs: Path, out: Path):
    """gexp, quadratic cost, 41 drifts, 1201 nodes: certificate, audit, generator."""
    bumps = bump_mixture(rng, 3, (-1.5, 1.5), (0.7, 1.1), (0.3, 0.6))
    table = _grid_table(inputs, "gexp", bumps, 1, 6.0, 1201)
    # Level 8 stays: levels 4-7 leave random states inconclusive.  The shipped
    # horizon 0.5 costs ~25 s per certificate; 0.125 keeps the ladder and the
    # repeated (state, t) calls, and the audit times keep the 1133-tap kernels.
    cfg = {
        "family": {"name": "gexp", "cost": {"name": "quadratic", "a": 0.5},
                   "lambda_grid": {"min": -2.0, "max": 2.0, "step": 0.1},
                   "expected_verdict": "bounded"},
        "grid": {"dim": 1, "x_max": 6.0, "n_points": 1201},
        "initial": {"table": table},
        "schedule": {"t_list": [0.25], "tol": 1e-3, "n_min": 4, "n_max": 10,
                     "certificate_levels": [4, 5, 6, 7, 8],
                     "certificate_horizon": 0.125,
                     "audit_samples": 4, "audit_times": [0.25, 0.5]},
        "tasks": ["certificate", "audit", "generator"],
        "seed": int(rng.integers(1 << 30)),
    }
    return [_experiment("gexp", cfg, inputs)]


def evolve_deep(rng, inputs: Path, out: Path):
    """Deep-level Chernoff limits with narrow kernels: evolve and defect.

    The seeded parameters come from ranges in which every limit stops at the
    same level, so the work does not depend on the seed.  g_expectation uses
    tol 5e-4: its level-8 deltas reach 3.0e-4 on some seeds, the grid's
    resolution floor, where tol 3e-4 makes convergence seed-dependent.
    """
    exps = []
    gx = bump_mixture(rng, 1, (-0.5, 0.5), (0.9, 1.1), (0.8, 0.9))
    exps.append(_experiment("g_expectation", {
        "family": {"name": "g_expectation", "sigmas": [0.5, 1.0],
                   "lambdas": [-1.0, 0.0, 1.0]},
        "grid": {"dim": 1, "x_max": 6.0, "n_points": 1201},
        "initial": {"table": _grid_table(inputs, "g_expectation", gx, 1, 6.0, 1201)},
        "schedule": {"t_list": [0.25], "tol": 5e-4, "n_min": 4, "n_max": 10},
        "tasks": ["evolve", "defect"], "seed": 1}, inputs))
    px = bump_mixture(rng, 1, (-0.5, 0.5), (0.9, 1.1), (0.8, 0.9))
    exps.append(_experiment("perturbation_sin", {
        "family": {"name": "perturbation", "base": "heat", "sigma": 1.0,
                   "psi": {"name": "sin"}},
        "grid": {"dim": 1, "x_max": 6.0, "n_points": 1201},
        "initial": {"table": _grid_table(inputs, "perturbation_sin", px, 1, 6.0, 1201)},
        "schedule": {"t_list": [0.5], "tol": 1e-3, "n_min": 4, "n_max": 10},
        "tasks": ["evolve", "defect"], "seed": 1}, inputs))
    hx = bump_mixture(rng, 3, (-1.5, 1.5), (0.7, 1.1), (0.3, 0.6))
    heat = {"drift": 0.5, "sigma": 1.0}
    exps.append(_experiment("heat_drift", {
        "family": {"name": "heat", **heat},
        "grid": {"dim": 1, "x_max": 8.0, "n_points": 1601},
        "initial": {"table": _grid_table(inputs, "heat_drift", hx, 1, 8.0, 1601)},
        "schedule": {"t_list": [0.25, 0.5], "tol": 1e-3, "n_min": 4, "n_max": 10},
        "tasks": ["evolve", "defect"], "seed": 1}, inputs,
        closed_form={"kind": "heat_mixture", "bumps": hx, **heat,
                     "x_max": 8.0, "margin": 3.0, "max_err_bound": 2e-3}))
    # Euler deltas are linear in x0; in this range the limits at 0.5 stop at
    # n = 15 and the defect's limits at 0.25 at n = 15 and 14
    x0 = float(rng.uniform(0.94, 1.04))
    exps.append(_experiment("ode_euler", {
        "family": {"name": "ode_neg_identity"},
        "initial": {"value": [x0]},
        "schedule": {"t_list": [0.5], "tol": 5e-6, "n_min": 4, "n_max": 16},
        "tasks": ["evolve", "defect"], "seed": 1}, inputs,
        closed_form={"kind": "ode_decay", "x0": x0, "max_err_bound": 1e-5}))
    return exps


GBM_PAIRS = [[0.1, 0.2], [-0.1, 0.2], [0.05, 0.3], [0.0, 0.1]]


def gbm_robust(rng, inputs: Path, out: Path):
    """Robust GBM, four (mu, sigma) pairs, weighted norm, no heat kernel."""
    cfg = {
        "family": {"name": "robust_gbm", "pairs": GBM_PAIRS, "M": 64, "p": 3.0,
                   "trust_horizon": 0.5},
        "grid": {"dim": 1, "x_max": 16.0, "n_points": 1601},
        "norm": {"kind": "weighted", "p": 3.0},
        "initial": {"preset": "identity"},
        "schedule": {"t_list": [0.25, 0.5], "tol": 1e-3, "n_min": 4, "n_max": 12,
                     "monotonicity_levels": [2, 3, 4, 5], "audit_samples": 25},
        "tasks": ["evolve", "defect", "monotonicity", "audit"],
        "seed": int(rng.integers(1 << 30)),
    }
    return [_experiment("robust_gbm", cfg, inputs,
                        known_failures={"audit": "alpha_beta_audit measures the input "
                                        "distance through the comparison mask"})]


PLANE_CHAIN = 3


def plane_2d(rng, inputs: Path, out: Path):
    """2D g_expectation chain on 241^2 nodes; each link reads the last CSV."""
    bumps = bump_mixture(rng, 3, (-1.5, 1.5), (0.7, 1.1), (0.3, 0.6), dim=2)
    table = _grid_table(inputs, "plane_0", bumps, 2, 6.0, 241)
    exps = []
    for i in range(PLANE_CHAIN):
        exp_id = f"plane_{i}"
        cfg = {
            "family": {"name": "g_expectation", "sigmas": [0.5, 1.0],
                       "lambdas": [-1.0, 0.0, 1.0]},
            "grid": {"dim": 2, "x_max": 6.0, "n_points": 241},
            "initial": {"table": table},
            # At 241^2 the deltas sit on the kernel-bias floor and never reach
            # 1e-3; a loose tol stops every link at its first comparison, so
            # the work does not depend on the seed.
            "schedule": {"t_list": [0.25], "tol": 0.05, "n_min": 5, "n_max": 8},
            "tasks": ["evolve"], "seed": 1,
        }
        exps.append(_experiment(exp_id, cfg, inputs))
        table = str(out / exp_id / "state_t0p25.csv")
    return exps


_BUILDERS = {"certify_wide": certify_wide, "evolve_deep": evolve_deep,
             "gbm_robust": gbm_robust, "plane_2d": plane_2d}


def make_workload(name: str, seed: int, inputs: Path, out: Path) -> list[dict]:
    """Write the workload's configs and tables; return its experiment list.

    Experiment outputs go to out/<experiment id>/.
    """
    inputs.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOAD_NAMES.index(name)])
    return _BUILDERS[name](rng, inputs, out)
