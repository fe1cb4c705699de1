"""The benchmark's tracer must still find and wrap every binding it needs.

perfbench/tracer.py wraps the public functions of every semiflow module and
checks that the bindings in its REQUIRED_BINDINGS are wrapped, so a change
that renames or drops one of them breaks the traced benchmark runs.  Its
heat counters read the arguments of heat_multi_step after every call, so a
change to those arguments breaks the traced runs too.  Its self-checks
count step calls under chernoff_limit against the reported steps_total and
distance calls against the limits' deltas, so a change that steps or
measures outside the traced bindings fails the traced runs as well.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


# one gexp step of five unit-diffusion drifts through the traced binding
STEP = """
import numpy as np
from semiflow.families_nonlinear import (make_gexp_family, quadratic_cost,
                                         user_lambda_grid)
from semiflow.state_space import grid_create, sample_function
g = grid_create(1, 4.0, 81)
fam = make_gexp_family(user_lambda_grid(np.linspace(-1.0, 1.0, 5)),
                       quadratic_cost(0.5), g)
fam.step(0.125, sample_function("gaussian_bump", g))
calls = sum(n == tr.nid["heat_multi_step"] for n in tr.name)
assert calls == 1, calls
assert len(tr.c.heat_taps) == 5 and tr.c.heat_flop > 0, tr.c.heat_taps
"""


# one experiment through run_experiment, traced as perfbench/child.py traces
# a workload, followed by the checks of its test
EXPERIMENT = """
import time
import semiflow.cli as cli
spec = cli.parse_config(CONFIG)
tr.begin_experiment(0)
t0 = time.perf_counter()
manifest = cli.run_experiment(spec, out_dir=OUT)
wall_s = time.perf_counter() - t0
assert manifest["passed"], manifest
# share.covered is timing-dependent; every other self-check is exact
failed = [e for e in tracer.self_checks(tr, tracer.layer_metrics(tr, wall_s))
          if not e.startswith("named layers cover")]
assert not failed, failed
"""

# a heat experiment: evolve at two times, the defect and the generator
HEAT_CONFIG = {
    "family": {"name": "heat", "drift": 0.5, "sigma": 1.0},
    "grid": {"dim": 1, "x_max": 4.0, "n_points": 81},
    "initial": {"preset": "gaussian_bump"},
    "schedule": {"t_list": [0.25, 0.5], "tol": 1e-3, "n_max": 10},
    "tasks": ["evolve", "defect", "generator"],
}

# a gexp experiment running the symmetric certificate alone, over the
# 0.25 * 2^6 = 16 times of its finest ladder
CERTIFICATE_CONFIG = {
    "family": {"name": "gexp", "cost": {"name": "quadratic", "a": 0.5},
               "lambda_grid": [-1.0, -0.5, 0.0, 0.5, 1.0]},
    "grid": {"dim": 1, "x_max": 4.0, "n_points": 81},
    "initial": {"preset": "gaussian_bump"},
    "schedule": {"certificate_horizon": 0.25, "certificate_levels": [3, 4, 5, 6]},
    "tasks": ["certificate"],
}


def run_traced(code):
    """Run code in a fresh process after tr = tracer.install()."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    code = ("import sys; sys.path.insert(0, 'perfbench'); import tracer; "
            "tr = tracer.install()" + code)
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_tracer_installs():
    run_traced(STEP)


def run_traced_experiment(tmp_path, config, checks):
    """Run config traced through run_experiment, then the code checks."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    run_traced(f"\nCONFIG = {str(path)!r}\nOUT = {str(tmp_path / 'out')!r}"
               + EXPERIMENT + checks)


def test_traced_experiment_keeps_the_trace_invariants(tmp_path):
    run_traced_experiment(
        tmp_path, HEAT_CONFIG,
        "assert tr.c.limit_steps_total > 0 and tr.c.grid_deltas > 0\n")


def test_traced_certificate_takes_one_traced_batch_per_time(tmp_path):
    # the images of f and -f come from one heat_multi_step call per ladder
    # time, made through the traced binding although outside family.step
    run_traced_experiment(
        tmp_path, CERTIFICATE_CONFIG,
        "calls = sum(n == tr.nid['heat_multi_step'] for n in tr.name)\n"
        "assert calls == 16, calls\n")
