"""The benchmark's tracer must still find and wrap every binding it needs.

perfbench/tracer.py wraps the public functions of every semiflow module and
checks that the bindings in its REQUIRED_BINDINGS are wrapped, so a change
that renames or drops one of them breaks the traced benchmark runs.  Its
heat counters read the arguments of heat_multi_step after every call, so a
change to those arguments breaks the traced runs too.
"""

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


def test_tracer_installs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    code = ("import sys; sys.path.insert(0, 'perfbench'); import tracer; "
            "tr = tracer.install()" + STEP)
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
