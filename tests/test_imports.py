"""What the package loads, and when.

The package needs only numpy at run time: importing the CLI, building a
robust GBM family and taking a GBM step (whose plans are numpy gather
arrays) load no scipy module at all.  The package root imports none of its
modules, so a module loads only what it needs and `python -m semiflow.cli`
runs the CLI module fresh.
"""

import os
import subprocess
import sys
from pathlib import Path

from scipy.special import ndtri

from semiflow import families_linear as fl
from semiflow.state_space import grid_create, sample_function, write_csv

ROOT = Path(__file__).resolve().parent.parent

PROBE = """
import sys
import semiflow.cli
from semiflow.families_linear import GbmParams, gbm_step
from semiflow.families_nonlinear import SigmaLambdaSet, make_robust_gbm_family
from semiflow.state_space import grid_create, sample_function
grid = grid_create(1, 8.0, 161)
params = GbmParams(mu=0.1, sigma=0.2)
make_robust_gbm_family(SigmaLambdaSet(pairs=((0.1, 0.2),), kind="gbm"), grid)
gbm_step(sample_function("identity", grid), 0.25, params)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)


def test_cli_import_loads_no_scipy_special_or_sparse():
    proc = run_python("-c", PROBE)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]"]


def test_module_import_loads_only_its_dependencies():
    proc = run_python("-c", "import sys, semiflow.state_space; "
                      "print(sorted(m for m in sys.modules if m.startswith('semiflow')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["['semiflow',", "'semiflow.state_space']"]


def test_cli_runs_as_a_module_without_warnings(tmp_path):
    write_csv(sample_function("gaussian_bump", grid_create(1, 2.0, 21)),
              tmp_path / "f.csv")
    proc = run_python("-m", "semiflow.cli", "plot", str(tmp_path / "f.csv"),
                      str(tmp_path / "f.svg"))
    assert proc.returncode == 0, proc.stderr
    assert "Warning" not in proc.stderr
    assert (tmp_path / "f.svg").exists()


def test_escape_quantile_is_the_normal_quantile():
    assert fl._Z_ESCAPE == -ndtri(fl.GBM_ESCAPE_THRESHOLD)
