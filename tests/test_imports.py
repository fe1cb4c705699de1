"""What the package loads, and when.

The heat kernel needs no scipy at all, so importing the CLI loads neither
scipy.special nor scipy.sparse; the robust GBM family loads scipy.sparse
for its plans when it is built, so the import is not paid inside a step.
"""

import os
import subprocess
import sys
from pathlib import Path

from scipy.special import ndtri

from semiflow import families_linear as fl

ROOT = Path(__file__).resolve().parent.parent

PROBE = """
import sys
import semiflow.cli
print("special" if "scipy.special" in sys.modules else "-")
print("sparse" if "scipy.sparse" in sys.modules else "-")
from semiflow.families_linear import GbmParams
from semiflow.families_nonlinear import SigmaLambdaSet, make_robust_gbm_family
from semiflow.state_space import grid_create
make_robust_gbm_family(SigmaLambdaSet(pairs=((0.1, 0.2),), kind="gbm"),
                       GbmParams(mu=0.1, sigma=0.2), grid_create(1, 8.0, 161))
print("sparse" if "scipy.sparse" in sys.modules else "-")
"""


def test_cli_import_loads_no_scipy_special_or_sparse():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["-", "-", "sparse"]


def test_escape_quantile_is_the_normal_quantile():
    assert fl._Z_ESCAPE == -ndtri(fl.GBM_ESCAPE_THRESHOLD)
