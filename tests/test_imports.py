"""What the package loads, and when.

The package needs only numpy at run time: importing the CLI, building a
robust GBM family and taking a GBM step (whose plans are numpy gather
arrays) load no scipy module at all.
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
from semiflow.families_linear import GbmParams, gbm_step
from semiflow.families_nonlinear import SigmaLambdaSet, make_robust_gbm_family
from semiflow.state_space import grid_create, sample_function
grid = grid_create(1, 8.0, 161)
params = GbmParams(mu=0.1, sigma=0.2)
make_robust_gbm_family(SigmaLambdaSet(pairs=((0.1, 0.2),), kind="gbm"),
                       params, grid)
gbm_step(sample_function("identity", grid), 0.25, params)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_cli_import_loads_no_scipy_special_or_sparse():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]"]


def test_escape_quantile_is_the_normal_quantile():
    assert fl._Z_ESCAPE == -ndtri(fl.GBM_ESCAPE_THRESHOLD)
