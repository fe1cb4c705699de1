"""The benchmark's tracer must still find and wrap every binding it needs.

perfbench/tracer.py wraps the public functions of every semiflow module and
checks that the bindings in its REQUIRED_BINDINGS are wrapped, so a change
that renames or drops one of them breaks the traced benchmark runs.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    code = ("import sys; sys.path.insert(0, 'perfbench'); import tracer; "
            "tracer.install()")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
