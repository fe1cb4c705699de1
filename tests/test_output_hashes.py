"""Smoke test of scripts/output_hashes.py: two runs of one config give the
same hashes, and --compare flags a hash that differs."""

import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import load_module

ROOT = Path(__file__).resolve().parent.parent


def _compare(tmp_path, hashes):
    path = tmp_path / "before.json"
    path.write_text(json.dumps(hashes))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / "output_hashes.py"),
                           "--only", "ode_decay", "--compare", str(path)],
                          capture_output=True, text=True, env=env)


def test_runs_agree_and_a_changed_hash_is_flagged(tmp_path):
    hashes = load_module("scripts/output_hashes.py").output_hashes(1, ["ode_decay"])
    assert "configs/ode_decay/evolve.json" in hashes
    assert all(path.startswith("configs/ode_decay/") for path in hashes)
    same = _compare(tmp_path, hashes)
    assert same.returncode == 0, same.stderr
    assert json.loads(same.stdout) == hashes
    mutated = dict(hashes, **{"configs/ode_decay/evolve.json": "0" * 64})
    changed = _compare(tmp_path, mutated)
    assert changed.returncode == 1
    assert changed.stderr.splitlines() == ["differs: configs/ode_decay/evolve.json"]
