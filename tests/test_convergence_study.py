"""The level convergence study as a regression test: the heat iterates do
not drift with the level, and the convex expectation converges."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LEVELS = range(4, 10)


def _study():
    path = ROOT / "scripts" / "level_convergence_study.py"
    spec = importlib.util.spec_from_file_location("level_convergence_study", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_heat_error_flat_and_gexp_error_falling_in_the_level():
    study = _study()
    heat = study.heat_study(LEVELS)
    assert max(heat) <= 1.01 * min(heat)
    gexp = study.gexp_study(LEVELS)
    assert all(b < a for a, b in zip(gexp, gexp[1:]))
