"""The level convergence study as a regression test: the heat iterates do
not drift with the level, and the convex expectation converges."""

from conftest import load_module

LEVELS = range(4, 10)


def test_heat_error_flat_and_gexp_error_falling_in_the_level():
    study = load_module("scripts/level_convergence_study.py")
    heat = study.heat_study(LEVELS)
    assert max(heat) <= 1.01 * min(heat)
    gexp = study.gexp_study(LEVELS)
    assert all(b < a for a, b in zip(gexp, gexp[1:]))
