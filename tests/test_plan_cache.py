"""The one plan cache of the heat and GBM kernels: each slot, a grid axis of
the heat step or a GBM member, holds the plan of its last (grid, dt), and the
slot "plane" the plane step's buffers of its last extended shape.

Reuse and replacement within one kernel are tested in test_heat_plan and
test_gbm_plan; these tests count the plans each kernel builds."""

import numpy as np

from conftest import random_bumps
from semiflow import families_linear as fl
from semiflow import families_nonlinear as fn
from semiflow.diagnostics import alpha_beta_audit, symmetric_lipschitz_certificate
from semiflow.families_linear import GbmParams, gbm_step, heat_multi_step
from semiflow.families_nonlinear import make_gexp_family, quadratic_cost, user_lambda_grid
from semiflow.state_space import GridFunction, grid_create


def _count_builds(monkeypatch):
    """Count the plans each kernel builds."""
    counts = {"heat": 0, "gbm": 0}
    for kind, name in (("heat", "_build_axis_plan"), ("gbm", "_build_gbm_plan")):
        def counted(*args, _build=getattr(fl, name), _kind=kind):
            counts[_kind] += 1
            return _build(*args)
        monkeypatch.setattr(fl, name, counted)
    return counts


def _gbm_state(n):
    g = grid_create(1, 16.0, n)
    return GridFunction(g, 1, g.axis(0)[:, None], "clamp")


def _certify_ladder():
    """The symmetric certificate of a gexp state of 1201 nodes and 41 drifts
    over the 32 times of its level-8 ladder."""
    g = grid_create(1, 6.0, 1201)
    fam = make_gexp_family(user_lambda_grid(np.linspace(-2.0, 2.0, 41)),
                           quadratic_cost(0.5), g)
    symmetric_lipschitz_certificate(fam, random_bumps(g, seed=3), 0.125,
                                    [4, 5, 6, 7, 8])


def test_certificate_ladder_builds_one_plan_per_time(monkeypatch):
    builds = _count_builds(monkeypatch)
    fl._PLANS.clear()
    # a certificate ladder takes its 32 times in turn
    _certify_ladder()
    assert list(fl._PLANS) == [("heat", 0)]
    assert builds == {"heat": 32, "gbm": 0}


def test_symmetric_certificate_takes_one_batch_per_time(monkeypatch):
    builds = _count_builds(monkeypatch)
    times = []

    def counted(f, t, drifts, sigmas, _step=fn.heat_multi_step):
        times.append(t)
        return _step(f, t, drifts, sigmas)

    monkeypatch.setattr(fn, "heat_multi_step", counted)
    fl._PLANS.clear()
    # one linear batch at each of the 32 times serves the images of both
    # states, f and -f
    _certify_ladder()
    assert len(times) == len(set(times)) == 32
    assert builds == {"heat": 32, "gbm": 0}


def test_audit_builds_one_plan_per_probe_time(monkeypatch):
    builds = _count_builds(monkeypatch)
    fl._PLANS.clear()
    # every sample takes a probe time before the next time; t = 0 steps nothing
    g = grid_create(1, 6.0, 401)
    fam = make_gexp_family(user_lambda_grid(np.linspace(-2.0, 2.0, 9)),
                           quadratic_cost(0.5), g)
    report = alpha_beta_audit(fam, 6, 1.0, [0.25, 0.5, 0.125], seed=1)
    assert report.violation_count == 0
    assert builds == {"heat": 3, "gbm": 0}


def _holds_arrays(value) -> bool:
    if isinstance(value, np.ndarray):
        return True
    if isinstance(value, dict):
        value = list(value.keys()) + list(value.values())
    elif hasattr(value, "__dataclass_fields__"):
        value = list(vars(value).values())
    elif not isinstance(value, (list, tuple)):
        return False
    return any(_holds_arrays(v) for v in value)


def test_plans_hold_every_array_kept_between_steps():
    # 1D heat, 2D heat and robust GBM in turn: one entry per axis, the plane
    # buffers and one entry per member, and no other holder
    fl._PLANS.clear()
    line = random_bumps(grid_create(1, 3.0, 41), seed=1)
    heat_multi_step(line, 2.0**-5, np.array([[0.5]]), np.ones((1, 1)))
    plane = random_bumps(grid_create(2, 3.0, 41), seed=2)
    heat_multi_step(plane, 2.0**-5, np.array([[0.5, -1.0]]), np.ones((1, 2)))
    pairs = ((0.1, 0.2), (-0.1, 0.2), (0.0, 0.3))
    fam = fn.make_robust_gbm_family(pairs, grid_create(1, 16.0, 161), 0.5)
    fam.step(2.0**-5, _gbm_state(161))
    members = {("gbm", mu, sigma) for mu, sigma in pairs}
    assert set(fl._PLANS) == {("heat", 0), ("heat", 1), "plane"} | members
    assert len(fl._PLANS) == 3 + len(pairs)
    # a second plane shape replaces the buffers and adds no slot
    shape, buffers = fl._PLANS["plane"]
    wide = random_bumps(grid_create(2, (3.0, 2.0), (41, 61)), seed=3)
    heat_multi_step(wide, 2.0**-5, np.array([[0.5, -1.0]]), np.ones((1, 2)))
    assert set(fl._PLANS) == {("heat", 0), ("heat", 1), "plane"} | members
    assert fl._PLANS["plane"][0] != shape
    assert all(new is not old for new, old in zip(fl._PLANS["plane"][1], buffers))
    holders = [name for name, value in vars(fl).items()
               if isinstance(value, dict) and _holds_arrays(value)]
    assert holders == ["_PLANS"]


def test_alternating_kernels_build_each_plan_once(monkeypatch):
    builds = _count_builds(monkeypatch)
    fl._PLANS.clear()
    a = GbmParams(mu=0.1, sigma=0.2)
    b = GbmParams(mu=-0.1, sigma=0.3)
    heat_state = random_bumps(grid_create(2, 3.0, 41), seed=1)
    gbm_state = _gbm_state(81)
    for _ in range(4):
        heat_multi_step(heat_state, 2.0**-5, np.array([[0.5, -1.0]]), np.ones((1, 2)))
        for params in (a, b):
            gbm_step(gbm_state, 2.0**-5, params)
    assert builds == {"heat": 2, "gbm": 2}
    # two axes, the plane buffers and two members
    assert len(fl._PLANS) == 5
