"""The one plan cache of the heat and GBM kernels: each slot, a grid axis of
the heat step or a GBM member, holds the plan of its last (grid, dt).

Reuse and replacement within one kernel are tested in test_heat_plan and
test_gbm_plan; these tests count the plans each kernel builds."""

import numpy as np

from conftest import random_bumps
from semiflow import families_linear as fl
from semiflow.diagnostics import symmetric_lipschitz_certificate
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


def test_certificate_ladder_builds_one_plan_per_time(monkeypatch):
    builds = _count_builds(monkeypatch)
    fl._PLANS.clear()
    # a certificate ladder steps both states at each of its 32 times in turn
    g = grid_create(1, 6.0, 1201)
    fam = make_gexp_family(user_lambda_grid(np.linspace(-2.0, 2.0, 41)),
                           quadratic_cost(0.5), g)
    symmetric_lipschitz_certificate(fam, random_bumps(g, seed=3), 0.125,
                                    [4, 5, 6, 7, 8])
    assert list(fl._PLANS) == [("heat", 0)]
    assert builds == {"heat": 32, "gbm": 0}


def test_alternating_kernels_build_each_plan_once(monkeypatch):
    builds = _count_builds(monkeypatch)
    fl._PLANS.clear()
    a = GbmParams(mu=0.1, sigma=0.2)
    b = GbmParams(mu=-0.1, sigma=0.3)
    heat_state = random_bumps(grid_create(2, 3.0, 41), seed=1)
    gbm_state = _gbm_state(81)
    for _ in range(4):
        heat_multi_step(heat_state, 2.0**-5, np.array([[0.5, -1.0]]), np.ones(1))
        for params in (a, b):
            gbm_step(gbm_state, 2.0**-5, params)
    assert builds == {"heat": 2, "gbm": 2}
    assert len(fl._PLANS) == 4
