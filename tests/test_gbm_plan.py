"""Differential test of the GBM step plans against an np.interp loop.

The reference evaluates E[f(x X_t)] as the GBM step did before plans: on
every call it reads f at x F_q for all nodes and quadrature factors with
np.interp, which clamps beyond the box, and sums with the Gauss-Hermite
weights.
"""

import math
import warnings

import numpy as np
import pytest

from conftest import held_gbm_plan
from semiflow import families_linear as fl
from semiflow.families_linear import GbmParams, gbm_step
from semiflow.state_space import GridFunction, grid_create


def reference_gbm_step(f, t, params):
    x = f.grid.axis(0)
    z, w = np.polynomial.hermite.hermgauss(params.quad_points)
    factors = np.exp((params.mu - params.sigma**2 / 2.0) * t
                     + params.sigma * math.sqrt(2.0 * t) * z)
    pts = x[:, None] * factors[None, :]
    out = np.empty_like(f.values)
    for comp in range(f.codomain_dim):
        sampled = np.interp(pts, x, f.values[:, comp])
        out[:, comp] = sampled @ w / math.sqrt(math.pi)
    return out


def _state(n, seed=5):
    g = grid_create(1, 16.0, n)
    rng = np.random.default_rng(seed)
    walk = np.cumsum(rng.uniform(-1.0, 1.0, n)) * g.h[0]
    return GridFunction(g, 2, np.stack([g.axis(0), walk], axis=1), "clamp")


def _assert_matches_reference(f, t, params):
    ref = reference_gbm_step(f, t, params)
    got = gbm_step(f, t, params).values
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


PAIRS = [(0.1, 0.2), (-0.1, 0.2), (0.05, 0.3), (-0.3, 0.0), (0.2, 0.0),
         (0.0, 1.5)]


# at n = 3 the half grid holds x = 0 and x_max, and every cell is cell 0
@pytest.mark.parametrize("n", [3, 41, 1601])
@pytest.mark.parametrize("mu,sigma", PAIRS)
def test_plan_matches_interp_loop(n, mu, sigma):
    f = _state(n)
    params = GbmParams(mu=mu, sigma=sigma)
    for k in range(13):
        _assert_matches_reference(f, 2.0**-k, params)


def test_small_quadrature():
    f = _state(41)
    _assert_matches_reference(f, 0.25, GbmParams(mu=0.1, sigma=0.4,
                                                 quad_points=8))


def test_codomain_three():
    g = grid_create(1, 8.0, 161)
    x = g.axis(0)
    f = GridFunction(g, 3, np.stack([x, np.sin(x), np.abs(x)**1.5], axis=1),
                     "clamp")
    for mu, sigma in PAIRS:
        _assert_matches_reference(f, 0.125, GbmParams(mu=mu, sigma=sigma))


@pytest.mark.parametrize("mu,sigma", [(0.5, 1.5), (0.5, 0.0)])
def test_points_beyond_the_box_read_the_last_cell(mu, sigma):
    g = grid_create(1, 4.0, 81)
    f = GridFunction(g, 2, _state(81).values, "clamp")
    params = GbmParams(mu=mu, sigma=sigma)
    _assert_matches_reference(f, 1.0, params)
    plan = held_gbm_plan(params)
    m = plan.cells.shape[0]
    z = fl._gauss_hermite(params.quad_points)[0]
    factors = np.exp(mu - sigma**2 / 2.0 + sigma * math.sqrt(2.0) * z)
    beyond = np.multiply.outer(g.axis(0)[m - 1:], factors) > 4.0
    assert beyond.any()
    # a point beyond the box reads the edge value only: the last cell, w = 1
    assert np.all(plan.cells[beyond] == m - 2)
    assert np.array_equal(plan.high[beyond],
                          np.broadcast_to(plan.q, beyond.shape)[beyond])
    if sigma == 0.0:
        # the pure drift e^{mu} moves whole rows beyond the box
        assert np.all(beyond, axis=1).any()


def test_held_plan_is_read_only():
    f = _state(41)
    params = GbmParams(mu=0.1, sigma=0.2)
    gbm_step(f, 0.25, params)
    plan = held_gbm_plan(params)
    assert plan.cells.dtype == np.intp
    for a in (plan.cells, plan.high, plan.q):
        assert not a.flags.writeable


def test_escape_warning_on_every_flagged_call():
    g = grid_create(1, 4.0, 81)
    f = GridFunction(g, 1, g.axis(0), "clamp")
    params = GbmParams(mu=0.5, sigma=0.5)
    fl._PLANS.clear()
    for _ in range(3):
        with pytest.warns(UserWarning, match="escaping"):
            gbm_step(f, 4.0, params, trusted_radius=3.9)
    assert len(fl._PLANS) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gbm_step(f, 2.0**-6, params, trusted_radius=0.5)


def test_plan_cache_keeps_last_plan_per_member():
    f = _state(41)
    a = GbmParams(mu=0.1, sigma=0.2)
    b = GbmParams(mu=-0.1, sigma=0.3)
    fl._PLANS.clear()
    gbm_step(f, 0.25, a)
    gbm_step(f, 0.25, b)
    assert len(fl._PLANS) == 2
    plan_a, plan_b = held_gbm_plan(a), held_gbm_plan(b)
    # the same dt reuses the held plan
    gbm_step(f, 0.25, a)
    assert held_gbm_plan(a) is plan_a
    # a new dt replaces the member's plan and leaves the other's
    gbm_step(f, 0.125, a)
    assert held_gbm_plan(a) is not plan_a
    assert held_gbm_plan(b) is plan_b
    assert len(fl._PLANS) == 2
    # a call on another grid replaces only that member's plan
    gbm_step(_state(81), 0.25, a)
    assert held_gbm_plan(b) is plan_b
    assert len(fl._PLANS) == 2


def test_escape_mass_flags_match_the_normal_tail():
    # the escape mass is 0.5 erfc(z / sqrt 2); over z in [-3, 9] it flags
    # the same nodes as the normal tail 1 - ndtr(z)
    from scipy.special import ndtr

    mu, sigma, t, x_max = 0.1, 0.3, 0.5, 16.0
    z = np.linspace(-3.0, 9.0, 100_001)
    x = x_max * np.exp(-(mu - sigma**2 / 2.0) * t - z * sigma * math.sqrt(t))
    mass = fl._gbm_escape_mass(x, t, mu, sigma, x_max)
    tail = 1.0 - ndtr((np.log(x_max / x) - (mu - sigma**2 / 2.0) * t)
                      / (sigma * math.sqrt(t)))
    assert np.array_equal(mass > fl.GBM_ESCAPE_THRESHOLD,
                          tail > fl.GBM_ESCAPE_THRESHOLD)
    assert np.allclose(mass, tail, rtol=1e-6, atol=1e-15)
