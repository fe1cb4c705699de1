"""The candidate-set core of the kernel families against the per-family
formulas it replaced: kernel_generator against each family's own generator
formula, and each family's step against its public step function."""

import numpy as np
import pytest

from conftest import random_bumps
from semiflow.families_linear import (
    GbmParams,
    HeatDriftParams,
    central_diff,
    gbm_step,
    heat_drift_step,
    make_heat_family,
    second_diff,
)
from semiflow.families_nonlinear import (
    SigmaLambdaSet,
    g_expectation_step,
    gexp_step,
    legendre_transform,
    make_g_expectation_family,
    make_gexp_family,
    make_robust_gbm_family,
    quadratic_cost,
    user_lambda_grid,
)
from semiflow.state_space import GridFunction, NormSpec, grid_create

GRIDS = {"1d": grid_create(1, 4.0, 161), "2d": grid_create(2, (3.0, 4.0), (41, 51))}
HEAT = {"1d": HeatDriftParams.create(0.5, 1.5, 1),
        "2d": HeatDriftParams.create((0.5, -1.0), (1.5, 0.75), 2)}
LAMBDAS = {"1d": np.linspace(-2.0, 2.0, 9),
           "2d": [(a, b) for a in (-1.0, 0.0, 1.5) for b in (-0.5, 0.0, 2.0)]}
PAIRS = {"1d": ((0.5, -1.0), (1.0, 0.0), (0.25, 1.5)),
         "2d": (((0.5, 0.5), (-1.0, 0.0)), ((1.0, 0.25), (0.5, 1.0)),
                ((0.75, 1.0), (-0.5, 0.25)))}
GBM_PAIRS = ((0.1, 0.2), (-0.1, 0.3), (0.05, 0.0))


# -- the per-family generator formulas, kept as references --------------------

def heat_reference(f, params):
    """(1/2) tr(sigma sigma^T D^2 f) + <lambda, grad f>: the sum over axes."""
    mesh = f.as_mesh()
    out = np.zeros_like(mesh)
    for a in range(f.grid.dim):
        h = f.grid.h[a]
        out += 0.5 * params.sigma[a] ** 2 * second_diff(mesh, h, axis=a)
        out += params.drift[a] * central_diff(mesh, h, axis=a)
    return out.reshape(f.grid.n_nodes, f.codomain_dim)


def gexp_reference(f, lambda_grid, cost):
    """(1/2) Lap f + H(grad f) with H the drift-grid conjugate of the cost."""
    grid = f.grid
    mesh = f.as_mesh()
    lap = np.zeros_like(mesh)
    grads = []
    for a in range(grid.dim):
        lap += second_diff(mesh, grid.h[a], axis=a)
        grads.append(central_diff(mesh, grid.h[a], axis=a))
    vals = 0.5 * lap + legendre_transform(cost, lambda_grid)(np.stack(grads, axis=-1))
    return vals.reshape(grid.n_nodes, f.codomain_dim)


def g_expectation_reference(f, pairs):
    """The loop over (sigma, lambda) pairs of their linear generators."""
    grid = f.grid
    mesh = f.as_mesh()
    lap_terms = [second_diff(mesh, grid.h[a], axis=a) for a in range(grid.dim)]
    grad_terms = [central_diff(mesh, grid.h[a], axis=a) for a in range(grid.dim)]
    best = None
    for sig, lam in pairs:
        sigs = (float(sig),) * grid.dim if np.isscalar(sig) else sig
        lams = ((float(lam),) * grid.dim if np.isscalar(lam) and grid.dim > 1
                else np.atleast_1d(lam))
        vals = sum(0.5 * float(sigs[a]) ** 2 * lap_terms[a]
                   + float(np.atleast_1d(lams)[a]) * grad_terms[a]
                   for a in range(grid.dim))
        best = vals if best is None else np.maximum(best, vals)
    return best.reshape(grid.n_nodes, f.codomain_dim)


def robust_gbm_reference(f, pairs):
    """max over (mu, sigma) of mu x f' + sigma^2 x^2 f'' / 2."""
    grid = f.grid
    mesh = f.as_mesh()
    x = grid.axis(0).reshape(-1, *([1] * (mesh.ndim - 1)))
    d1 = central_diff(mesh, grid.h[0])
    d2 = second_diff(mesh, grid.h[0])
    best = None
    for mu, sig in pairs:
        vals = mu * x * d1 + 0.5 * sig * sig * x * x * d2
        best = vals if best is None else np.maximum(best, vals)
    return best.reshape(grid.n_nodes, f.codomain_dim)


def assert_close(actual, reference):
    scale = np.max(np.abs(reference))
    assert scale > 0
    assert np.max(np.abs(actual - reference)) <= 1e-12 * scale


def gbm_state(grid, seed):
    f = random_bumps(grid, seed=seed)
    return GridFunction(grid, 1, f.values + 0.3 * grid.node_coords(), "clamp")


# -- kernel_generator against the references -----------------------------------

@pytest.mark.parametrize("dim", ["1d", "2d"])
def test_heat_generator(dim):
    grid, params = GRIDS[dim], HEAT[dim]
    f = random_bumps(grid, seed=1)
    fam = make_heat_family(params, NormSpec("sup"), grid)
    assert_close(fam.analytic_generator(f).values, heat_reference(f, params))


@pytest.mark.parametrize("dim", ["1d", "2d"])
def test_gexp_generator(dim):
    grid = GRIDS[dim]
    cost = quadratic_cost(0.5, dim=grid.dim)
    lgrid = user_lambda_grid(LAMBDAS[dim], dim=grid.dim)
    f = random_bumps(grid, seed=2)
    fam = make_gexp_family(lgrid, cost, grid)
    assert_close(fam.analytic_generator(f).values, gexp_reference(f, lgrid, cost))


@pytest.mark.parametrize("dim", ["1d", "2d"])
def test_g_expectation_generator(dim):
    grid, pairs = GRIDS[dim], PAIRS[dim]
    f = random_bumps(grid, seed=3)
    fam = make_g_expectation_family(SigmaLambdaSet(pairs=pairs), grid)
    assert_close(fam.analytic_generator(f).values, g_expectation_reference(f, pairs))


def test_robust_gbm_generator():
    grid = grid_create(1, 8.0, 401)
    f = gbm_state(grid, seed=4)
    fam = make_robust_gbm_family(SigmaLambdaSet(pairs=GBM_PAIRS, kind="gbm"),
                                 GbmParams(mu=0.1, sigma=0.2), grid)
    assert_close(fam.analytic_generator(f).values, robust_gbm_reference(f, GBM_PAIRS))


# -- each family's step against its public step function -----------------------

@pytest.mark.parametrize("dim", ["1d", "2d"])
@pytest.mark.parametrize("t", [2.0**-6, 0.25])
def test_steps_match_public_step_functions(dim, t):
    grid = GRIDS[dim]
    f = random_bumps(grid, seed=5)
    heat = make_heat_family(HEAT[dim], NormSpec("sup"), grid)
    assert np.array_equal(heat.step(t, f).values,
                          heat_drift_step(f, t, HEAT[dim]).values)
    cost = quadratic_cost(0.5, dim=grid.dim)
    lgrid = user_lambda_grid(LAMBDAS[dim], dim=grid.dim)
    gexp = make_gexp_family(lgrid, cost, grid)
    assert np.array_equal(gexp.step(t, f).values, gexp_step(f, t, lgrid, cost).values)
    uset = SigmaLambdaSet(pairs=PAIRS[dim])
    g_exp = make_g_expectation_family(uset, grid)
    assert np.array_equal(g_exp.step(t, f).values,
                          g_expectation_step(f, t, uset).values)


@pytest.mark.parametrize("t", [2.0**-6, 0.25])
def test_robust_gbm_step_is_max_of_gbm_steps(t):
    grid = grid_create(1, 8.0, 401)
    f = gbm_state(grid, seed=6)
    fam = make_robust_gbm_family(SigmaLambdaSet(pairs=GBM_PAIRS, kind="gbm"),
                                 GbmParams(mu=0.1, sigma=0.2), grid)
    radius = fam.params["trusted_radius"]
    ref = np.maximum.reduce([gbm_step(f, t, GbmParams(mu=mu, sigma=sig),
                                      trusted_radius=radius).values
                             for mu, sig in GBM_PAIRS])
    assert np.array_equal(fam.step(t, f).values, ref)
