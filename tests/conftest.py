import numpy as np
import pytest

from semiflow.chernoff import GeneratingFamilyDescriptor
from semiflow.families_linear import (
    HeatDriftParams,
    make_heat_family,
    make_identity_base_family,
)
from semiflow.families_nonlinear import (
    SigmaLambdaSet,
    auto_lambda_grid,
    make_g_expectation_family,
    make_gexp_family,
    make_ode_family,
    make_perturbation_family,
    make_robust_gbm_family,
    perturbation_preset,
    quadratic_cost,
    vector_field_preset,
)
from semiflow.state_space import (
    NormSpec,
    grid_create,
    lipschitz_constant_estimate,
    sample_function,
)


@pytest.fixture(scope="session")
def grid_medium():
    # h = 0.02
    return grid_create(1, 8.0, 801)


@pytest.fixture(scope="session")
def grid_fine():
    # h = 0.01
    return grid_create(1, 6.0, 1201)


@pytest.fixture(scope="session")
def grid_small():
    # h = 0.05, for cheap property probes
    return grid_create(1, 6.0, 241)


@pytest.fixture(scope="session")
def bump_medium(grid_medium):
    return sample_function("gaussian_bump", grid_medium)


@pytest.fixture(scope="session")
def heat_family(grid_medium):
    return make_heat_family(HeatDriftParams.create(0.0, 1.0, 1),
                            NormSpec("sup"), grid_medium)


@pytest.fixture(scope="session")
def bump_fine(grid_fine):
    return sample_function("gaussian_bump", grid_fine)


@pytest.fixture(scope="session")
def heat_family_fine(grid_fine):
    return make_heat_family(HeatDriftParams.create(0.0, 1.0, 1),
                            NormSpec("sup"), grid_fine)


@pytest.fixture(scope="session")
def gexp_family_fine(grid_fine, bump_fine):
    cost = quadratic_cost(0.5)
    lgrid = auto_lambda_grid(cost, lipschitz_constant_estimate(bump_fine))
    return make_gexp_family(lgrid, cost, grid_fine)


@pytest.fixture(scope="session")
def gexp_family(grid_medium, bump_medium):
    cost = quadratic_cost(0.5)
    lgrid = auto_lambda_grid(cost, lipschitz_constant_estimate(bump_medium))
    return make_gexp_family(lgrid, cost, grid_medium)


@pytest.fixture(scope="session")
def g_expectation_family(grid_medium):
    pairs = tuple((s, l) for s in (0.5, 1.0) for l in (-1.0, 0.0, 1.0))
    return make_g_expectation_family(SigmaLambdaSet(pairs=pairs), grid_medium)


@pytest.fixture(scope="session")
def gbm_grid():
    return grid_create(1, 16.0, 1601)


@pytest.fixture(scope="session")
def robust_gbm_family(gbm_grid):
    uset = SigmaLambdaSet(pairs=((0.1, 0.2), (-0.1, 0.2)), kind="gbm")
    return make_robust_gbm_family(uset, gbm_grid, trust_horizon=0.5)


@pytest.fixture(scope="session")
def ode_decay_family():
    return make_ode_family(vector_field_preset("neg_identity"))


@pytest.fixture(scope="session")
def ode_rotation_family():
    return make_ode_family(vector_field_preset("rotation"))


@pytest.fixture(scope="session")
def perturbation_family(grid_fine):
    heat = make_heat_family(HeatDriftParams.create(0.0, 1.0, 1),
                            NormSpec("sup"), grid_fine)
    return make_perturbation_family(heat, perturbation_preset("sin"), grid_fine)


def held_gbm_plan(params, trusted_radius=None):
    """The plan that the last GBM step of params left in its cache slot."""
    from semiflow.families_linear import _PLANS
    return _PLANS["gbm", params.mu, params.sigma, params.quad_points,
                  trusted_radius][1]


def random_bumps(grid, seed, n_bumps=3, amp=1.0):
    """Seeded sum-of-bumps grid function used as a generic test state."""
    rng = np.random.default_rng(seed)
    x = grid.node_coords()
    vals = np.zeros(grid.n_nodes)
    for _ in range(n_bumps):
        center = np.array([rng.uniform(-0.5 * X, 0.5 * X) for X in grid.x_max])
        width = rng.uniform(0.5, 1.5)
        vals += amp * rng.uniform(-1, 1) * np.exp(
            -np.sum((x - center) ** 2, axis=1) / width**2)
    return sample_function(vals, grid)


# -- the drift-grid conjugate, the reference of the gexp generator ------------

def legendre_transform(cost, lambda_grid):
    """Discrete convex conjugate H(x) = max_k (<x, lam_k> - L(lam_k)).

    Returns an evaluator mapping points of shape (..., d) (or bare arrays for
    d = 1) to the piecewise-linear-in-x convex under-approximation of H.
    """
    lams = lambda_grid.lambdas
    costs = cost.evaluate(lams)
    finite = np.isfinite(costs)
    if not np.any(finite):
        raise ValueError("no finite-cost drift candidates")
    lams = lams[finite]
    costs = costs[finite]

    def H(points):
        pts = np.asarray(points, dtype=np.float64)
        if lams.shape[1] == 1 and (pts.ndim == 0 or pts.shape[-1:] != (1,)):
            pts = pts[..., None]
        scores = pts @ lams.T - costs
        return np.max(scores, axis=-1)

    return H
