"""The candidate-set core of the kernel families against the per-family
formulas it replaced: kernel_generator against the generator of each
candidate's grid chain and, where the chain's rates are central, against
each family's own central-difference formula; and the heat and robust GBM
family steps against their public step functions; and the conjugate step,
the images of f and -f from one linear batch, against two steps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import legendre_transform, random_bumps
from semiflow.families_linear import (
    GbmParams,
    HeatDriftParams,
    gbm_step,
    heat_drift_step,
    make_heat_family,
    make_identity_base_family,
)
from semiflow.families_nonlinear import (
    SigmaLambdaSet,
    make_g_expectation_family,
    make_gexp_family,
    make_robust_gbm_family,
    quadratic_cost,
    user_lambda_grid,
)
from semiflow.state_space import GridFunction, NormSpec, grid_create, negate

GRIDS = {"1d": grid_create(1, 4.0, 161), "2d": grid_create(2, (3.0, 4.0), (41, 51))}
HEAT = {"1d": HeatDriftParams.create(0.5, 1.5, 1),
        "2d": HeatDriftParams.create((0.5, -1.0), (1.5, 0.75), 2)}
LAMBDAS = {"1d": np.linspace(-2.0, 2.0, 9),
           "2d": [(a, b) for a in (-1.0, 0.0, 1.5) for b in (-0.5, 0.0, 2.0)]}
PAIRS = {"1d": ((0.5, -1.0), (1.0, 0.0), (0.25, 1.5)),
         "2d": (((0.5, 0.5), (-1.0, 0.0)), ((1.0, 0.25), (0.5, 1.0)),
                ((0.75, 1.0), (-0.5, 0.25))),
         # a scalar entry applies to every axis
         "2d_mixed": ((0.5, (1.0, -1.0)), ((1.0, 0.25), 0.5), (0.75, -0.5))}
for table in (GRIDS, HEAT, LAMBDAS):
    table["2d_mixed"] = table["2d"]
GBM_PAIRS = ((0.1, 0.2), (-0.1, 0.3), (0.05, 0.0))


# -- the chain generator: the reference of kernel_generator --------------------

def chain_rates(b, sigma, h):
    """Jump rates (up, down) of the nearest-neighbour chain: central
    sigma^2/(2h^2) +- b/(2h) where |b| h <= sigma^2, else upwind
    sigma^2/(2h^2) + b^+- / h.  b and sigma may be per-node arrays."""
    var = np.asarray(sigma, dtype=float) ** 2
    b = np.asarray(b, dtype=float)
    central = np.abs(b) * h <= var
    diff = var / (2 * h * h)
    up = np.where(central, diff + b / (2 * h), diff + np.maximum(b, 0) / h)
    down = np.where(central, diff - b / (2 * h), diff + np.maximum(-b, 0) / h)
    return up, down


def is_central(b, sigma, h):
    return np.abs(b) * h <= np.asarray(sigma, dtype=float) ** 2


def neighbours(mesh, a, ext_mode):
    """f(x + h_a) and f(x - h_a); outside the box 0, or under clamp the
    edge value, the extension the step reads."""
    m = np.moveaxis(mesh, a, 0)
    lo, hi = (m[:1], m[-1:]) if ext_mode == "clamp" else (0 * m[:1], 0 * m[:1])
    plus = np.concatenate([m[1:], hi])
    minus = np.concatenate([lo, m[:-1]])
    return np.moveaxis(plus, 0, a), np.moveaxis(minus, 0, a)


def chain_generator(f, candidates):
    """max over candidates (drift per axis, sigma per axis, cost) of
    sum_a r+ (f(x + h_a) - f) + r- (f(x - h_a) - f) - cost."""
    grid = f.grid
    mesh = f.as_mesh()
    best = None
    for drift, sigma, cost in candidates:
        vals = -cost
        for a in range(grid.dim):
            up, down = chain_rates(drift[a], sigma[a], grid.h[a])
            plus, minus = neighbours(mesh, a, f.extension_mode)
            vals = vals + up * (plus - mesh) + down * (minus - mesh)
        best = vals if best is None else np.maximum(best, vals)
    return best.reshape(grid.n_nodes, f.codomain_dim)


# -- the per-family central-difference formulas, on interior nodes -------------

def central_diffs(mesh, h, a):
    """Central first and second differences along axis a; nan on the two
    end nodes, which have no central stencil."""
    m = np.moveaxis(mesh, a, 0)
    d1 = np.full_like(m, np.nan)
    d2 = np.full_like(m, np.nan)
    d1[1:-1] = (m[2:] - m[:-2]) / (2.0 * h)
    d2[1:-1] = (m[2:] - 2.0 * m[1:-1] + m[:-2]) / (h * h)
    return np.moveaxis(d1, 0, a), np.moveaxis(d2, 0, a)


def heat_reference(f, params):
    """(1/2) tr(sigma sigma^T D^2 f) + <lambda, grad f>: the sum over axes."""
    mesh = f.as_mesh()
    out = np.zeros_like(mesh)
    for a in range(f.grid.dim):
        d1, d2 = central_diffs(mesh, f.grid.h[a], a)
        out += 0.5 * params.sigma[a] ** 2 * d2 + params.drift[a] * d1
    return out.reshape(f.grid.n_nodes, f.codomain_dim)


def gexp_reference(f, lambda_grid, cost):
    """(1/2) Lap f + H(grad f) with H the drift-grid conjugate of the cost."""
    grid = f.grid
    mesh = f.as_mesh()
    lap = np.zeros_like(mesh)
    grads = []
    for a in range(grid.dim):
        d1, d2 = central_diffs(mesh, grid.h[a], a)
        lap += d2
        grads.append(d1)
    vals = 0.5 * lap + legendre_transform(cost, lambda_grid)(np.stack(grads, axis=-1))
    return vals.reshape(grid.n_nodes, f.codomain_dim)


def g_expectation_reference(f, pairs):
    """The loop over (sigma, lambda) pairs of their linear generators."""
    grid = f.grid
    mesh = f.as_mesh()
    diffs = [central_diffs(mesh, grid.h[a], a) for a in range(grid.dim)]
    best = None
    for sig, lam in per_axis_pairs(pairs, grid.dim):
        vals = sum(0.5 * sig[a] ** 2 * diffs[a][1] + lam[a] * diffs[a][0]
                   for a in range(grid.dim))
        best = vals if best is None else np.maximum(best, vals)
    return best.reshape(grid.n_nodes, f.codomain_dim)


def robust_gbm_reference(f, pairs):
    """max over (mu, sigma) of mu x f' + sigma^2 x^2 f'' / 2."""
    grid = f.grid
    mesh = f.as_mesh()
    x = grid.axis(0).reshape(-1, *([1] * (mesh.ndim - 1)))
    d1, d2 = central_diffs(mesh, grid.h[0], 0)
    best = None
    for mu, sig in pairs:
        vals = mu * x * d1 + 0.5 * sig * sig * x * x * d2
        best = vals if best is None else np.maximum(best, vals)
    return best.reshape(grid.n_nodes, f.codomain_dim)


def per_axis_pairs(pairs, dim):
    """(sigma, lambda) pairs with a scalar entry repeated on every axis."""
    return [(np.broadcast_to(np.asarray(s, dtype=float), (dim,)),
             np.broadcast_to(np.asarray(l, dtype=float), (dim,)))
            for s, l in pairs]


def assert_close(actual, reference):
    """Equal to 1e-12 of the reference's scale, on its finite entries."""
    finite = np.isfinite(reference)
    scale = np.max(np.abs(reference[finite]))
    assert scale > 0 and np.count_nonzero(finite) > reference.size // 2
    assert np.max(np.abs(actual[finite] - reference[finite])) <= 1e-12 * scale


def gbm_state(grid, seed):
    f = random_bumps(grid, seed=seed)
    return GridFunction(grid, 1, f.values + 0.3 * grid.node_coords(), "clamp")


# -- kernel_generator against the references -----------------------------------

@pytest.mark.parametrize("dim", ["1d", "2d"])
def test_heat_generator(dim):
    grid, params = GRIDS[dim], HEAT[dim]
    fam = make_heat_family(params, NormSpec("sup"), grid)
    assert all(is_central(b, s, h)
               for b, s, h in zip(params.drift, params.sigma, grid.h))
    for ext_mode in ("zero", "clamp"):
        f = GridFunction(grid, 1, random_bumps(grid, seed=1).values, ext_mode)
        gen = fam.analytic_generator(f).values
        assert_close(gen, chain_generator(f, [(params.drift, params.sigma, 0.0)]))
        assert_close(gen, heat_reference(f, params))


@pytest.mark.parametrize("dim", ["1d", "2d"])
def test_gexp_generator(dim):
    grid = GRIDS[dim]
    cost = quadratic_cost(0.5, dim=grid.dim)
    lgrid = user_lambda_grid(LAMBDAS[dim], dim=grid.dim)
    f = random_bumps(grid, seed=2)
    gen = make_gexp_family(lgrid, cost, grid).analytic_generator(f)
    lams = lgrid.lambdas
    costs = cost.evaluate(lams)
    ones = np.ones(grid.dim)
    assert_close(gen.values, chain_generator(f, [(lam, ones, c)
                                                  for lam, c in zip(lams, costs)]))
    assert np.all(is_central(lams, 1.0, np.array(grid.h)))
    assert_close(gen.values, gexp_reference(f, lgrid, cost))


@pytest.mark.parametrize("dim", ["1d", "2d", "2d_mixed"])
def test_g_expectation_generator(dim):
    grid, pairs = GRIDS[dim], PAIRS[dim]
    f = random_bumps(grid, seed=3)
    gen = make_g_expectation_family(SigmaLambdaSet(pairs=pairs), grid).analytic_generator(f)
    split = per_axis_pairs(pairs, grid.dim)
    assert_close(gen.values, chain_generator(f, [(lam, sig, 0.0) for sig, lam in split]))
    # the pairs whose rates are central on every axis give the central formula
    h = np.array(grid.h)
    central = tuple(p for p, (sig, lam) in zip(pairs, split)
                    if np.all(is_central(lam, sig, h)))
    assert 0 < len(central) < len(pairs)
    fam = make_g_expectation_family(SigmaLambdaSet(pairs=central), grid)
    assert_close(fam.analytic_generator(f).values, g_expectation_reference(f, central))


def test_robust_gbm_generator():
    grid = grid_create(1, 8.0, 401)
    f = gbm_state(grid, seed=4)
    x = grid.axis(0)
    fam = make_robust_gbm_family(GBM_PAIRS, grid, 1.0)
    gen = fam.analytic_generator(f).values
    xs = x[:, None]
    assert_close(gen, chain_generator(f, [((mu * xs,), (sig * xs,), 0.0)
                                          for mu, sig in GBM_PAIRS]))
    # with sigma > 0 the rates are central for |x| >= |mu| h / sigma^2
    pairs = GBM_PAIRS[:2]
    fam = make_robust_gbm_family(pairs, grid, 1.0)
    ref = robust_gbm_reference(f, pairs)
    ref[np.abs(x) < max(abs(mu) * grid.h[0] / sig**2 for mu, sig in pairs)] = np.nan
    assert_close(fam.analytic_generator(f).values, ref)


# -- each family's step against its public step function -----------------------

@pytest.mark.parametrize("dim", ["1d", "2d", "2d_mixed"])
@pytest.mark.parametrize("t", [2.0**-6, 0.25])
def test_steps_match_public_step_functions(dim, t):
    grid = GRIDS[dim]
    f = random_bumps(grid, seed=5)
    heat = make_heat_family(HEAT[dim], NormSpec("sup"), grid)
    assert np.array_equal(heat.step(t, f).values,
                          heat_drift_step(f, t, HEAT[dim]).values)


@pytest.mark.parametrize("t", [2.0**-6, 0.25])
def test_robust_gbm_step_is_max_of_gbm_steps(t):
    grid = grid_create(1, 8.0, 401)
    f = gbm_state(grid, seed=6)
    fam = make_robust_gbm_family(GBM_PAIRS, grid, 1.0)
    ref = np.maximum.reduce([gbm_step(f, t, GbmParams(mu=mu, sigma=sig)).values
                             for mu, sig in GBM_PAIRS])
    assert np.array_equal(fam.step(t, f).values, ref)


# -- the conjugate step against two steps ---------------------------------------

SMALL = {"1d": grid_create(1, 4.0, 41), "2d": grid_create(2, (3.0, 4.0), (9, 11)),
         "gbm": grid_create(1, 8.0, 81)}
CONJUGATE_FAMILIES = {
    "gexp_1d": make_gexp_family(user_lambda_grid(LAMBDAS["1d"]), quadratic_cost(0.5),
                                SMALL["1d"]),
    "gexp_2d": make_gexp_family(user_lambda_grid(LAMBDAS["2d"], dim=2),
                                quadratic_cost(0.5, dim=2), SMALL["2d"]),
    "g_expectation_1d": make_g_expectation_family(SigmaLambdaSet(PAIRS["1d"]),
                                                  SMALL["1d"]),
    "g_expectation_2d": make_g_expectation_family(SigmaLambdaSet(PAIRS["2d"]),
                                                  SMALL["2d"]),
    "heat_1d": make_heat_family(HEAT["1d"], NormSpec("sup"), SMALL["1d"]),
    "heat_2d": make_heat_family(HEAT["2d"], NormSpec("sup"), SMALL["2d"]),
    "identity_base": make_identity_base_family(SMALL["1d"], NormSpec("sup")),
    "robust_gbm": make_robust_gbm_family(GBM_PAIRS, SMALL["gbm"], 1.0),
}
# dyadic ladder times, non-dyadic times as an audit takes them, and t = 0
TIMES = st.one_of(st.sampled_from([0.0, 2.0**-8, 0.125, 0.5]),
                  st.floats(1e-3, 0.5))


@pytest.mark.parametrize("name, ext_mode", [
    (name, mode) for name in CONJUGATE_FAMILIES for mode in ("zero", "clamp")
    if name != "robust_gbm" or mode == "clamp"])  # the GBM step needs clamp
@settings(max_examples=20, deadline=None)
@given(data=st.data(), t=TIMES)
def test_conjugate_step_equals_two_steps(name, ext_mode, data, t):
    fam = CONJUGATE_FAMILIES[name]
    grid = fam.zero_state.grid
    values = data.draw(arrays(np.float64, (grid.n_nodes, 1),
                              elements=st.floats(-1e3, 1e3)))
    f = GridFunction(grid, 1, values, ext_mode)
    plus, minus = fam.conjugate_step(t, f)
    # value equality: the images of -f may differ from two steps in signed zeros
    assert np.array_equal(plus.values, fam.step(t, f).values)
    assert np.array_equal(minus.values, fam.step(t, negate(f)).values)
