"""The growth rate omega that kernel_family works out for a Gaussian
candidate set.  On the weighted norm with p = 2, I(t) maps w = 1 + |x|^2
(of norm 1) within the declared envelope alpha(1, t) = e^{omega t} and the
envelope audit finds no violation; any other p is refused for a set that
moves, and a set that does not move (the identity base) has omega = 0 on
every norm."""

import math

import numpy as np
import pytest

from semiflow.diagnostics import alpha_beta_audit
from semiflow.families_linear import (
    HeatDriftParams,
    make_heat_family,
    make_identity_base_family,
)
from semiflow.families_nonlinear import (
    SigmaLambdaSet,
    make_g_expectation_family,
    make_gexp_family,
    make_perturbation_family,
    perturbation_preset,
    quadratic_cost,
    user_lambda_grid,
)
from semiflow.state_space import NormSpec, grid_create, sample_function

GRIDS = {1: grid_create(1, 4.0, 81), 2: grid_create(2, 4.0, 33)}
P2, P3 = NormSpec("weighted", p=2.0), NormSpec("weighted", p=3.0)


def heat(dim, norm):
    return make_heat_family(HeatDriftParams.create(0.5, 1.0, dim), norm, GRIDS[dim])


def gexp(dim, norm):
    lams = [-1.0, 0.0, 1.0] if dim == 1 else [(-1.0, 0.5), (0.0, 0.0), (1.0, -0.5)]
    return make_gexp_family(user_lambda_grid(lams, dim), quadratic_cost(0.5, dim),
                            GRIDS[dim], norm)


def g_expectation(dim, norm):
    # in 2D a scalar sigma diffuses along both axes
    pairs = ((1.0, 1.0), (0.5, -1.0)) if dim == 1 else ((2.0, 0.0),)
    return make_g_expectation_family(SigmaLambdaSet(pairs), GRIDS[dim], norm)


def perturbation(dim, norm):
    return make_perturbation_family(heat(dim, norm), perturbation_preset("sin"),
                                    GRIDS[dim])


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("build", [heat, gexp, g_expectation, perturbation])
def test_weighted_p2_envelopes(build, dim):
    fam = build(dim, P2)
    grid = GRIDS[dim]
    w = sample_function(1.0 + np.sum(grid.node_coords() ** 2, axis=1), grid)
    R = fam.norm_of(w)
    for t in (2.0**-10, 2.0**-6, 2.0**-4, 0.5):
        assert fam.norm_of(fam.step(t, w)) <= fam.alpha(R, t) * (1 + 1e-12), t
    assert alpha_beta_audit(fam, 12, 1.0, [0.25, 0.5], seed=3).violation_count == 0
    with pytest.raises(ValueError, match="p = 2"):
        build(dim, P3)


def test_growth_rate_formula():
    # 1 + max_c sum_a (r+ + r-) h_a^2 + max_c |b_c|^2: sigma^2 on each axis
    # where the rates are central, sigma^2 + |b| h where they are upwind
    assert g_expectation(2, P2).params["omega"] == pytest.approx(9.0, rel=1e-12)
    g = grid_create(1, 4.0, 81)  # h = 0.1: |b| h = 0.2 > sigma^2 = 0.01
    upwind = make_heat_family(HeatDriftParams.create(2.0, 0.1, 1), P2, g)
    assert upwind.params["omega"] == pytest.approx(1.0 + 0.21 + 4.0, rel=1e-12)
    assert heat(2, NormSpec("sup")).params["omega"] == 0.0


@pytest.mark.parametrize("dim", [1, 2])
def test_identity_base_has_rate_zero_on_any_norm(dim):
    base = make_identity_base_family(GRIDS[dim], P3)
    assert base.params["omega"] == 0.0
    assert alpha_beta_audit(base, 12, 1.0, [0.25, 0.5], seed=3).violation_count == 0
    pert = make_perturbation_family(base, perturbation_preset("sin"), GRIDS[dim])
    assert pert.alpha(1.0, 0.5) == pytest.approx(math.exp(1.0), rel=1e-12)
