import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ive

from conftest import random_bumps
from semiflow.families_linear import (
    GbmParams,
    HeatDriftParams,
    gbm_growth_rate,
    gbm_step,
    heat_drift_step,
    heat_multi_step,
    make_heat_family,
)
from semiflow.families_nonlinear import gbm_trusted_radius, make_robust_gbm_family
from semiflow.state_space import (
    GridFunction,
    NormSpec,
    distance,
    grid_create,
    lipschitz_constant_estimate,
    sample_function,
    with_values,
)


def brute_force_chain(f, t, lam, sig, i):
    """E[f(x_i + h K)] for the displacement K = N+ - N- of the grid chain,
    N+- independent Poisson counts of its up and down jumps (the central
    rates sig^2/(2h^2) +- lam/(2h) here), with f read through its extension
    outside the box.  K has the Skellam law
    P(K = k) = (m+/m-)^{k/2} e^{-(m+ + m-)} I_k(2 sqrt(m+ m-)), summed term
    by term: the independent oracle of the FFT step."""
    h = f.grid.h[0]
    assert abs(lam) * h <= sig * sig
    up = t * (sig * sig / (2 * h * h) + lam / (2 * h))
    down = t * (sig * sig / (2 * h * h) - lam / (2 * h))
    z = 2.0 * math.sqrt(up * down)
    k = np.arange(-600, 601)
    law = (up / down) ** (k / 2.0) * ive(k, z) * math.exp(z - up - down)
    vals = f.values[:, 0]
    j = i + k
    fj = np.where((j >= 0) & (j < vals.size), vals[np.clip(j, 0, vals.size - 1)], 0.0)
    if f.extension_mode == "clamp":
        fj = np.where(j < 0, vals[0], np.where(j >= vals.size, vals[-1], fj))
    return float(np.sum(law * fj))


class TestHeatDriftStep:
    @pytest.mark.parametrize("drift,sigma,dim", [
        ("0.5", 1.0, 1), (True, 1.0, 1), (0.5, False, 1), (math.nan, 1.0, 1),
        (0.5, math.inf, 1), pytest.param(10**400, 1.0, 1, id="beyond-floats"),
        ((0.5, True), (1.0, 1.0), 2),
        ((0.5, 0.5), (1.0, "1"), 2)])
    def test_params_are_finite_numbers(self, drift, sigma, dim):
        # never a string or a bool cast to a float
        with pytest.raises(ValueError, match="drift and sigma must be finite numbers"):
            HeatDriftParams.create(drift, sigma, dim)

    def test_zero_function_fixed(self, grid_small):
        z = sample_function("zero", grid_small)
        out = heat_drift_step(z, 0.7, HeatDriftParams.create(1.0, 1.0, 1))
        assert np.all(out.values == 0.0)

    def test_t_zero_bit_exact(self, grid_small):
        f = sample_function("gaussian_bump", grid_small)
        assert heat_drift_step(f, 0.0, HeatDriftParams.create(0.0, 1.0, 1)) is f

    def test_negative_time_rejected(self, grid_small):
        f = sample_function("zero", grid_small)
        with pytest.raises(ValueError):
            heat_drift_step(f, -0.1, HeatDriftParams.create(0.0, 1.0, 1))

    @pytest.mark.parametrize("dim,drifts,sigmas", [
        (1, [[0.5, 9.0]], [[1.0, 7.0]]),  # a second column on a 1D grid
        (2, [[0.5]], [[1.0]]),            # one column on a 2D grid
        (1, [0.5], [1.0]),                # 1-D arrays
        (2, [[0.5, 0.5]], [[1.0, 1.0], [1.0, 1.0]]),  # C differs
        (1, [[[0.5]]], [[[1.0]]]),        # 3-D arrays
    ])
    @pytest.mark.parametrize("t", [0.0, 0.25])
    def test_coefficients_of_shape_c_by_dim(self, dim, drifts, sigmas, t):
        # never a column ignored or an IndexError: (C, dim) or ValueError
        f = sample_function("gaussian_bump", grid_create(dim, 2.0, 21))
        with pytest.raises(ValueError, match=rf"shape \(C, {dim}\)"):
            heat_multi_step(f, t, np.array(drifts), np.array(sigmas))

    @pytest.mark.parametrize("t,lam,sig", [
        (0.5, 0.0, 1.0), (0.25, 2.0, 1.0), (0.01, -1.0, 0.5), (2.0**-12, 3.0, 1.0),
    ])
    def test_matches_brute_force_oracle(self, t, lam, sig):
        g = grid_create(1, 4.0, 161)
        f = sample_function("gaussian_bump", g)
        out = heat_drift_step(f, t, HeatDriftParams.create(lam, sig, 1))
        for i in (0, 40, 80, 121, 160):
            oracle = brute_force_chain(f, t, lam, sig, i)
            assert out.values[i, 0] == pytest.approx(oracle, abs=1e-14)

    def test_clamp_oracle_on_identity_tail(self):
        # clamp extension: the chain reads the edge value beyond the box
        g = grid_create(1, 4.0, 161)
        f = sample_function("identity", g)
        out = heat_drift_step(f, 0.5, HeatDriftParams.create(0.0, 1.0, 1))
        for x in (3.5, 4.0, -3.9):
            i = int(np.argmin(np.abs(g.axis(0) - x)))
            oracle = brute_force_chain(f, 0.5, 0.0, 1.0, i)
            assert out.values[i, 0] == pytest.approx(oracle, abs=1e-13)
        assert out.values[80, 0] == pytest.approx(0.0, abs=1e-13)
        assert out.values[160, 0] < 4.0 - 0.1  # the clamped tail pulls it in

    def test_gaussian_analytic_solution(self):
        # exp(-x^2) evolves to (1+2t)^(-1/2) exp(-x^2/(1+2t))
        g = grid_create(1, 12.0, 2401)
        f = sample_function("gaussian_bump", g)
        t = 0.5
        out = heat_drift_step(f, t, HeatDriftParams.create(0.0, 1.0, 1))
        x = g.axis(0)
        ref = (1 + 2 * t) ** -0.5 * np.exp(-x**2 / (1 + 2 * t))
        m = np.abs(x) <= 4
        assert np.max(np.abs(out.values[m, 0] - ref[m])) <= 1e-3

    def test_first_moment_identity(self):
        g = grid_create(1, 10.0, 401)
        f = sample_function("identity", g)
        t = 0.25
        out = heat_drift_step(f, t, HeatDriftParams.create(2.0, 1.0, 1))
        x = g.axis(0)
        interior = np.abs(x) <= g.x_max[0] - 8 * math.sqrt(t) - 2 * t
        assert np.max(np.abs(out.values[interior, 0]
                             - (x[interior] + 0.5))) <= 1e-6

    def test_2d_gaussian_product_solution(self):
        g = grid_create(2, 6.0, 121)
        f = sample_function("gaussian_bump", g)
        t = 0.25
        out = heat_drift_step(f, t, HeatDriftParams.create((0.0, 0.0), (1.0, 1.0), 2))
        coords = g.node_coords()
        r2 = np.sum(coords**2, axis=1)
        ref = (1 + 2 * t) ** -1.0 * np.exp(-r2 / (1 + 2 * t))
        m = np.linalg.norm(coords, axis=1) <= 2.5
        assert np.max(np.abs(out.values[m, 0] - ref[m])) <= 2e-3

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10**6))
    def test_monotone(self, seed):
        g = grid_create(1, 6.0, 121)
        rng = np.random.default_rng(seed)
        a = sample_function(rng.standard_normal(g.n_nodes), g)
        b = sample_function(a.values[:, 0] + rng.uniform(0, 1, g.n_nodes), g)
        p = HeatDriftParams.create(rng.uniform(-1, 1), 1.0, 1)
        t = rng.uniform(0.01, 0.5)
        ua = heat_drift_step(a, t, p)
        ub = heat_drift_step(b, t, p)
        assert np.min(ub.values - ua.values) >= -1e-12

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10**6), st.floats(-3, 3), st.floats(-3, 3))
    def test_linear(self, seed, a, b):
        g = grid_create(1, 6.0, 121)
        rng = np.random.default_rng(seed)
        f1 = sample_function(rng.standard_normal(g.n_nodes), g)
        f2 = sample_function(rng.standard_normal(g.n_nodes), g)
        comb = sample_function(a * f1.values[:, 0] + b * f2.values[:, 0], g)
        p = HeatDriftParams.create(0.5, 1.0, 1)
        lhs = heat_drift_step(comb, 0.3, p).values
        rhs = (a * heat_drift_step(f1, 0.3, p).values
               + b * heat_drift_step(f2, 0.3, p).values)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10**6))
    def test_contraction(self, seed):
        g = grid_create(1, 6.0, 121)
        rng = np.random.default_rng(seed)
        f1 = sample_function(rng.standard_normal(g.n_nodes), g)
        f2 = sample_function(rng.standard_normal(g.n_nodes), g)
        p = HeatDriftParams.create(rng.uniform(-2, 2), 1.0, 1)
        t = rng.uniform(0.0, 1.0)
        d_out = distance(heat_drift_step(f1, t, p), heat_drift_step(f2, t, p),
                         NormSpec("sup"))
        d_in = distance(f1, f2, NormSpec("sup"))
        assert d_out <= d_in + 1e-12

    def test_lipschitz_preservation(self, grid_medium):
        f = sample_function("gaussian_bump", grid_medium)
        p = HeatDriftParams.create(0.0, 1.0, 1)
        c_in = lipschitz_constant_estimate(f)
        for t in (0.05, 0.25, 1.0):
            c_out = lipschitz_constant_estimate(heat_drift_step(f, t, p))
            assert c_out <= c_in + 1e-8

    def test_translation_covariance(self):
        g = grid_create(1, 8.0, 801)
        f = sample_function("gaussian_bump", g)
        shift_nodes = 25  # a = 0.25
        shifted_vals = np.roll(f.values[:, 0], -shift_nodes)
        shifted_vals[-shift_nodes:] = 0.0
        fs = sample_function(shifted_vals, g)
        fs = GridFunction(g, 1, fs.values, "zero")
        t = 0.25
        p = HeatDriftParams.create(0.0, 1.0, 1)
        u = heat_drift_step(f, t, p).values[:, 0]
        us = heat_drift_step(fs, t, p).values[:, 0]
        u_shifted = np.roll(u, -shift_nodes)
        margin = 8 * math.sqrt(t) + shift_nodes * g.h[0] + 2 * g.h[0]
        interior = np.abs(g.axis(0)) <= g.x_max[0] - margin
        assert np.max(np.abs(us[interior] - u_shifted[interior])) <= 1e-10


    def test_semigroup_on_compact_data(self):
        # each candidate steps by an exact semigroup: I(s) I(t) = I(s + t)
        # while the data's mass stays inside the box
        g = grid_create(1, 6.0, 241)
        f = sample_function("hat", g)
        for drift, sigma in ((0.75, 0.8), (-3.0, 0.2), (1.0, 0.0)):
            p = HeatDriftParams.create(drift, sigma, 1)
            two = heat_drift_step(heat_drift_step(f, 0.125, p), 0.25, p)
            one = heat_drift_step(f, 0.375, p)
            assert np.max(np.abs(two.values - one.values)) <= 1e-13

    @pytest.mark.parametrize("sigma", [1.0, 0.0])
    def test_drift_sign(self, sigma):
        # b > 0 reads f at x + b t: E[f(x + b t + sigma W_t)]
        g = grid_create(1, 12.0, 481)
        x = g.axis(0)
        inner = np.abs(x) <= 2.0
        line = GridFunction(g, 1, x[:, None], "zero")
        narrow = sample_function(np.exp(-x * x / 0.04), g)
        t = 0.5
        for b in (1.5, -1.5):
            p = HeatDriftParams.create(b, sigma, 1)
            moved = heat_drift_step(line, t, p).values[inner, 0]
            assert np.max(np.abs(moved - (x[inner] + b * t))) <= 1e-12
            peak = x[np.argmax(heat_drift_step(narrow, t, p).values[:, 0])]
            assert abs(peak + b * t) <= 2 * g.h[0]


class TestGbmStep:
    def test_zero_fixed(self):
        g = grid_create(1, 16.0, 321)
        z = GridFunction(g, 1, np.zeros((g.n_nodes, 1)), "clamp")
        out = gbm_step(z, 0.5, GbmParams(mu=0.1, sigma=0.3))
        assert np.all(out.values == 0.0)

    def test_t_zero_bit_exact(self):
        g = grid_create(1, 16.0, 321)
        f = sample_function("identity", g)
        assert gbm_step(f, 0.0, GbmParams(mu=0.1, sigma=0.3)) is f

    def test_requires_clamp(self):
        g = grid_create(1, 16.0, 321)
        f = sample_function("gaussian_bump", g)  # zero extension
        with pytest.raises(ValueError):
            gbm_step(f, 0.5, GbmParams(mu=0.1, sigma=0.3))

    def test_first_moment_lemma(self):
        # E[X_t] = e^{mu t}: identity maps to x e^{mu t} on the interior
        g = grid_create(1, 16.0, 1601)
        f = sample_function("identity", g)
        params = GbmParams(mu=0.1, sigma=0.3)
        t = 0.5
        out = gbm_step(f, t, params)
        x = g.axis(0)
        r = gbm_trusted_radius([(0.1, 0.3)], 16.0, t)
        inner = (np.abs(x) <= r) & (np.abs(x) >= 1e-9)
        rel = np.abs(out.values[inner, 0] / (x[inner] * math.exp(0.1 * t)) - 1.0)
        assert np.max(rel) <= 1e-4

    def test_zero_node_maps_to_f0(self):
        g = grid_create(1, 16.0, 321)
        rng = np.random.default_rng(2)
        f = sample_function(rng.standard_normal(g.n_nodes), g)
        out = gbm_step(f, 0.5, GbmParams(mu=0.1, sigma=0.3))
        i0 = g.n_nodes // 2
        assert out.values[i0, 0] == pytest.approx(f.values[i0, 0], abs=1e-14)

    def test_weighted_norm_growth(self):
        # ||step(f,t)||_kappa <= e^{omega t} ||f||_kappa + slack
        g = grid_create(1, 16.0, 801)
        params = GbmParams(mu=0.1, sigma=0.3)
        norm = NormSpec("weighted", p=3.0)
        omega = gbm_growth_rate([(params.mu, params.sigma)], norm.p)
        r = gbm_trusted_radius([(params.mu, params.sigma)], 16.0, 1.0)
        mask = np.abs(g.axis(0)) <= r
        zero = GridFunction(g, 1, np.zeros((g.n_nodes, 1)), "clamp")
        rng = np.random.default_rng(4)
        for _ in range(5):
            vals = np.clip(np.cumsum(rng.uniform(-1, 1, g.n_nodes)) * g.h[0], -3, 3)
            f = GridFunction(g, 1, vals[:, None], "clamp")
            for t in (0.25, 1.0):
                out = gbm_step(f, t, params)
                lhs = distance(out, zero, norm, mask=mask)
                rhs = math.exp(omega * t) * distance(f, zero, norm)
                assert lhs <= rhs + 1e-8


class TestFamilyDescriptors:
    def test_heat_envelopes(self, heat_family):
        assert heat_family.beta(1.0, 5.0) == 1.0
        assert heat_family.alpha(2.0, 3.0) == 2.0

    def test_heat_generator_at_origin(self, grid_medium):
        # A f = f''/2; for exp(-x^2) that is (4x^2-2)exp(-x^2)/2 = -1 at x=0
        fam = make_heat_family(HeatDriftParams.create(0.0, 1.0, 1),
                               NormSpec("sup"), grid_medium)
        f = sample_function("gaussian_bump", grid_medium)
        gen = fam.analytic_generator(f)
        i0 = grid_medium.n_nodes // 2
        assert gen.values[i0, 0] == pytest.approx(-1.0, abs=1e-3)

    def test_gbm_envelopes(self, robust_gbm_family):
        omega = robust_gbm_family.params["omega"]
        assert robust_gbm_family.alpha(2.0, 0.0) == 2.0
        b = robust_gbm_family.beta
        assert b(1.0, 0.25) * b(1.0, 0.5) == pytest.approx(b(1.0, 0.75), rel=1e-12)
        assert omega == pytest.approx(3 * (0.1 + 2 * 0.04 / 2), rel=1e-12)

    def test_gbm_linear_generator_identity(self, gbm_grid):
        fam = make_robust_gbm_family(((0.1, 0.3),), gbm_grid, 1.0)
        f = sample_function("identity", gbm_grid)
        gen = fam.analytic_generator(f)
        x = gbm_grid.axis(0)
        interior = np.abs(x) <= 15.0
        assert np.max(np.abs(gen.values[interior, 0] - 0.1 * x[interior])) <= 1e-9

    def test_gbm_quadrature_minimum(self):
        with pytest.raises(ValueError):
            GbmParams(mu=0.0, sigma=0.2, quad_points=4)

    @pytest.mark.parametrize("mu,sigma,quad_points", [
        (0.0, 0.2, 64.7), (0.0, 0.2, 64.0), (0.0, 0.2, True), (0.0, 0.2, "64"),
        (math.nan, 0.2, 64), (0.0, math.inf, 64), ("0.1", 0.2, 64), (True, 0.2, 64)])
    def test_gbm_member_rules(self, mu, sigma, quad_points):
        # a member's mu and sigma are finite numbers and its quadrature an
        # integer >= 8, checked when the member is made, not at its first step
        with pytest.raises(ValueError, match="integer >= 8|finite numbers"):
            GbmParams(mu=mu, sigma=sigma, quad_points=quad_points)
