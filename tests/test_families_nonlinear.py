import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import legendre_transform, random_bumps
from semiflow.chernoff import apply_partition, chernoff_limit, dyadic_partition
from semiflow.families_linear import (
    GbmParams,
    HeatDriftParams,
    heat_drift_step,
    make_heat_family,
    make_identity_base_family,
)
from semiflow.families_nonlinear import (
    SigmaLambdaSet,
    auto_lambda_grid,
    cost_preset,
    effective_lambda_radius,
    indicator_cost,
    make_g_expectation_family,
    make_gexp_family,
    make_ode_family,
    make_perturbation_family,
    make_robust_gbm_family,
    ode_euler_step,
    perturbation_preset,
    perturbation_step,
    quadratic_cost,
    telescoping_residual,
    user_lambda_grid,
    vector_field_preset,
)
from semiflow.state_space import (
    NormSpec,
    VectorState,
    distance,
    grid_create,
    lipschitz_constant_estimate,
    negate,
    sample_function,
    with_values,
)


class TestGexpStep:
    def test_zero_state_fixed(self, grid_small):
        z = sample_function("zero", grid_small)
        cost = quadratic_cost(0.5)
        lg = user_lambda_grid([-1.0, 0.0, 1.0])
        out = make_gexp_family(lg, cost, grid_small).step(0.5, z)
        assert np.max(np.abs(out.values)) <= 1e-15

    def test_singleton_grid_is_heat_bit_exact(self, grid_small):
        f = sample_function("gaussian_bump", grid_small)
        cost = quadratic_cost(0.5)
        out = make_gexp_family(user_lambda_grid([0.0]), cost,
                               grid_small).step(0.25, f)
        ref = heat_drift_step(f, 0.25, HeatDriftParams.create(0.0, 1.0, 1))
        assert np.array_equal(out.values, ref.values)

    def test_t_zero_bit_exact(self, grid_small):
        f = sample_function("gaussian_bump", grid_small)
        fam = make_gexp_family(user_lambda_grid([0.0, 1.0]), quadratic_cost(0.5),
                               grid_small)
        assert fam.step(0.0, f) is f

    def test_infinite_cost_candidate_rejected(self, grid_small):
        cost = indicator_cost(-1.0, 1.0)
        with pytest.raises(ValueError):
            make_gexp_family(user_lambda_grid([0.0, 2.0]), cost, grid_small)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10**6))
    def test_contraction(self, seed):
        g = grid_create(1, 6.0, 121)
        rng = np.random.default_rng(seed)
        f1 = sample_function(rng.standard_normal(g.n_nodes), g)
        f2 = sample_function(rng.standard_normal(g.n_nodes), g)
        cost = quadratic_cost(0.5)
        step = make_gexp_family(user_lambda_grid(np.linspace(-2, 2, 9)), cost,
                                g).step
        t = rng.uniform(0.0, 0.5)
        d_out = distance(step(t, f1), step(t, f2), NormSpec("sup"))
        assert d_out <= distance(f1, f2, NormSpec("sup")) + 1e-12

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10**6), st.floats(0.0, 1.0))
    def test_convex_and_monotone(self, seed, theta):
        g = grid_create(1, 6.0, 121)
        rng = np.random.default_rng(seed)
        f1 = sample_function(rng.standard_normal(g.n_nodes), g)
        f2 = sample_function(rng.standard_normal(g.n_nodes), g)
        cost = quadratic_cost(0.5)
        step = make_gexp_family(user_lambda_grid(np.linspace(-2, 2, 9)), cost,
                                g).step
        t = 0.25
        mix = sample_function(theta * f1.values[:, 0] + (1 - theta) * f2.values[:, 0], g)
        lhs = step(t, mix).values
        rhs = theta * step(t, f1).values + (1 - theta) * step(t, f2).values
        assert np.min(rhs - lhs) >= -1e-10
        dom = sample_function(f1.values[:, 0] + rng.uniform(0, 1, g.n_nodes), g)
        assert np.min(step(t, dom).values - step(t, f1).values) >= -1e-12

    def test_lipschitz_constant_preserved(self, grid_medium):
        f = sample_function("gaussian_bump", grid_medium)
        cost = quadratic_cost(0.5)
        fam = make_gexp_family(user_lambda_grid(np.linspace(-2, 2, 17)), cost,
                               grid_medium)
        c_in = lipschitz_constant_estimate(f)
        for t in (0.125, 0.5):
            c_out = lipschitz_constant_estimate(fam.step(t, f))
            assert c_out <= c_in + 1e-8


class TestEffectiveLambdaRadius:
    def test_zero_lipschitz_gives_anchor(self):
        assert effective_lambda_radius(0.0, quadratic_cost(0.5)) == 0.0

    def test_quadratic_algebra(self):
        # c|l| <= l^2/2 for |l| >= 2c
        assert effective_lambda_radius(1.0, quadratic_cost(0.5)) == \
            pytest.approx(2.0, abs=2e-3)

    def test_quadratic_at_bump_constant(self):
        c = math.sqrt(2.0) * math.exp(-0.5)  # 0.8578
        assert effective_lambda_radius(c, quadratic_cost(0.5)) == \
            pytest.approx(2 * c, abs=2e-3)

    def test_indicator_radius(self):
        assert effective_lambda_radius(3.0, indicator_cost(-1.0, 2.0)) == \
            pytest.approx(2.0, abs=1e-2)

    def test_auto_grid_contains_anchor(self):
        lg = auto_lambda_grid(quadratic_cost(0.5), 1.0)
        assert np.any(np.all(lg.lambdas == 0.0, axis=1))

    def test_insufficient_witness(self):
        from semiflow.families_nonlinear import CostFunction
        cost = CostFunction(evaluate=lambda l: np.zeros(np.atleast_2d(l).shape[0]),
                            anchor=np.zeros(1),
                            witness_radius=lambda c: math.inf)
        with pytest.raises(ValueError, match="witness"):
            effective_lambda_radius(1.0, cost)


class TestLegendreTransform:
    def test_vanishes_at_origin(self):
        H = legendre_transform(quadratic_cost(0.5),
                               user_lambda_grid(np.linspace(-3, 3, 25)))
        assert H(np.zeros(1))[()] == 0.0

    def test_quadratic_conjugate(self):
        lg = user_lambda_grid(np.round(np.arange(-4, 4.0001, 0.05), 10))
        H = legendre_transform(quadratic_cost(0.5), lg)
        assert float(H(np.array([1.0]))) == pytest.approx(0.5, abs=7e-4)
        for x in (-1.7, -0.3, 0.9, 2.2):
            assert float(H(np.array([x]))) == pytest.approx(x * x / 2, abs=7e-4)

    def test_zero_cost_support_function(self):
        lg = user_lambda_grid([-1.0, 1.0])
        from semiflow.families_nonlinear import CostFunction
        cost = CostFunction(evaluate=lambda l: np.zeros(np.atleast_2d(l).shape[0]),
                            anchor=np.array([1.0]),
                            witness_radius=lambda c: 1.0)
        H = legendre_transform(cost, lg)
        for x in (-2.0, -0.5, 0.0, 1.5):
            assert float(H(np.array([x]))) == abs(x)


class TestGexpFamily:
    def test_declared_beta_one(self, gexp_family):
        assert gexp_family.beta(3.0, 0.7) == 1.0

    def test_generator_at_origin(self, gexp_family, bump_medium):
        # A f = f''/2 + (f')^2/2 -> -1 + 0 at x = 0 for the gaussian bump
        gen = gexp_family.analytic_generator(bump_medium)
        i0 = bump_medium.grid.n_nodes // 2
        assert gen.values[i0, 0] == pytest.approx(-1.0, abs=1e-3)

    def test_generator_of_zero_is_zero(self, gexp_family, grid_medium):
        z = sample_function("zero", grid_medium)
        gen = gexp_family.analytic_generator(z)
        assert np.max(np.abs(gen.values)) == 0.0

    def test_normalization(self, gexp_family, grid_medium):
        z = sample_function("zero", grid_medium)
        out = gexp_family.step(0.5, z)
        assert gexp_family.distance(out, z) <= 1e-12

    def test_drift_grid_needs_a_drift_of_cost_zero(self, grid_medium):
        # without one I(t)0 = -(smallest cost) t != 0, against alpha(0, t) = 0
        with pytest.raises(ValueError, match="drift of cost 0"):
            make_gexp_family(user_lambda_grid([0.5, 1.0]), quadratic_cost(0.5),
                             grid_medium)
        # an indicator cost vanishes on all of [lo, hi]
        fam = make_gexp_family(user_lambda_grid([0.5, 1.0]),
                               indicator_cost(0.0, 2.0), grid_medium)
        z = sample_function("zero", grid_medium)
        assert fam.distance(fam.step(0.5, z), z) == 0.0


class TestGExpectationStep:
    @pytest.mark.parametrize("pairs", [
        ((True, 0.0),), ((0.5, "1"),), ((0.5, 0.0), (math.nan, 0.0)),
        ((0.5, math.inf),), (((0.5, True), 0.0),), ((0.5, (1.0, "0")),),
        ((0.5, [[0.0]]),)])
    def test_pairs_are_finite_numbers(self, pairs):
        # scalar and per-axis entries alike, never a string, a bool or a
        # nested list
        with pytest.raises(ValueError, match="entries must be finite numbers"):
            SigmaLambdaSet(pairs)

    @pytest.mark.parametrize("values", [
        [True, "0.5", 0.0], [True, 0.0], ["0.5", 0.0], [0.0, math.nan],
        [0.0, -math.inf], [[0.0, False], [0.5, 0.5]]])
    def test_drift_grid_entries_are_finite_numbers(self, values):
        # never cast to a float first: [True, 0.0] is not the drifts [1.0, 0.0]
        with pytest.raises(ValueError, match="entries must be finite numbers"):
            user_lambda_grid(values, dim=np.ndim(values))

    @pytest.mark.parametrize("make", [
        lambda: quadratic_cost(True), lambda: quadratic_cost("0.5"),
        lambda: quadratic_cost(math.inf), lambda: indicator_cost(True, "2"),
        lambda: indicator_cost(-1.0, "2"), lambda: indicator_cost(-math.inf, 1.0)])
    def test_cost_parameters_are_finite_numbers(self, make):
        # a ValueError from the rule, not a TypeError from a comparison
        with pytest.raises(ValueError, match="finite number"):
            make()

    @pytest.mark.parametrize("pair", [(0.5, [0.0]), ([0.5], 0.0),
                                      (0.5, [0.0, 0.0, 0.0])])
    def test_per_axis_entries_match_the_grid(self, pair):
        # scalar or one entry per axis, the rule of Grid and HeatDriftParams:
        # a one-entry list on the plane is not broadcast to both axes
        plane = grid_create(2, 2.0, 21)
        with pytest.raises(ValueError, match="expected 2 per-axis entries"):
            make_g_expectation_family(SigmaLambdaSet((pair,)), plane)
        with pytest.raises(ValueError, match="expected 2 per-axis entries"):
            HeatDriftParams.create(pair[1], pair[0], 2)
        fam = make_g_expectation_family(SigmaLambdaSet(((0.5, [0.0, 1.0]),)), plane)
        assert fam.params["pairs"] == [(0.5, 0.5, 0.0, 1.0)]

    def test_singleton_pair_is_heat(self, grid_small):
        f = sample_function("gaussian_bump", grid_small)
        uset = SigmaLambdaSet(pairs=((1.0, 0.0),))
        out = make_g_expectation_family(uset, grid_small).step(0.25, f)
        ref = heat_drift_step(f, 0.25, HeatDriftParams.create(0.0, 1.0, 1))
        assert np.array_equal(out.values, ref.values)

    def test_zero_fixed(self, grid_small):
        z = sample_function("zero", grid_small)
        uset = SigmaLambdaSet(pairs=((0.5, 0.0), (1.0, 0.0)))
        step = make_g_expectation_family(uset, grid_small).step
        assert np.max(np.abs(step(0.5, z).values)) <= 1e-15

    def test_fd_reference_cross_check(self):
        """Independent explicit FD solve of du/dt = max_sigma sigma^2 u''/2."""
        t_final = 0.25
        h = 0.005
        X = 6.0
        n = int(round(2 * X / h)) + 1
        x = np.linspace(-X, X, n)
        u = -np.exp(-x * x)
        smax2, smin2 = 1.0, 0.25
        dt = 0.4 * h * h / smax2
        steps = int(math.ceil(t_final / dt))
        dt = t_final / steps
        for _ in range(steps):
            d2 = np.zeros_like(u)
            d2[1:-1] = (u[2:] - 2 * u[1:-1] + u[:-2]) / (h * h)
            u = u + dt * 0.5 * np.where(d2 >= 0, smax2 * d2, smin2 * d2)
            u[0] = u[-1] = 0.0

        g = grid_create(1, 8.0, 1601)
        f = negate(sample_function("gaussian_bump", g))
        uset = SigmaLambdaSet(pairs=((0.5, 0.0), (1.0, 0.0)))
        fam = make_g_expectation_family(uset, g)
        sol, rep = chernoff_limit(fam, t_final, f, tol=1e-3, n_min=4, n_max=12)
        assert rep.converged
        xs = g.axis(0)
        region = np.abs(xs) <= 3.0
        ref = np.interp(xs[region], x, u)
        assert np.max(np.abs(sol.values[region, 0] - ref)) <= 1e-2

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 10**6))
    def test_monotone_and_convex(self, seed):
        g = grid_create(1, 6.0, 121)
        rng = np.random.default_rng(seed)
        f1 = sample_function(rng.standard_normal(g.n_nodes), g)
        f2 = sample_function(f1.values[:, 0] + rng.uniform(0, 1, g.n_nodes), g)
        step = make_g_expectation_family(
            SigmaLambdaSet(pairs=((0.5, -1.0), (1.0, 1.0))), g).step
        t = 0.25
        assert np.min(step(t, f2).values - step(t, f1).values) >= -1e-12
        theta = rng.uniform(0, 1)
        f3 = sample_function(rng.standard_normal(g.n_nodes), g)
        mix = sample_function(theta * f1.values[:, 0] + (1 - theta) * f3.values[:, 0], g)
        lhs = step(t, mix).values
        rhs = theta * step(t, f1).values + (1 - theta) * step(t, f3).values
        assert np.min(rhs - lhs) >= -1e-10

    def test_weighted_norm_envelopes(self, grid_small):
        uset = SigmaLambdaSet(pairs=((1.0, 1.0), (0.5, -1.0)))
        fam = make_g_expectation_family(uset, grid_small,
                                        norm=NormSpec("weighted", p=2.0))
        # omega = max(1 + sup sigma^2 + sup lambda^2, sqrt(2) sup lambda)
        assert fam.params["omega"] == pytest.approx(3.0, rel=1e-12)
        assert fam.alpha(2.0, 0.5) == pytest.approx(2.0 * math.exp(1.5), rel=1e-12)


class TestRobustGbm:
    def test_singleton_pair_matches_gbm_step(self, gbm_grid):
        from semiflow.families_linear import gbm_step
        fam = make_robust_gbm_family(((0.1, 0.2),), gbm_grid, trust_horizon=0.5)
        f = sample_function("identity", gbm_grid)
        out = fam.step(0.5, f)
        ref = gbm_step(f, 0.5, GbmParams(mu=0.1, sigma=0.2))
        assert np.array_equal(out.values, ref.values)

    def test_escape_warning_inside_trusted_interior(self):
        g = grid_create(1, 4.0, 81)
        f = sample_function("identity", g)
        # a step far longer than the trust horizon leaves the interior
        fam = make_robust_gbm_family(((0.5, 0.5),), g, trust_horizon=2.0**-6)
        with pytest.warns(UserWarning, match="escaping"):
            fam.step(4.0, f)

    def test_escape_flag_equals_the_per_node_flag(self):
        # the step's flag reads the one-step escape mass at the outermost
        # trusted node only; the mass grows with |x|, so it flags exactly
        # when some trusted node does, as the per-node check did
        from semiflow.families_nonlinear import (
            GBM_ESCAPE_THRESHOLD,
            _gbm_escape_mass,
            gbm_trusted_radius,
        )

        def per_node_flag(x, radius, t, mu, sigma, x_max):
            ax = np.abs(x[np.abs(x) <= radius])
            ax = ax[ax > 0]
            if sigma == 0.0:
                return bool(np.any(ax * math.exp(mu * t) > x_max))
            z = (np.log(x_max / ax) - (mu - sigma * sigma / 2.0) * t) / (
                abs(sigma) * math.sqrt(t))
            return any(0.5 * math.erfc(v / math.sqrt(2.0)) > GBM_ESCAPE_THRESHOLD
                       for v in z.tolist())

        g = grid_create(1, 16.0, 401)
        x, x_max = g.axis(0), 16.0
        pairs = [(mu, sig) for mu in (-0.3, -0.1, 0.0, 0.1, 0.5)
                 for sig in (0.0, 0.1, 0.2, 0.5, 1.5)]
        times = [2.0**-k for k in range(9)] + [2.0, 4.0]
        flagged = 0
        for mu, sig in pairs:
            radii = [gbm_trusted_radius([(mu, sig)], x_max, h)
                     for h in (0.0, 2.0**-6, 0.25, 1.0, 4.0)] + [1.0, 8.0, 15.99]
            for radius in radii:
                edge = float(np.max(np.abs(x[np.abs(x) <= radius])))
                for t in times:
                    flag = _gbm_escape_mass(edge, t, mu, sig, x_max) > GBM_ESCAPE_THRESHOLD
                    assert flag == per_node_flag(x, radius, t, mu, sig, x_max), \
                        (mu, sig, radius, t)
                    flagged += flag
        assert 0 < flagged < len(pairs) * len(radii) * len(times)

    @pytest.mark.parametrize("horizon", [-0.5, math.nan, math.inf, True])
    def test_trust_horizon_rule(self, gbm_grid, horizon):
        with pytest.raises(ValueError, match="trust horizon must be a finite number >= 0"):
            make_robust_gbm_family(((0.1, 0.2),), gbm_grid, horizon)

    def test_member_rules_are_checked_when_built(self, gbm_grid):
        with pytest.raises(ValueError, match="finite numbers"):
            make_robust_gbm_family(((0.1, math.nan),), gbm_grid, 0.5)
        with pytest.raises(ValueError, match="nonempty"):
            make_robust_gbm_family((), gbm_grid, 0.5)

    def test_zero_fixed(self, robust_gbm_family):
        z = robust_gbm_family.zero_state
        out = robust_gbm_family.step(0.5, z)
        assert robust_gbm_family.distance(out, z) <= 1e-15

    def test_moment_identity_chernoff(self, robust_gbm_family, gbm_grid):
        # sup over {(0.1,0.2), (-0.1,0.2)}: x e^{0.1 t} for x >= 0,
        # x e^{-0.1 t} for x <= 0 (sign is preserved by the lognormal factor)
        f = sample_function("identity", gbm_grid)
        t = 0.5
        out, rep = chernoff_limit(robust_gbm_family, t, f, tol=1e-3,
                                  n_min=4, n_max=12)
        assert rep.converged
        x = gbm_grid.axis(0)
        expected = np.where(x >= 0, x * math.exp(0.1 * t), x * math.exp(-0.1 * t))
        kappa = 1.0 / (1.0 + np.abs(x) ** 3)
        gap = np.abs(out.values[:, 0] - expected) * kappa
        assert np.max(gap[robust_gbm_family.comparison_mask]) <= 1e-3

    def test_positive_homogeneity_on_identity(self, robust_gbm_family, gbm_grid):
        f = sample_function("identity", gbm_grid)
        a = 2.5
        fa = with_values(f, a * f.values)
        lhs = robust_gbm_family.step(0.25, fa).values
        rhs = a * robust_gbm_family.step(0.25, f).values
        mask = robust_gbm_family.comparison_mask
        assert np.max(np.abs(lhs - rhs)[mask]) <= 1e-10


class TestOdeFamily:
    def test_euler_formula(self):
        vf = vector_field_preset("neg_identity")
        out = ode_euler_step(VectorState([1.0]), 0.5, vf)
        assert out.coordinates[0] == 0.5

    def test_rotation_step(self):
        vf = vector_field_preset("rotation")
        out = ode_euler_step(VectorState([1.0, 0.0]), 0.25, vf)
        assert np.array_equal(out.coordinates, [1.0, 0.25])

    def test_preset_takes_only_its_parameters(self):
        assert vector_field_preset("neg_identity").dim == 1
        assert vector_field_preset("neg_identity", dim=3).dim == 3
        with pytest.raises(ValueError, match="preset 'rotation' has no parameter 'dim'"):
            vector_field_preset("rotation", dim=3)
        with pytest.raises(ValueError, match="preset 'neg_identity' has no parameter 'dimm'"):
            vector_field_preset("neg_identity", dimm=2)
        with pytest.raises(ValueError, match="unknown preset 'rotaton'"):
            vector_field_preset("rotaton")
        for dim in (2.0, 2.5, True, 0, "2"):
            with pytest.raises(ValueError, match="dim must be an integer >= 1"):
                vector_field_preset("neg_identity", dim=dim)

    def test_rotation_chernoff_limit(self, ode_rotation_family):
        # the Cauchy gap sits just above 1e-4 at n_max = 12; the value at the
        # final level is what the closed-form oracle bounds
        out, _ = chernoff_limit(ode_rotation_family, 1.0,
                                VectorState([1.0, 0.0]), tol=1e-4,
                                n_min=4, n_max=12)
        assert abs(out.coordinates[0] - math.cos(1.0)) <= 1e-3
        assert abs(out.coordinates[1] - math.sin(1.0)) <= 1e-3

    def test_generator_is_field(self, ode_decay_family):
        gen = ode_decay_family.analytic_generator(VectorState([2.0]))
        assert gen.coordinates[0] == -2.0

    def test_envelopes(self, ode_decay_family):
        a = ode_decay_family.alpha
        assert a(0.5, 0.0) == 1.0  # max(R, 1) at t = 0
        assert a(2.0, 0.5) == pytest.approx(2.0 * math.exp(1.0), rel=1e-12)
        b = ode_decay_family.beta
        assert b(1.0, 0.25) * b(1.0, 0.5) == pytest.approx(b(1.0, 0.75), rel=1e-12)


class TestPerturbation:
    def test_zero_fixed(self, grid_small):
        ident = make_identity_base_family(grid_small, NormSpec("sup"))
        z = sample_function("zero", grid_small)
        out = perturbation_step(z, 0.5, ident, perturbation_preset("sin"))
        assert np.max(np.abs(out.values)) == 0.0

    def test_identity_base_exponential_decay(self, grid_small):
        ident = make_identity_base_family(grid_small, NormSpec("sup"))
        fam = make_perturbation_family(ident, perturbation_preset("neg_identity"),
                                       grid_small)
        f = sample_function("gaussian_bump", grid_small)
        out, rep = chernoff_limit(fam, 1.0, f, tol=1e-4, n_min=4, n_max=12)
        assert rep.converged
        assert np.max(np.abs(out.values - math.exp(-1.0) * f.values)) <= 5e-4

    def test_heat_base_commuting_scalar(self):
        # psi(u) = c u commutes with the kernel: limit is e^{ct} heat(t) f
        g = grid_create(1, 6.0, 1201)
        heat = make_heat_family(HeatDriftParams.create(0.0, 1.0, 1),
                                NormSpec("sup"), g)
        c = 0.25
        fam = make_perturbation_family(heat, perturbation_preset("linear", c=c), g)
        f = sample_function("gaussian_bump", g)
        t = 0.5
        out, rep = chernoff_limit(fam, t, f, tol=1e-3, n_min=4, n_max=12)
        x = g.axis(0)
        ref = math.exp(c * t) * (1 + 2 * t) ** -0.5 * np.exp(-x**2 / (1 + 2 * t))
        m = np.abs(x) <= 3.0
        assert np.max(np.abs(out.values[m, 0] - ref[m])) <= 1e-3

    def test_preset_takes_only_its_parameters(self):
        with pytest.raises(ValueError, match="preset 'sin' has no parameter 'c'"):
            perturbation_preset("sin", c=5.0)
        with pytest.raises(ValueError, match="unknown preset 'sinn'"):
            perturbation_preset("sinn")
        assert perturbation_preset("linear").growth_k == 1.0
        assert perturbation_preset("linear", c=-2.0).growth_k == 2.0

    def test_cost_preset_fills_its_defaults(self):
        assert cost_preset("quadratic").name == "quadratic_0.5"
        assert cost_preset("indicator", hi=2.0).name == "indicator_-1.0_2.0"
        with pytest.raises(ValueError, match="preset 'quadratic' has no parameter 'b'"):
            cost_preset("quadratic", b=1.0)

    def test_growth_probe_rejects_cubic(self, grid_small):
        ident = make_identity_base_family(grid_small, NormSpec("sup"))
        with pytest.raises(ValueError, match="growth"):
            make_perturbation_family(ident, perturbation_preset("cubic"),
                                     grid_small)

    def test_envelopes(self, perturbation_family):
        # base heat: omega = 0, K = 1 for sin
        a = perturbation_family.alpha
        assert a(0.5, 0.25) == pytest.approx(math.exp(0.5), rel=1e-12)
        assert a(2.0, 0.25) == pytest.approx(2.0 * math.exp(0.5), rel=1e-12)
        b = perturbation_family.beta
        assert b(1.0, 0.5) == pytest.approx(math.exp(0.5), rel=1e-12)


class TestTelescoping:
    def test_k_one_exact(self, grid_small):
        heat = make_heat_family(HeatDriftParams.create(0.0, 1.0, 1),
                                NormSpec("sup"), grid_small)
        f = random_bumps(grid_small, seed=1)
        g = random_bumps(grid_small, seed=2)
        assert telescoping_residual(heat, perturbation_preset("sin"),
                                    f, g, k=1, n=4) <= 1e-14

    def test_equal_states_zero(self, grid_small):
        heat = make_heat_family(HeatDriftParams.create(0.0, 1.0, 1),
                                NormSpec("sup"), grid_small)
        f = random_bumps(grid_small, seed=3)
        assert telescoping_residual(heat, perturbation_preset("sin"),
                                    f, f, k=8, n=5) == 0.0

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 10**6))
    def test_random_states_noise_level(self, seed):
        g = grid_create(1, 6.0, 121)
        heat = make_heat_family(HeatDriftParams.create(0.0, 1.0, 1),
                                NormSpec("sup"), g)
        f = random_bumps(g, seed=seed)
        gg = random_bumps(g, seed=seed + 10**7)
        assert telescoping_residual(heat, perturbation_preset("sin"),
                                    f, gg, k=8, n=5) <= 1e-10

    def test_full_probe_matrix(self, grid_small):
        heat = make_heat_family(HeatDriftParams.create(0.0, 1.0, 1),
                                NormSpec("sup"), grid_small)
        f = random_bumps(grid_small, seed=4)
        g = random_bumps(grid_small, seed=5)
        pert = perturbation_preset("sin")
        for n in (3, 4, 5):
            for k in sorted({1, 2 ** (n - 1), 2**n}):
                assert telescoping_residual(heat, pert, f, g, k, n) <= 1e-10
