import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ive

from conftest import random_bumps
from semiflow.chernoff import apply_partition, chernoff_limit, dyadic_partition
from semiflow.diagnostics import (
    alpha_beta_audit,
    default_collar_mask,
    gen_condition_probe,
    generator_estimate,
    invariance_probe,
    lipschitz_certificate,
    partition_monotonicity_check,
    random_ball_state,
    symmetric_lipschitz_certificate,
)
from semiflow.families_linear import (
    HeatDriftParams,
    make_heat_family,
    make_identity_base_family,
)
from semiflow.families_nonlinear import (
    SigmaLambdaSet,
    make_g_expectation_family,
    make_perturbation_family,
    perturbation_preset,
    quadratic_cost,
    user_lambda_grid,
    make_gexp_family,
)
from semiflow.state_space import (
    GridFunction,
    NormSpec,
    VectorState,
    ball_mask,
    grid_create,
    interior_mask,
    negate,
    sample_function,
)


def heat_of_hat(hat, h, t):
    """The grid chain's heat step of the unit hat, sampled on the nodes and
    zero outside the box: the convolution with the discrete Gaussian
    e^{-lam} I_k(lam), lam = t / h^2, the independent oracle for the
    kink-smoothing rate."""
    k = np.arange(-800, 801)
    return np.convolve(hat, ive(k, t / (h * h)))[800:800 + hat.size]


class TestLipschitzCertificate:
    def test_ode_exact_ratio(self, ode_decay_family):
        # |I(t)x - x| = t |f(x)| exactly, so every ratio equals |f(x)|
        cert = lipschitz_certificate(ode_decay_family, VectorState([2.0]),
                                     0.5, [4, 5, 6, 7])
        assert cert.verdict == "bounded"
        assert cert.gamma_hat == pytest.approx(2.0, abs=1e-12)
        assert all(r == pytest.approx(2.0, abs=1e-12) for r in cert.ratios)

    def test_heat_hat_diverges_at_kink_rate(self):
        g = grid_create(1, 4.0, 401)  # h = 0.02 divides the kink spacing
        fam = make_heat_family(HeatDriftParams.create(0.0, 1.0, 1),
                               NormSpec("sup"), g)
        hat = sample_function("hat", g)
        levels = [4, 5, 6, 7, 8]
        cert = lipschitz_certificate(fam, hat, 0.5, levels)
        assert cert.verdict == "diverging"
        assert all(gf >= 1.2 for gf in cert.growth_factors[-3:])
        # oracle: the discrete Gaussian convolution gives the same ladder ratios
        for n, measured in zip(levels, cert.ratios):
            expected = max(
                float(np.max(np.abs(heat_of_hat(hat.values[:, 0], g.h[0], k * 2.0**-n)
                                    - hat.values[:, 0]))) / (k * 2.0**-n)
                for k in range(1, int(0.5 * 2**n) + 1))
            assert measured == pytest.approx(expected, rel=1e-9)

    def test_heat_bump_bounded(self, heat_family, bump_medium):
        cert = lipschitz_certificate(heat_family, bump_medium, 0.5,
                                     [4, 5, 6, 7, 8])
        assert cert.verdict == "bounded"
        last = cert.ratios[-3:]
        assert max(last) / min(last) <= 1.1

    def test_zero_state_bounded_with_zero_gamma(self, heat_family, grid_medium):
        z = sample_function("zero", grid_medium)
        cert = lipschitz_certificate(heat_family, z, 0.5, [4, 5, 6])
        assert cert.verdict == "bounded"
        assert cert.gamma_hat == 0.0

    def test_json_roundtrip_fields(self, heat_family, bump_medium):
        cert = lipschitz_certificate(heat_family, bump_medium, 0.25, [4, 5, 6])
        d = cert.to_json_dict()
        assert d["verdict"] in ("bounded", "diverging", "inconclusive")
        assert len(d["ratios"]) == 3

    @pytest.mark.parametrize("levels", [[8, 7, 6, 5, 4], [4, 8, 5, 7, 6],
                                        [4, 5, 5, 6, 7, 8, 4]])
    def test_levels_are_read_in_increasing_order(self, levels):
        # the verdict reads the finest three levels, whatever order names them
        g = grid_create(1, 4.0, 401)
        fam = make_heat_family(HeatDriftParams.create(0.0, 1.0, 1),
                               NormSpec("sup"), g)
        hat = sample_function("hat", g)
        cert = lipschitz_certificate(fam, hat, 0.125, levels)
        assert cert == lipschitz_certificate(fam, hat, 0.125, [4, 5, 6, 7, 8])
        assert cert.levels == (4, 5, 6, 7, 8)
        assert cert.verdict == "diverging"

    @pytest.mark.parametrize("levels,rule", [
        ([4, 5.5, 6], "level must be a nonnegative integer"),
        ([], "need at least one level"),
    ])
    def test_ladder_levels_follow_the_level_rule(self, ode_decay_family,
                                                 levels, rule):
        with pytest.raises(ValueError, match=rule):
            lipschitz_certificate(ode_decay_family, VectorState([1.0]), 0.5,
                                  levels)


class TestSymmetricCertificate:
    def test_gexp_bump_jointly_bounded(self, gexp_family, bump_medium):
        plus, minus, joint = symmetric_lipschitz_certificate(
            gexp_family, bump_medium, 0.5, [4, 5, 6, 7])
        assert plus.verdict == "bounded"
        assert minus.verdict == "bounded"
        assert joint == "bounded"

    def test_gexp_hat_jointly_diverging(self):
        g = grid_create(1, 4.0, 401)
        fam = make_gexp_family(user_lambda_grid(np.linspace(-2, 2, 21)),
                               quadratic_cost(0.5), g)
        hat = sample_function("hat", g)
        _, _, joint = symmetric_lipschitz_certificate(fam, hat, 0.5,
                                                      [4, 5, 6, 7, 8])
        assert joint == "diverging"

    def test_zero_state_both_zero(self, gexp_family, grid_medium):
        z = sample_function("zero", grid_medium)
        plus, minus, joint = symmetric_lipschitz_certificate(
            gexp_family, z, 0.5, [4, 5, 6])
        assert plus.gamma_hat == 0.0 and minus.gamma_hat == 0.0
        assert joint == "bounded"

    def test_requires_conjugate_flag(self, ode_decay_family, bump_medium):
        with pytest.raises(ValueError, match="conjugate"):
            symmetric_lipschitz_certificate(ode_decay_family, bump_medium,
                                            0.5, [4, 5, 6])


class TestInvarianceProbe:
    def test_t_zero_is_certificate_of_f(self, gexp_family, bump_medium):
        plus, _, joint = invariance_probe(gexp_family, bump_medium, 0.0, 0.5,
                                          [4, 5, 6, 7])
        direct = lipschitz_certificate(gexp_family, bump_medium, 0.5,
                                       [4, 5, 6, 7])
        assert plus.ratios == direct.ratios
        assert joint == "bounded"

    def test_evolved_bump_stays_bounded(self, gexp_family, bump_medium):
        _, _, joint = invariance_probe(gexp_family, bump_medium, 0.25, 0.5,
                                       [4, 5, 6, 7], tol=1e-3)
        assert joint == "bounded"


class TestGeneratorEstimate:
    def test_heat_bump_trend_and_floor(self, heat_family_fine, bump_fine):
        # the h = 0.01 grid keeps the reconstruction bias below the
        # quotient errors down to h_time = 2^-8
        mask = ball_mask(bump_fine.grid, 3.0)
        table = generator_estimate(heat_family_fine, bump_fine,
                                   [2.0**-k for k in range(4, 9)],
                                   tol=1e-3, mask=mask)
        assert table.monotone_decreasing
        assert table.errors[-1] <= 5e-2
        assert not any(table.flagged)

    def test_gexp_bump(self, gexp_family_fine, bump_fine):
        mask = ball_mask(bump_fine.grid, 3.0)
        table = generator_estimate(gexp_family_fine, bump_fine,
                                   [2.0**-k for k in range(4, 9)],
                                   tol=1e-3, mask=mask)
        assert table.monotone_decreasing
        assert table.errors[-1] <= 5e-2

    # the collar's grid and state, and the default h_levels 2^-4 ... 2^-8
    COLLAR_GRID = grid_create(1, 6.0, 601)
    H_LEVELS = [2.0**-k for k in range(4, 9)]

    @pytest.mark.parametrize("make", [
        lambda g: make_heat_family(HeatDriftParams.create(1.0, 0.0), NormSpec("sup"), g),
        lambda g: make_heat_family(HeatDriftParams.create(2.0, 0.1), NormSpec("sup"), g),
        lambda g: make_gexp_family(user_lambda_grid(np.arange(-20, 21) / 10.0),
                                   quadratic_cost(0.5), g),
        lambda g: make_g_expectation_family(SigmaLambdaSet(tuple(
            (s, lam) for s in (0.5, 1.0) for lam in (-1.0, 0.0, 1.0))), g),
    ], ids=["heat_b1_s0", "heat_b2_s0.1", "gexp_drifts_-2_2", "g_expectation"])
    def test_collar_keeps_what_the_edge_does_not_reach(self, make):
        # a step of h_max reads the same at every collar node whether the
        # state extends by zeros or by its edge values
        fam = make(self.COLLAR_GRID)
        f = sample_function("cauchy_bump", self.COLLAR_GRID)
        clamped = GridFunction(f.grid, 1, f.values, extension_mode="clamp")
        mask = default_collar_mask(fam, f, self.H_LEVELS[0])
        gap = np.abs(fam.step(self.H_LEVELS[0], f).values
                     - fam.step(self.H_LEVELS[0], clamped).values)[:, 0]
        assert np.count_nonzero(mask) > f.grid.n_nodes // 2
        assert np.max(gap[mask]) <= 1e-12
        assert np.max(gap) > 1e-12  # the edge is reached, outside the collar

    def test_reach_by_kind_of_family(self, robust_gbm_family):
        # no move, no reach; a perturbation moves as its base; per-node
        # rates declare none and compare through their trusted mask
        g = self.COLLAR_GRID
        heat = make_heat_family(HeatDriftParams.create(1.0, 0.0), NormSpec("sup"), g)
        assert make_identity_base_family(g, NormSpec("sup")).reach(1.0) == 0.0
        pert = make_perturbation_family(heat, perturbation_preset("sin"), g)
        assert pert.reach(0.25) == heat.reach(0.25) > heat.reach(2.0**-4) > 0.0
        assert robust_gbm_family.reach is None
        z = robust_gbm_family.zero_state
        assert np.array_equal(default_collar_mask(robust_gbm_family, z, 0.25),
                              robust_gbm_family.comparison_mask
                              & interior_mask(z.grid, 2 * z.grid.h[0]))

    def test_empty_collar_is_an_error(self):
        # reach(2^-4) = 2.8 > x_max = 2: the collar keeps no node, and a
        # table of errors over no node would read 0.0 and pass
        g = grid_create(1, 2.0, 41)
        fam = make_heat_family(HeatDriftParams.create(0.5, 1.0), NormSpec("sup"), g)
        f = sample_function("gaussian_bump", g)
        assert not default_collar_mask(fam, f, self.H_LEVELS[0]).any()
        with pytest.raises(ValueError, match="keeps no node"):
            generator_estimate(fam, f, self.H_LEVELS)

    def test_pure_drift_quotients_are_first_order(self):
        # the upwind shift's quotient errs by about h b^2 |f''| / 2: each
        # error is half the one before once the collar leaves the box edge out
        g = self.COLLAR_GRID
        fam = make_heat_family(HeatDriftParams.create(1.0, 0.0), NormSpec("sup"), g)
        table = generator_estimate(fam, sample_function("cauchy_bump", g),
                                   self.H_LEVELS)
        assert all(b <= 0.55 * a for a, b in zip(table.errors, table.errors[1:])), \
            table.errors
        assert table.monotone_decreasing and not any(table.flagged)

    def test_round_off_errors_read_as_decreasing(self):
        # the drift generator of f(x) = x is reproduced to round-off, which
        # grows as h halves; the verdict reads it as 0, the table as measured
        g = self.COLLAR_GRID
        fam = make_heat_family(HeatDriftParams.create(0.5, 1.0),
                               NormSpec("weighted", p=2), g)
        table = generator_estimate(fam, sample_function("identity", g),
                                   self.H_LEVELS)
        assert 0.0 < max(table.errors) <= 1e-12
        assert table.monotone_decreasing and not any(table.flagged)

    @pytest.mark.parametrize("hs", [[0.0], [0.25, 0.0], [-0.25]])
    def test_h_levels_must_be_positive(self, ode_decay_family, hs):
        # h = 0 would divide the quotient by zero and fail as non-finite
        with pytest.raises(ValueError, match="h_levels must be positive"):
            generator_estimate(ode_decay_family, VectorState([1.0]), hs)

    def test_ode_quotient(self, ode_decay_family):
        table = generator_estimate(ode_decay_family, VectorState([1.0]),
                                   [2.0**-k for k in range(6, 11)], tol=1e-6)
        assert table.errors[-1] <= 1e-3
        assert table.monotone_decreasing

    def test_requires_generator(self):
        from semiflow.chernoff import GeneratingFamilyDescriptor
        fam = GeneratingFamilyDescriptor(
            name="plain", step=lambda t, x: x,
            alpha=lambda R, t: R, beta=lambda R, t: 1.0,
            zero_state=VectorState([0.0]))
        with pytest.raises(ValueError, match="generator"):
            generator_estimate(fam, VectorState([1.0]), [0.25, 0.125])

    def test_h_levels_must_decrease(self, ode_decay_family):
        with pytest.raises(ValueError, match="decreasing"):
            generator_estimate(ode_decay_family, VectorState([1.0]),
                               [0.125, 0.25])

    # 0.1 is dyadic only at level 55, where its first limit would take
    # 0.1 * 2^55 steps; both must be rejected before any step
    @pytest.mark.parametrize("hs,n_max", [([0.25, 0.1], 14),
                                          ([2.0**-4, 2.0**-10], 8)])
    def test_h_levels_must_be_dyadic_within_n_max(self, ode_decay_family, hs, n_max):
        with pytest.raises(ValueError, match="not dyadic"):
            generator_estimate(ode_decay_family, VectorState([1.0]), hs,
                               n_max=n_max)


class TestVectorStatesInTheOneMetric:
    """On vector states the probes give exactly what the Euclidean formulas
    once written out beside the grid metric gave; those formulas are kept
    here as references, on the 2-D rotation family."""

    X = VectorState([1.0, 0.5])
    G = VectorState([0.3, -0.7])

    @staticmethod
    def euclid(x, y):
        return float(np.linalg.norm(x.coordinates - y.coordinates))

    def test_generator_errors(self, ode_rotation_family):
        fam = ode_rotation_family
        ks = range(4, 9)
        table = generator_estimate(fam, self.X, [2.0**-k for k in ks], tol=1e-6)
        expected = []
        for k in ks:
            h = 2.0**-k
            u, _ = chernoff_limit(fam, h, self.X, tol=1e-6, n_min=k,
                                  n_max=max(14, k + 4))
            q = ((u.coordinates - self.X.coordinates) / h
                 - fam.analytic_generator(self.X).coordinates)
            expected.append(float(np.linalg.norm(q)))
        assert table.errors == tuple(expected)

    def test_gen_condition_probe(self, ode_rotation_family):
        fam = ode_rotation_family
        expected = 0.0
        for n in (2, 3, 4):
            k_max = int(round(0.25 * 2.0**n))
            for k in sorted({1, max(1, k_max // 2), k_max}):
                part = dyadic_partition(k * 2.0**-n, n)
                base = apply_partition(fam, part, self.X)
                for lam in (1.0, 0.5, 0.25):
                    shifted = VectorState(self.X.coordinates
                                          + lam * self.G.coordinates)
                    pert = apply_partition(fam, part, shifted)
                    q = ((pert.coordinates - base.coordinates) / lam
                         - self.G.coordinates)
                    expected = max(expected, float(np.linalg.norm(q)))
        assert gen_condition_probe(fam, self.X, self.G, 0.25) == expected

    def test_audit_margins(self, ode_rotation_family):
        fam = ode_rotation_family
        R, ts, n = 1.5, [0.0, 0.25, 0.5], 6
        report = alpha_beta_audit(fam, n_samples=n, R=R, t_list=ts[1:], seed=5)
        rng = np.random.default_rng(5)
        states = [random_ball_state(fam, rng, R) for _ in range(n)]
        expected = []
        for i, x in enumerate(states):
            y = states[(i + 1) % n]
            expected += [fam.alpha(R, t) - self.euclid(fam.step(t, x), fam.zero_state)
                         for t in ts]
            expected += [fam.beta(R, t) * self.euclid(x, y)
                         - self.euclid(fam.step(t, x), fam.step(t, y)) for t in ts]
        assert [c["margin"] for c in report.checks
                if c["check"] in ("bounded", "lipschitz")] == expected


class TestGenConditionProbe:
    def test_zero_direction_is_zero(self, heat_family, bump_medium, grid_medium):
        z = sample_function("zero", grid_medium)
        assert gen_condition_probe(heat_family, bump_medium, z, 0.25) == 0.0

    def test_linear_family_identity(self, heat_family, bump_medium, grid_medium):
        # for linear I the quotient is exactly I(pi) g - g (Cor 4.2 identity)
        gdir = random_bumps(grid_medium, seed=21)
        value = gen_condition_probe(heat_family, bump_medium, gdir, 0.25)
        direct = 0.0
        n0 = 2
        for n in (n0, n0 + 1, n0 + 2):
            k_max = int(round(0.25 * 2**n))
            for k in sorted({1, max(1, k_max // 2), k_max}):
                u = apply_partition(heat_family,
                                    dyadic_partition(k * 2.0**-n, n), gdir)
                direct = max(direct, heat_family.distance(u, gdir))
        assert abs(value - direct) <= 1e-12

    def test_gexp_probe_decays(self, gexp_family, bump_medium):
        v_coarse = gen_condition_probe(gexp_family, bump_medium, bump_medium,
                                       2.0**-2)
        v_fine = gen_condition_probe(gexp_family, bump_medium, bump_medium,
                                     2.0**-6)
        assert v_fine < v_coarse

    def test_lambda_range_validated(self, heat_family, bump_medium):
        with pytest.raises(ValueError):
            gen_condition_probe(heat_family, bump_medium, bump_medium, 0.25,
                                lambda_list=[2.0])


class TestAlphaBetaAudit:
    @pytest.mark.parametrize("fixture_name", [
        "heat_family", "gexp_family", "g_expectation_family",
        "robust_gbm_family", "ode_decay_family", "perturbation_family",
    ])
    def test_zero_violations(self, fixture_name, request):
        fam = request.getfixturevalue(fixture_name)
        report = alpha_beta_audit(fam, n_samples=12, R=1.0,
                                  t_list=[0.25, 0.5], seed=42)
        assert report.violation_count == 0

    @pytest.mark.parametrize("seed", range(10))
    def test_law_rounding_is_no_violation(self, grid_small, seed):
        # omega = 17: alpha(R, s + t) reaches e^34 R, where the direct and the
        # composed value differ by rounding far beyond an absolute 1e-8
        fam = make_g_expectation_family(SigmaLambdaSet(pairs=((4.0, 0.0),)),
                                        grid_small, norm=NormSpec("weighted", p=2.0))
        assert fam.params["omega"] == pytest.approx(17.0, rel=1e-12)
        report = alpha_beta_audit(fam, n_samples=4, R=1.0, t_list=[0.25], seed=seed)
        assert report.violation_count == 0

    @pytest.fixture(scope="class")
    def masked_gbm_family(self, gbm_grid):
        from semiflow.families_nonlinear import make_robust_gbm_family
        pairs = ((0.1, 0.2), (-0.1, 0.2), (0.05, 0.3), (0.0, 0.1))
        fam = make_robust_gbm_family(pairs, gbm_grid, trust_horizon=0.5)
        assert not fam.comparison_mask.all()
        return fam

    @pytest.mark.parametrize("seed", [1, 9])
    def test_masked_family_inputs_in_full_norm(self, masked_gbm_family, seed):
        # the robust GBM family compares images on its trusted interior only;
        # alpha and beta refer to the ball and to d(x, y) in the full weighted
        # norm, and masked inputs understated both on these seeds
        report = alpha_beta_audit(masked_gbm_family, n_samples=6, R=1.0,
                                  t_list=[0.25, 0.5], seed=seed)
        assert report.violation_count == 0

    def test_masked_ball_sampling_uses_full_norm(self, masked_gbm_family):
        from semiflow.state_space import distance
        rng = np.random.default_rng(0)
        fam = masked_gbm_family
        for _ in range(10):
            x = random_ball_state(fam, rng, 0.7)
            assert distance(x, fam.zero_state, fam.norm) <= 0.7 + 1e-12

    def test_t_zero_rows_present(self, heat_family):
        report = alpha_beta_audit(heat_family, n_samples=4, R=1.0,
                                  t_list=[0.5], seed=1)
        assert any(c["check"] == "bounded" and c["t"] == 0.0
                   for c in report.checks)

    def test_violation_recorded_with_seed(self):
        # a family whose declared envelope is deliberately too tight
        from semiflow.chernoff import GeneratingFamilyDescriptor
        fam = GeneratingFamilyDescriptor(
            name="lying",
            step=lambda t, x: VectorState(x.coordinates * math.exp(2 * t)),
            alpha=lambda R, t: R,  # actual growth e^{2t}
            beta=lambda R, t: 1.0,
            zero_state=VectorState([0.0]))
        report = alpha_beta_audit(fam, n_samples=6, R=1.0, t_list=[0.5],
                                  seed=9)
        assert report.violation_count > 0
        assert all(v["seed"] == 9 for v in report.violations)

    def test_deterministic_given_seed(self, heat_family):
        r1 = alpha_beta_audit(heat_family, n_samples=6, R=1.0,
                              t_list=[0.25], seed=3)
        r2 = alpha_beta_audit(heat_family, n_samples=6, R=1.0,
                              t_list=[0.25], seed=3)
        assert r1.to_json_dict() == r2.to_json_dict()

    def test_ball_sampling_respects_radius(self, heat_family):
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = random_ball_state(heat_family, rng, 0.7)
            assert heat_family.norm_of(x) <= 0.7 + 1e-12


class TestPartitionMonotonicity:
    def test_gexp_three_drifts(self, grid_medium):
        from semiflow.families_nonlinear import indicator_cost
        fam = make_gexp_family(user_lambda_grid([-1.0, 0.0, 1.0]),
                               indicator_cost(-1.0, 1.0), grid_medium)
        bump = sample_function("gaussian_bump", grid_medium)
        worst = partition_monotonicity_check(fam, bump, 0.5, [2, 3, 4, 5])
        assert worst >= -1e-10

    def test_g_expectation_default(self, g_expectation_family, grid_medium):
        bump = sample_function("gaussian_bump", grid_medium)
        worst = partition_monotonicity_check(g_expectation_family, bump,
                                             0.25, [2, 3, 4, 5])
        assert worst >= -1e-10

    def test_robust_gbm_identity(self, robust_gbm_family, gbm_grid):
        f = sample_function("identity", gbm_grid)
        worst = partition_monotonicity_check(robust_gbm_family, f, 0.5,
                                             [2, 3, 4, 5])
        assert worst >= -1e-10

    def test_zero_state_increments_vanish(self, gexp_family, grid_medium):
        z = sample_function("zero", grid_medium)
        worst = partition_monotonicity_check(gexp_family, z, 0.5, [2, 3, 4])
        assert abs(worst) <= 1e-12

    def test_singleton_family_increment_scale(self, grid_medium):
        """A singleton drift family is linear, and its step is the exact
        semigroup of its grid chain, so the increments between levels vanish
        up to rounding (the bump's mass stays inside the box)."""
        fam = make_gexp_family(user_lambda_grid([0.0]), quadratic_cost(0.5),
                               grid_medium)
        bump = sample_function("gaussian_bump", grid_medium)
        worst = partition_monotonicity_check(fam, bump, 0.5, [4, 5, 6])
        assert abs(worst) <= 1e-12

    @settings(max_examples=12, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from(["gexp", "g_expectation"]),
           st.sampled_from([0.125, 0.25, 0.5]))
    def test_monotone_at_every_level(self, seed, kind, t):
        """Each candidate steps by an exact positive semigroup and its cost
        is >= 0, so I(2s) <= I(s) I(s): the iterates rise with the level up
        to rounding, through level 8.  The data is a hat mixture supported
        in [-2, 2], far enough inside the box that no mass leaks out."""
        g = grid_create(1, 8.0, 321)
        x = g.axis(0)
        rng = np.random.default_rng(seed)
        vals = np.zeros_like(x)
        for _ in range(3):
            w = rng.uniform(0.2, 0.5)
            c = rng.uniform(-2.0 + w, 2.0 - w)
            vals += rng.uniform(-1.0, 1.0) * np.maximum(0.0, 1.0 - np.abs(x - c) / w)
        if kind == "gexp":
            fam = make_gexp_family(user_lambda_grid(np.linspace(-2.0, 2.0, 21)),
                                   quadratic_cost(0.5), g)
        else:
            pairs = tuple((s, lam) for s in (0.5, 1.0) for lam in (-1.0, 0.0, 1.0))
            fam = make_g_expectation_family(SigmaLambdaSet(pairs=pairs), g)
        f = sample_function(vals, g)
        assert partition_monotonicity_check(fam, f, t, [3, 4, 5, 6, 7, 8]) >= -1e-12

    def test_needs_two_levels(self, gexp_family, bump_medium):
        with pytest.raises(ValueError):
            partition_monotonicity_check(gexp_family, bump_medium, 0.5, [3])

    def test_levels_are_not_truncated(self, gexp_family, bump_medium):
        with pytest.raises(ValueError, match="level must be a nonnegative integer"):
            partition_monotonicity_check(gexp_family, bump_medium, 0.5, [2, 3.5])
