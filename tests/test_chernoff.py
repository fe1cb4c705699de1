import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_bumps
from semiflow.chernoff import (
    NonDyadicTimeError,
    NonFiniteStateError,
    apply_partition,
    chernoff_limit,
    chernoff_limits,
    discrete_semigroup_identity_residual,
    dyadic_partition,
    evolve_path,
    semigroup_defect,
    smallest_dyadic_level,
)
from semiflow.diagnostics import lipschitz_certificate, random_ball_state
from semiflow.families_linear import HeatDriftParams, make_heat_family
from semiflow.families_nonlinear import make_ode_family, vector_field_preset
from semiflow.state_space import (
    NonFiniteValuesError,
    NormSpec,
    VectorState,
    grid_create,
    sample_function,
)


class TestDyadicPartition:
    def test_unit_time_level_three(self):
        p = dyadic_partition(1.0, 3)
        assert p.step_count == 8
        assert p.step == 0.125

    def test_zero_time(self):
        assert dyadic_partition(0.0, 5).step_count == 0

    def test_non_dyadic_rejected_with_hint(self):
        with pytest.raises(NonDyadicTimeError):
            dyadic_partition(0.3, 4)

    def test_rejection_reports_smallest_level(self):
        with pytest.raises(NonDyadicTimeError, match="smallest admissible level is 5"):
            dyadic_partition(0.03125, 4)

    @pytest.mark.parametrize("n", [2.0, 5.5, -1, True])
    def test_level_must_be_a_nonnegative_integer(self, n):
        with pytest.raises(ValueError, match="level must be a nonnegative integer"):
            dyadic_partition(0.5, n)

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
    def test_non_finite_time_rejected(self, t):
        with pytest.raises(ValueError, match="not finite"):
            dyadic_partition(t, 4)

    def test_step_count_exact_where_two_to_the_level_overflows(self):
        assert dyadic_partition(0.5, 2000).step_count == 2**1999

    def test_smallest_level_search(self):
        assert smallest_dyadic_level(0.75) == 2
        assert smallest_dyadic_level(1.0) == 0
        # the stored double 0.3 is itself a dyadic rational k * 2^-54
        assert smallest_dyadic_level(0.3) == 54

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 12), st.integers(0, 4096))
    def test_representable_times_accepted(self, n, k):
        t = k * 2.0**-n
        p = dyadic_partition(t, n)
        assert p.step_count == k
        assert p.step_count * p.step == t


class TestApplyPartition:
    def test_zero_steps_identity(self, ode_decay_family):
        x = VectorState([0.7])
        assert apply_partition(ode_decay_family, dyadic_partition(0.0, 4), x) is x

    def test_two_step_arithmetic(self, ode_decay_family):
        # (1 - 1/2)^2 = 0.25
        out = apply_partition(ode_decay_family, dyadic_partition(1.0, 1),
                              VectorState([1.0]))
        assert out.coordinates[0] == 0.25

    def test_level_ten_matches_direct_power(self, ode_decay_family):
        out = apply_partition(ode_decay_family, dyadic_partition(1.0, 10),
                              VectorState([1.0]))
        direct = 1.0
        for _ in range(1024):
            direct *= 1.0 - 2.0**-10
        assert out.coordinates[0] == pytest.approx(direct, abs=0.0)
        assert abs(out.coordinates[0] - math.exp(-1)) <= 2e-4

    def test_nonfinite_abort_carries_step_index(self):
        from semiflow.chernoff import GeneratingFamilyDescriptor

        def bad_step(t, x):
            with np.errstate(over="ignore"):
                return VectorState([x.coordinates[0] * (1e200 if t > 0 else 1.0)])

        fam = GeneratingFamilyDescriptor(
            name="blowup", step=bad_step,
            alpha=lambda R, t: R, beta=lambda R, t: 1.0,
            zero_state=VectorState([0.0]))
        with pytest.raises(NonFiniteStateError) as exc:
            apply_partition(fam, dyadic_partition(1.0, 2), VectorState([1.0]))
        assert exc.value.step_index == 1

    def test_nonfinite_grid_abort_carries_step_index(self, grid_small):
        from semiflow.chernoff import GeneratingFamilyDescriptor
        from semiflow.state_space import NonFiniteValuesError, with_values

        fam = GeneratingFamilyDescriptor(
            name="grid_blowup",
            step=lambda t, f: with_values(f, f.values * 1e200),
            alpha=lambda R, t: R, beta=lambda R, t: 1.0,
            zero_state=sample_function("zero", grid_small),
            norm=NormSpec("sup"))
        bump = sample_function("gaussian_bump", grid_small)
        with np.errstate(over="ignore"):
            with pytest.raises(NonFiniteStateError) as exc:
                apply_partition(fam, dyadic_partition(1.0, 2), bump)
        assert exc.value.step_index == 1
        assert isinstance(exc.value.__cause__, NonFiniteValuesError)

    def test_other_value_errors_pass_through(self, grid_small):
        from semiflow.chernoff import GeneratingFamilyDescriptor

        def step(t, f):
            raise ValueError("drift must be finite")

        fam = GeneratingFamilyDescriptor(
            name="rejects", step=step,
            alpha=lambda R, t: R, beta=lambda R, t: 1.0,
            zero_state=sample_function("zero", grid_small),
            norm=NormSpec("sup"))
        with pytest.raises(ValueError, match="drift"):
            apply_partition(fam, dyadic_partition(1.0, 2),
                            sample_function("gaussian_bump", grid_small))


class TestChernoffLimit:
    def test_t_zero_returns_input(self, ode_decay_family):
        x = VectorState([2.0])
        out, rep = chernoff_limit(ode_decay_family, 0.0, x)
        assert out is x
        assert rep.converged and rep.steps_total == 0

    def test_ode_exponential(self, ode_decay_family):
        out, rep = chernoff_limit(ode_decay_family, 1.0, VectorState([1.0]),
                                  tol=1e-4, n_min=4, n_max=12)
        assert rep.converged
        assert abs(out.coordinates[0] - math.exp(-1)) <= 5e-4

    def test_deltas_decrease_for_euler(self, ode_decay_family):
        _, rep = chernoff_limit(ode_decay_family, 1.0, VectorState([1.0]),
                                tol=1e-6, n_min=2, n_max=12)
        assert all(b < a for a, b in zip(rep.deltas, rep.deltas[1:]))

    def test_non_dyadic_time_rejected(self, ode_decay_family):
        with pytest.raises(NonDyadicTimeError):
            chernoff_limit(ode_decay_family, math.pi / 4, VectorState([1.0]))

    def test_nonconvergence_flagged(self, ode_decay_family):
        _, rep = chernoff_limit(ode_decay_family, 1.0, VectorState([1.0]),
                                tol=1e-12, n_min=2, n_max=4)
        assert not rep.converged
        assert rep.n_last == 4

    def test_report_json_fields(self, ode_decay_family):
        _, rep = chernoff_limit(ode_decay_family, 0.5, VectorState([1.0]))
        d = rep.to_json_dict()
        assert set(d) == {"t", "n_min", "n_last", "tol", "deltas", "converged",
                          "steps_total"}


def _blowup_family(factor):
    """Each step multiplies by factor: 1e200 overflows at the second step
    from 1, 1e100 at the fourth."""
    from semiflow.chernoff import GeneratingFamilyDescriptor

    def bad_step(t, x):
        with np.errstate(over="ignore"):
            return VectorState([x.coordinates[0] * (factor if t > 0 else 1.0)])

    return GeneratingFamilyDescriptor(
        name="blowup", step=bad_step,
        alpha=lambda R, t: R, beta=lambda R, t: 1.0,
        zero_state=VectorState([0.0]))


_GRID = grid_create(1, 6.0, 241)
_SHARED_WALK_CASES = {
    "heat_drift": (make_heat_family(HeatDriftParams.create(0.5, 1.0, 1),
                                    NormSpec("sup"), _GRID),
                   random_bumps(_GRID, 3)),
    "ode": (make_ode_family(vector_field_preset("rotation")),
            VectorState([1.0, -0.5])),
}


def _same_limit(a, b):
    (xa, rep_a), (xb, rep_b) = a, b
    assert np.array_equal(xa.values, xb.values)
    assert rep_a == rep_b


class TestChernoffLimits:
    """One trajectory per level for several times gives, for each time,
    exactly what its own chernoff_limit gives."""

    @pytest.mark.parametrize("case", sorted(_SHARED_WALK_CASES))
    @settings(max_examples=25, deadline=None)
    @given(ks=st.sets(st.integers(0, 8), min_size=1, max_size=4),
           tol=st.sampled_from([3e-2, 1e-2, 1e-3, 1e-4]),
           n_min=st.integers(3, 5), extra=st.integers(0, 3))
    def test_each_time_equals_its_own_limit(self, case, ks, tol, n_min, extra):
        family, x = _SHARED_WALK_CASES[case]
        times = [k / 8 for k in sorted(ks, reverse=True)]
        n_max = n_min + extra
        limits = chernoff_limits(family, times, x, tol, n_min, n_max)
        assert list(limits) == times
        for t in times:
            _same_limit(limits[t], chernoff_limit(family, t, x, tol, n_min, n_max))

    @pytest.mark.parametrize("factor,times,index", [
        (1e200, (0.25, 0.5), 1), (1e200, (0.5, 0.25, 1.0), 1), (1e200, (1.0,), 1),
        (1e100, (0.25, 0.5, 1.0), 3), (1e100, (1.0, 0.75), 3)])
    def test_nonfinite_step_index_of_a_separate_run(self, factor, times, index):
        fam = _blowup_family(factor)
        with pytest.raises(NonFiniteStateError) as separate:
            chernoff_limit(fam, max(times), VectorState([1.0]), n_min=2)
        with pytest.raises(NonFiniteStateError) as shared:
            chernoff_limits(fam, times, VectorState([1.0]), n_min=2)
        assert shared.value.step_index == separate.value.step_index == index
        assert isinstance(shared.value.__cause__, NonFiniteValuesError)

    def test_validates_every_time(self, ode_decay_family):
        with pytest.raises(NonDyadicTimeError):
            chernoff_limits(ode_decay_family, (0.5, math.pi / 4), VectorState([1.0]))

    @pytest.mark.parametrize("tol", [0.0, -1e-3, math.nan, math.inf, True])
    def test_tol_must_be_positive(self, ode_decay_family, tol):
        # a NaN tol would pass tol <= 0 and run every level to n_max; an
        # infinite one would call every limit converged at its first delta
        with pytest.raises(ValueError, match="tol must be a positive number"):
            chernoff_limits(ode_decay_family, (0.5,), VectorState([1.0]), tol)

    def test_zero_time_returns_input(self, ode_decay_family):
        x = VectorState([1.0])
        limits = chernoff_limits(ode_decay_family, (0.0, 0.5), x)
        assert limits[0.0][0] is x and limits[0.0][1].steps_total == 0
        _same_limit(limits[0.5], chernoff_limit(ode_decay_family, 0.5, x))


class TestSemigroupDefect:
    def test_zero_s_is_noise(self, ode_decay_family):
        d = semigroup_defect(ode_decay_family, 0.0, 0.5, VectorState([1.0]))
        assert d <= 1e-12

    def test_ode_defect_small(self, ode_decay_family):
        tol = 1e-4
        d = semigroup_defect(ode_decay_family, 0.5, 0.5, VectorState([1.0]),
                             tol=tol)
        assert d <= 3 * tol

    def test_heat_defect_small(self, heat_family, bump_medium):
        tol = 1e-3
        d = semigroup_defect(heat_family, 0.25, 0.25, bump_medium, tol=tol,
                             n_min=4, n_max=12)
        assert d <= 3 * tol

    @pytest.mark.parametrize("case", sorted(_SHARED_WALK_CASES))
    @pytest.mark.parametrize("s", [0.125, 0.25])
    def test_same_value_with_and_without_limits(self, case, s):
        family, x = _SHARED_WALK_CASES[case]
        kw = dict(tol=1e-3, n_min=4, n_max=9)
        limits = chernoff_limits(family, (0.5, s, 2 * s), x, **kw)
        # the three limits run one at a time, each from its own start
        u_t, _ = chernoff_limit(family, s, x, **kw)
        u_st, _ = chernoff_limit(family, s, u_t, **kw)
        u_joint, _ = chernoff_limit(family, 2 * s, x, **kw)
        separate = family.distance(u_joint, u_st)
        assert semigroup_defect(family, s, s, x, **kw) == separate
        assert semigroup_defect(family, s, s, x, limits=limits, **kw) == separate


class TestDiscreteIdentity:
    def test_ode_exact(self, ode_decay_family):
        r = discrete_semigroup_identity_residual(
            ode_decay_family, 0.5, 0.5, 1, VectorState([1.0]))
        assert r <= 1e-12

    def test_gexp_exact(self, gexp_family, bump_medium):
        r = discrete_semigroup_identity_residual(
            gexp_family, 0.25, 0.75, 2, bump_medium)
        assert r <= 1e-12

    def test_zero_s_exact(self, heat_family, bump_medium):
        r = discrete_semigroup_identity_residual(
            heat_family, 0.0, 0.5, 3, bump_medium)
        assert r == 0.0


class TestEvolvePath:
    def test_single_zero_time(self, ode_decay_family):
        x = VectorState([1.0])
        states, reports = evolve_path(ode_decay_family, [0.0], x)
        assert states == [x]
        assert reports[0].steps_total == 0

    def test_exponential_trajectory(self, ode_decay_family):
        states, reports = evolve_path(ode_decay_family, [0.5, 1.0],
                                      VectorState([1.0]), tol=1e-4, n_min=4,
                                      n_max=12)
        assert [r.t for r in reports] == [0.5, 0.5]
        assert abs(states[0].coordinates[0] - math.exp(-0.5)) <= 5e-4
        assert abs(states[1].coordinates[0] - math.exp(-1.0)) <= 5e-4

    def test_non_dyadic_time_gate(self, ode_rotation_family):
        with pytest.raises(NonDyadicTimeError):
            evolve_path(ode_rotation_family, [math.pi / 4],
                        VectorState([1.0, 0.0]))

    def test_not_increasing_rejected(self, ode_decay_family):
        with pytest.raises(ValueError):
            evolve_path(ode_decay_family, [0.5, 0.5], VectorState([1.0]))


class TestIteratedEnvelopes:
    """Uniform-in-level bounds that the declared envelopes must reproduce."""

    R = 1.0
    T = 0.5

    def test_boundedness_heat(self, heat_family):
        rng = np.random.default_rng(11)
        for _ in range(5):
            x = random_ball_state(heat_family, rng, self.R)
            for n in (2, 4, 6):
                u = apply_partition(heat_family, dyadic_partition(self.T, n), x)
                assert heat_family.norm_of(u) <= \
                    heat_family.alpha(self.R, self.T) + 1e-10

    def test_boundedness_ode(self, ode_decay_family):
        rng = np.random.default_rng(12)
        for _ in range(5):
            x = random_ball_state(ode_decay_family, rng, self.R)
            for n in (2, 4, 6):
                u = apply_partition(ode_decay_family,
                                    dyadic_partition(self.T, n), x)
                assert ode_decay_family.norm_of(u) <= \
                    ode_decay_family.alpha(self.R, self.T) + 1e-10

    @pytest.mark.parametrize("family_name", ["heat", "ode"])
    def test_uniform_lipschitz_in_state(self, family_name, heat_family,
                                        ode_decay_family):
        fam = heat_family if family_name == "heat" else ode_decay_family
        rng = np.random.default_rng(13)
        bound = fam.beta(fam.alpha(self.R, self.T), self.T)
        for _ in range(5):
            x = random_ball_state(fam, rng, self.R)
            y = random_ball_state(fam, rng, self.R)
            dxy = fam.distance(x, y)
            for n in (2, 4, 6):
                part = dyadic_partition(self.T, n)
                du = fam.distance(apply_partition(fam, part, x),
                                  apply_partition(fam, part, y))
                assert du <= bound * dxy + 1e-10

    def test_level_refinement_bound_heat(self, heat_family, bump_medium):
        # d(u_n, x) <= beta(alpha(R,t),t) * gamma_hat(x,t) * t on the
        # certified Lipschitz set
        t = 0.5
        cert = lipschitz_certificate(heat_family, bump_medium, t, [4, 5, 6, 7])
        assert cert.verdict == "bounded"
        R = heat_family.norm_of(bump_medium)
        bound = heat_family.beta(heat_family.alpha(R, t), t) * cert.gamma_hat * t
        for n in (3, 5, 7):
            u = apply_partition(heat_family, dyadic_partition(t, n), bump_medium)
            assert heat_family.distance(u, bump_medium) <= bound + 1e-8

    def test_level_refinement_bound_ode(self, ode_decay_family):
        t = 0.5
        x = VectorState([1.0])
        cert = lipschitz_certificate(ode_decay_family, x, t, [4, 5, 6, 7])
        assert cert.gamma_hat == pytest.approx(1.0, abs=1e-12)  # |f(x)| = 1
        R = 1.0
        bound = (ode_decay_family.beta(ode_decay_family.alpha(R, t), t)
                 * cert.gamma_hat * t)
        for n in (3, 5, 7):
            u = apply_partition(ode_decay_family, dyadic_partition(t, n), x)
            assert ode_decay_family.distance(u, x) <= bound + 1e-8


class TestFamilyContract:
    def test_step_zero_bit_exact(self, heat_family, gexp_family,
                                 robust_gbm_family, grid_medium):
        f = random_bumps(grid_medium, seed=5)
        for fam in (heat_family, gexp_family):
            out = fam.step(0.0, f)
            assert out is f or np.array_equal(out.values, f.values)

    def test_envelope_law_violation_detected(self):
        from semiflow.chernoff import GeneratingFamilyDescriptor, \
            check_family_contract
        fam = GeneratingFamilyDescriptor(
            name="bad", step=lambda t, x: x,
            alpha=lambda R, t: R + math.sqrt(t),  # fails the composition law
            beta=lambda R, t: 1.0,
            zero_state=VectorState([0.0]))
        with pytest.raises(ValueError, match="alpha composition"):
            check_family_contract(fam)
