"""The JSON form of every result record against the hand-written serializers
it replaced.

Each record's `to_json_dict` is its dataclass fields.  The reference
functions below are the per-record serializers the records used to carry,
kept as they were with the record passed in, so that a field added, renamed
or reshaped shows up here before it changes a task JSON.
"""

import dataclasses
import json
import math

import pytest

from semiflow.chernoff import chernoff_limit
from semiflow.cli import parse_config
from semiflow.diagnostics import (
    alpha_beta_audit,
    generator_estimate,
    lipschitz_certificate,
)
from semiflow.state_space import VectorState, sample_function


def reference_convergence_report(r):
    return {
        "t": r.t,
        "n_min": r.n_min,
        "n_last": r.n_last,
        "tol": r.tol,
        "deltas": list(r.deltas),
        "converged": r.converged,
        "steps_total": r.steps_total,
    }


def reference_lipschitz_certificate(c):
    return {
        "state_id": c.state_id,
        "horizon": c.horizon,
        "levels": list(c.levels),
        "ratios": list(c.ratios),
        "gamma_hat": c.gamma_hat,
        "growth_factors": list(c.growth_factors),
        "verdict": c.verdict,
    }


def reference_generator_table(g):
    return {
        "h_levels": list(g.h_levels),
        "errors": list(g.errors),
        "monotone_decreasing": g.monotone_decreasing,
        "smallest_error": g.smallest_error,
        "flagged": list(g.flagged),
    }


def reference_audit_report(a):
    return {
        "family": a.family,
        "seed": a.seed,
        "radius": a.radius,
        "t_list": list(a.t_list),
        "n_samples": a.n_samples,
        "checks": list(a.checks),
        "violations": list(a.violations),
        "violation_count": len(a.violations),
    }


def reference_experiment_spec(s):
    d = dataclasses.asdict(s)
    d["tasks"] = list(s.tasks)
    return d


def assert_same_json(record, reference):
    assert (json.dumps(record.to_json_dict(), sort_keys=True)
            == json.dumps(reference(record), sort_keys=True))


def test_convergence_report(ode_decay_family):
    _, rep = chernoff_limit(ode_decay_family, 0.5, VectorState([1.0]))
    assert rep.deltas
    assert_same_json(rep, reference_convergence_report)


def test_convergence_report_at_time_zero(ode_decay_family):
    _, rep = chernoff_limit(ode_decay_family, 0.0, VectorState([1.0]))
    assert_same_json(rep, reference_convergence_report)


def test_certificate_with_nan_growth(heat_family, grid_medium):
    cert = lipschitz_certificate(heat_family, sample_function("zero", grid_medium),
                                 0.25, [2, 3, 4])
    assert all(math.isnan(g) for g in cert.growth_factors)
    assert_same_json(cert, reference_lipschitz_certificate)


def test_certificate(heat_family, bump_medium):
    cert = lipschitz_certificate(heat_family, bump_medium, 0.25, [4, 5, 6])
    assert_same_json(cert, reference_lipschitz_certificate)


def test_generator_table(ode_decay_family):
    table = generator_estimate(ode_decay_family, VectorState([1.0]),
                               [2.0**-4, 2.0**-5, 2.0**-6], n_max=10)
    assert_same_json(table, reference_generator_table)


def test_audit_with_violation(ode_decay_family):
    # an alpha envelope of 0 is broken by every nonzero image
    lying = dataclasses.replace(ode_decay_family, alpha=lambda R, t: 0.0)
    report = alpha_beta_audit(lying, n_samples=4, R=1.0, t_list=[0.25], seed=5)
    assert report.violation_count == len(report.violations) > 0
    assert_same_json(report, reference_audit_report)


def test_audit_violation_count_is_derived(ode_decay_family):
    report = alpha_beta_audit(ode_decay_family, n_samples=4, R=1.0,
                              t_list=[0.25], seed=5)
    assert report.violation_count == 0
    assert_same_json(report, reference_audit_report)
    assert dataclasses.replace(report, violations=report.checks[:2]).violation_count == 2
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(report, violation_count=3)


def test_experiment_spec(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "family": {"name": "gexp", "cost": {"name": "indicator", "hi": 2.0}},
        "grid": {"dim": 1, "x_max": 4.0, "n_points": 201},
        "tasks": ["evolve", "audit", "certificate"], "seed": 2}))
    assert_same_json(parse_config(path), reference_experiment_spec)
