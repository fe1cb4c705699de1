"""Each input rule is stated once, in the module that applies it, and the CLI
calls that statement at the field's own path.  One table of values goes
through the library's statement of each rule and through parse_config (then
the family build that run_experiment runs next), and the two must give the
same verdict, so that the two can no longer drift apart."""

import json
import math

import pytest

from semiflow.chernoff import check_level, check_tol
from semiflow.cli import ConfigError, _validated, build_family, parse_config
from semiflow.diagnostics import check_h_level, check_horizon
from semiflow.families_linear import GbmParams, HeatDriftParams
from semiflow.families_nonlinear import SigmaLambdaSet, make_g_expectation_family
from semiflow.state_space import grid_create

VALUES = [pytest.param(v, id=name) for v, name in (
    (True, "True"), ("1", "str_1"), (1.5, "1.5"), (-1, "-1"), (0, "0"),
    (10**400, "10**400"), (math.nan, "nan"), (math.inf, "inf"))]
HEAT_41 = {"family": {"name": "heat"},
           "grid": {"dim": 1, "x_max": 2.0, "n_points": 41}}
PLANE = {"dim": 2, "x_max": 2.0, "n_points": 21}
# scalar or per-axis values on the plane: the scalars of the table and lists
AXIS_VALUES = VALUES + [pytest.param(v, id=str(v)) for v in (
    [0.5], [0.5, 0.5], [0.5, True], [0.5, 0.5, 0.5])]


def library_accepts(check, *args) -> bool:
    try:
        check(*args)
    except (ValueError, TypeError):
        return False
    return True


def cli_accepts(tmp_path, cfg, field) -> bool:
    """False when parse_config, or the family build, rejects cfg at field or
    below it.  A rejection at another field is another rule's; any other
    exception fails the test."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    try:
        _validated("config.family", build_family, parse_config(path))
    except ConfigError as e:
        return not e.field_path.startswith(field)
    return True


@pytest.mark.parametrize("value", VALUES + [4, 7])
def test_level(tmp_path, value):
    # the second ladder level; a level too large for the step budget is
    # rejected by the budget, at certificate_levels itself
    cfg = dict(HEAT_41, schedule={"t_list": [1.0], "certificate_horizon": 1.0,
                                  "certificate_levels": [4, value]},
               tasks=["certificate"])
    assert (cli_accepts(tmp_path, cfg, "config.schedule.certificate_levels[1]")
            == library_accepts(check_level, value))


@pytest.mark.parametrize("value", VALUES + [8, 64])
def test_quadrature_size(tmp_path, value):
    cfg = dict(HEAT_41, family={"name": "robust_gbm", "M": value},
               schedule={"t_list": [0.5]})
    assert (cli_accepts(tmp_path, cfg, "config.family.M")
            == library_accepts(GbmParams, 0.1, 0.2, value))


@pytest.mark.parametrize("value", AXIS_VALUES)
def test_heat_drift_per_axis(tmp_path, value):
    cfg = {"family": {"name": "heat", "drift": value}, "grid": PLANE,
           "schedule": {"t_list": [0.5]}}
    assert (cli_accepts(tmp_path, cfg, "config.family")
            == library_accepts(HeatDriftParams.create, value, 1.0, 2))


@pytest.mark.parametrize("value", AXIS_VALUES)
def test_sigma_lambda_per_axis(tmp_path, value):
    # a one-entry list on the plane is no per-axis value: rejected, not
    # broadcast to both axes
    cfg = {"family": {"name": "g_expectation", "sigmas": [value], "lambdas": [0.0]},
           "grid": PLANE, "schedule": {"t_list": [0.5]}}
    assert cli_accepts(tmp_path, cfg, "config.family") == library_accepts(
        lambda: make_g_expectation_family(SigmaLambdaSet(((value, 0.0),)),
                                          grid_create(**PLANE)))


@pytest.mark.parametrize("value", AXIS_VALUES)
def test_grid_box_per_axis(tmp_path, value):
    cfg = dict(HEAT_41, grid={**PLANE, "x_max": value}, schedule={"t_list": [0.5]})
    assert (cli_accepts(tmp_path, cfg, "config.grid")
            == library_accepts(grid_create, 2, value, PLANE["n_points"]))


@pytest.mark.parametrize("value", VALUES + [1e-3])
def test_tolerance(tmp_path, value):
    cfg = dict(HEAT_41, schedule={"t_list": [0.5], "tol": value})
    assert (cli_accepts(tmp_path, cfg, "config.schedule.tol")
            == library_accepts(check_tol, value))


@pytest.mark.parametrize("previous", [None, 0.25])
@pytest.mark.parametrize("value", VALUES + [0.125, 2.0**-20])
def test_generator_step_size(tmp_path, value, previous):
    # 2^-20 is dyadic only beyond n_max = 14; 1.5 does not follow 0.25
    hs = [value] if previous is None else [previous, value]
    cfg = dict(HEAT_41, schedule={"t_list": [0.5], "h_levels": hs},
               tasks=["generator"])
    field = f"config.schedule.h_levels[{len(hs) - 1}]"
    args = (value, 14) if previous is None else (value, 14, previous)
    assert cli_accepts(tmp_path, cfg, field) == library_accepts(check_h_level, *args)


@pytest.mark.parametrize("value", VALUES + [0.5, 2.0**-5])
def test_certificate_horizon(tmp_path, value):
    # 2^-5 is not dyadic at the lowest ladder level 4
    cfg = dict(HEAT_41, schedule={"t_list": [0.5], "certificate_horizon": value,
                                  "certificate_levels": [4, 5]},
               tasks=["certificate"])
    assert (cli_accepts(tmp_path, cfg, "config.schedule.certificate_horizon")
            == library_accepts(check_horizon, value, [4, 5]))
