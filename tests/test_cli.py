import dataclasses
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import semiflow
from conftest import load_module
from semiflow import families_nonlinear as fn
from semiflow.chernoff import NonFiniteStateError
from semiflow.cli import (
    _SCHEDULE_DEFAULTS,
    ConfigError,
    ExperimentSpec,
    _fmt_time,
    build_family,
    emit_plot,
    main,
    parse_config,
    run_experiment,
)
from semiflow.state_space import grid_create, sample_function, write_csv

ROOT = Path(__file__).resolve().parent.parent


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


MINIMAL_ODE = {
    "family": {"name": "ode_neg_identity"},
    "initial": {"value": [1.0]},
    "schedule": {"t_list": [1.0]},
    "tasks": ["evolve"],
}


class TestParseConfig:
    def test_minimal_config_filled_with_defaults(self, tmp_path):
        spec = parse_config(write_config(tmp_path, MINIMAL_ODE))
        assert spec.schedule["tol"] == 1e-4
        assert spec.schedule["n_min"] == 4
        assert spec.schedule["n_max"] == 14
        assert spec.seed == 0
        for key, default in _SCHEDULE_DEFAULTS.items():
            if key != "t_list":
                assert spec.schedule[key] == default, key
        assert spec.schedule["defect_t"] == 0.5
        assert spec.schedule["monotonicity_t"] == 1.0

    def test_gbm_defaults(self, tmp_path):
        cfg = {"family": {"name": "robust_gbm"},
               "schedule": {"t_list": [0.5]}, "tasks": ["evolve"]}
        spec = parse_config(write_config(tmp_path, cfg))
        assert spec.family["M"] == 64
        assert spec.family["p"] == 3.0
        assert spec.norm["kind"] == "weighted"

    def test_non_dyadic_time_rejected_at_parse(self, tmp_path):
        cfg = dict(MINIMAL_ODE, schedule={"t_list": [0.3], "n_min": 4})
        with pytest.raises(ConfigError) as exc:
            parse_config(write_config(tmp_path, cfg))
        assert "t_list[0]" in exc.value.field_path

    def test_unknown_preset_suggests(self, tmp_path):
        cfg = {"family": {"name": "heat"}, "initial": {"preset": "heet"},
               "schedule": {"t_list": [0.5]}, "tasks": ["evolve"]}
        with pytest.raises(ConfigError, match="did you mean"):
            parse_config(write_config(tmp_path, cfg))

    def test_unknown_family_suggests(self, tmp_path):
        cfg = dict(MINIMAL_ODE, family={"name": "gexpp"})
        with pytest.raises(ConfigError, match="did you mean"):
            parse_config(write_config(tmp_path, cfg))

    def test_unknown_task_rejected(self, tmp_path):
        cfg = dict(MINIMAL_ODE, tasks=["evolv"])
        with pytest.raises(ConfigError) as exc:
            parse_config(write_config(tmp_path, cfg))
        assert "tasks[0]" in exc.value.field_path

    def test_seed_required_for_randomized_tasks(self, tmp_path):
        cfg = dict(MINIMAL_ODE, tasks=["evolve", "audit"])
        with pytest.raises(ConfigError, match="seed"):
            parse_config(write_config(tmp_path, cfg))
        # telescoping draws its second state from the seed
        cfg = {"family": {"name": "perturbation"}, "schedule": {"t_list": [0.5]},
               "tasks": ["telescoping"]}
        with pytest.raises(ConfigError, match="seed"):
            parse_config(write_config(tmp_path, cfg))

    def test_even_grid_rejected(self, tmp_path):
        cfg = {"family": {"name": "heat"}, "grid": {"n_points": 100},
               "schedule": {"t_list": [0.5]}, "tasks": ["evolve"]}
        with pytest.raises(ConfigError, match="odd"):
            parse_config(write_config(tmp_path, cfg))

    def test_round_trip_identity(self, tmp_path):
        spec = parse_config(write_config(tmp_path, MINIMAL_ODE))
        again = parse_config(write_config(tmp_path, spec.to_json_dict(),
                                          name="round.json"))
        assert again == spec

    def test_benchmark_configs_parse(self, tmp_path):
        """The shipped configs and every benchmark workload's configs parse,
        and parse -> to_json_dict -> parse is the identity on each."""
        workloads = load_module("perfbench/workloads.py")
        paths = sorted((ROOT / "scripts" / "configs").glob("*.json"))
        assert paths
        for name in workloads.WORKLOAD_NAMES:
            paths += [Path(e["config"]) for e in workloads.make_workload(
                name, 1, tmp_path / name / "inputs", tmp_path / name / "out")]
        for path in paths:
            spec = parse_config(path)
            again = parse_config(write_config(tmp_path, spec.to_json_dict(),
                                              name="round.json"))
            assert again == spec, path

    def test_table_initial_state(self, tmp_path):
        g = grid_create(1, 2.0, 41)
        f = sample_function("gaussian_bump", g)
        csv_path = tmp_path / "init.csv"
        write_csv(f, csv_path)
        cfg = {
            "family": {"name": "heat"},
            "grid": {"dim": 1, "x_max": 2.0, "n_points": 41},
            "initial": {"table": str(csv_path)},
            "schedule": {"t_list": [0.25]},
            "tasks": ["evolve"],
        }
        spec = parse_config(write_config(tmp_path, cfg))
        family, state = build_family(spec)
        assert np.array_equal(state.values, f.values)

    def test_table_grid_mismatch(self, tmp_path):
        g = grid_create(1, 2.0, 41)
        f = sample_function("gaussian_bump", g)
        csv_path = tmp_path / "init.csv"
        write_csv(f, csv_path)
        cfg = {
            "family": {"name": "heat"},
            "grid": {"dim": 1, "x_max": 2.0, "n_points": 21},
            "initial": {"table": str(csv_path)},
            "schedule": {"t_list": [0.25]},
            "tasks": ["evolve"],
        }
        with pytest.raises(ConfigError, match="grid"):
            build_family(parse_config(write_config(tmp_path, cfg)))


class TestRunExperiment:
    @pytest.mark.parametrize("path", sorted((ROOT / "scripts" / "configs").glob("*.json")),
                             ids=lambda p: p.stem)
    def test_shipped_config_passes(self, tmp_path, path):
        manifest = run_experiment(parse_config(path), out_dir=tmp_path)
        assert manifest["passed"], manifest["errors"]

    def test_run_all_rejects_an_unknown_stem(self, tmp_path, monkeypatch, capsys):
        run_all = load_module("scripts/run_all.py")
        monkeypatch.setattr(sys, "argv", ["run_all.py", "--out", str(tmp_path),
                                          "--only", "gexp_quadratc"])
        with pytest.raises(SystemExit) as exc:
            run_all.main()
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unknown config stem(s) gexp_quadratc" in err
        assert "gexp_quadratic, heat_bump" in err
        assert not any(tmp_path.iterdir())

    def test_run_all_config_error_exits_two(self, tmp_path, monkeypatch, capsys):
        # every config is parsed before the first one runs, so the error in
        # the second one writes nothing for the first either
        run_all = load_module("scripts/run_all.py")
        configs = tmp_path / "configs"
        configs.mkdir()
        write_config(configs, MINIMAL_ODE, "a_good.json")
        write_config(configs, dict(MINIMAL_ODE, tasks=5), "b_bad.json")
        monkeypatch.setattr(run_all, "CONFIG_DIR", configs)
        out = tmp_path / "out"
        monkeypatch.setattr(sys, "argv", ["run_all.py", "--out", str(out)])
        assert run_all.main() == 2
        assert "config error: config.tasks" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("stem,steps", [
        ("ode_decay", 2158), ("heat_bump", 30), ("robust_gbm", 30)])
    def test_evolve_and_defect_step_counts(self, tmp_path, monkeypatch, stem, steps):
        """Every step call of evolve and defect, counted on the family that
        build_family returns: evolve's first limit is the defect's S(2s)x
        and S(s)x lies on its trajectory, so each is walked once."""
        calls = []
        build = build_family

        def counting_build(spec):
            family, state = build(spec)
            step = family.step

            def counted(t, x):
                calls.append(t)
                return step(t, x)

            family.step = counted
            return family, state

        monkeypatch.setattr("semiflow.cli.build_family", counting_build)
        spec = parse_config(ROOT / "scripts" / "configs" / f"{stem}.json")
        spec = dataclasses.replace(spec, tasks=("evolve", "defect"))
        manifest = run_experiment(spec, out_dir=tmp_path)
        assert manifest["passed"], manifest["errors"]
        assert len(calls) == steps

    def test_tasks_run_alone_when_the_shared_walk_raises(self, tmp_path, monkeypatch):
        spec = parse_config(ROOT / "scripts" / "configs" / "ode_decay.json")
        spec = dataclasses.replace(spec, tasks=("evolve", "defect"))
        shared = run_experiment(spec, out_dir=tmp_path / "shared")

        def failing(*args):
            raise NonFiniteStateError(0)

        monkeypatch.setattr("semiflow.cli.chernoff_limits", failing)
        alone = run_experiment(spec, out_dir=tmp_path / "alone")
        assert alone["passed"] and not alone["errors"]
        assert alone["outputs"] == shared["outputs"]

    def test_ode_evolve_outputs(self, tmp_path):
        spec = parse_config(write_config(tmp_path, MINIMAL_ODE))
        manifest = run_experiment(spec, out_dir=tmp_path / "out")
        assert manifest["passed"]
        report = json.loads((tmp_path / "out" / "evolve.json").read_text())
        assert abs(report["states"][0]["state"][0] - math.exp(-1)) <= 5e-4
        names = [o["path"] for o in manifest["outputs"]]
        assert "evolve.json" in names

    def test_grid_evolve_writes_csv(self, tmp_path):
        # h = 0.02: the per-step reconstruction bias stays below the tolerance
        cfg = {
            "family": {"name": "heat"},
            "grid": {"dim": 1, "x_max": 6.0, "n_points": 601},
            "initial": {"preset": "gaussian_bump"},
            "schedule": {"t_list": [0.5], "tol": 1e-3, "n_max": 10},
            "tasks": ["evolve"],
        }
        spec = parse_config(write_config(tmp_path, cfg))
        manifest = run_experiment(spec, out_dir=tmp_path / "out")
        assert (tmp_path / "out" / "state_t0p5.csv").exists()
        assert manifest["passed"]

    def test_csv_time_names_tell_times_apart(self):
        assert [_fmt_time(t) for t in (0.25, 0.5, 1.0, 2.0)] == [
            "0p25", "0p5", "1", "2"]
        assert _fmt_time(1.0 + 2.0**-20) == "1p0000009536743164"
        assert _fmt_time(1.0 + 2.0**-52) != _fmt_time(1.0)

    def test_determinism_byte_identical(self, tmp_path):
        cfg = {
            "family": {"name": "heat"},
            "grid": {"dim": 1, "x_max": 6.0, "n_points": 241},
            "initial": {"preset": "gaussian_bump"},
            "schedule": {"t_list": [0.25], "tol": 1e-3, "n_max": 10,
                         "audit_samples": 5},
            "tasks": ["evolve", "audit"],
            "seed": 11,
        }
        spec = parse_config(write_config(tmp_path, cfg))
        m1 = run_experiment(spec, out_dir=tmp_path / "a")
        m2 = run_experiment(spec, out_dir=tmp_path / "b")
        h1 = {o["path"]: o["sha256"] for o in m1["outputs"]}
        h2 = {o["path"]: o["sha256"] for o in m2["outputs"]}
        assert h1 == h2

    def test_generator_reproduced_to_round_off_passes(self, tmp_path):
        # quotient errors of about 1e-13 that grow as h halves are round-off
        cfg = {
            "family": {"name": "heat", "drift": 0.5, "sigma": 1.0},
            "grid": {"dim": 1, "x_max": 6.0, "n_points": 601},
            "norm": {"kind": "weighted", "p": 2},
            "initial": {"preset": "identity"},
            "schedule": {"t_list": [0.5]},
            "tasks": ["generator"],
        }
        out = tmp_path / "out"
        assert main(["run", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 0
        report = json.loads((out / "generator.json").read_text())
        assert report["passed"] and max(report["table"]["errors"]) <= 1e-12

    def test_generator_on_an_empty_collar_fails(self, tmp_path, capsys):
        # reach(2^-4) = 2.8 > x_max = 2: the collar keeps no node, and
        # errors over no node must not read 0.0 and pass
        cfg = {
            "family": {"name": "heat", "drift": 0.5, "sigma": 1.0},
            "grid": {"dim": 1, "x_max": 2.0, "n_points": 41},
            "schedule": {"t_list": [0.5]},
            "tasks": ["generator"],
        }
        out = tmp_path / "out"
        code = main(["verify", str(write_config(tmp_path, cfg)), "--out", str(out)])
        assert code == 1
        assert "generator: FAIL" in capsys.readouterr().out
        report = json.loads((out / "generator.json").read_text())
        assert not report["passed"]
        assert report["error"] == "ValueError: the comparison mask keeps no node"

    def test_failing_check_fails_manifest(self, tmp_path):
        # an unreachable tolerance turns the evolve convergence flag false
        cfg = dict(MINIMAL_ODE,
                   schedule={"t_list": [1.0], "tol": 1e-13, "n_max": 6})
        spec = parse_config(write_config(tmp_path, cfg))
        manifest = run_experiment(spec, out_dir=tmp_path / "out")
        assert not manifest["passed"]

    def test_manifest_hashes_are_real(self, tmp_path):
        spec = parse_config(write_config(tmp_path, MINIMAL_ODE))
        manifest = run_experiment(spec, out_dir=tmp_path / "out")
        for entry in manifest["outputs"]:
            data = (tmp_path / "out" / entry["path"]).read_bytes()
            assert hashlib.sha256(data).hexdigest() == entry["sha256"]

    def test_manifest_records_running_versions(self, tmp_path):
        spec = parse_config(write_config(tmp_path, MINIMAL_ODE))
        run_experiment(spec, out_dir=tmp_path / "out")
        written = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert written["versions"] == {
            "semiflow": semiflow.__version__,
            "numpy": np.__version__,
            "python": "%d.%d.%d" % sys.version_info[:3],
        }


class TestEmitPlot:
    def test_flat_zero_polyline(self, tmp_path):
        g = grid_create(1, 2.0, 21)
        write_csv(sample_function("zero", g), tmp_path / "z.csv")
        emit_plot(tmp_path / "z.csv", tmp_path / "z.svg")
        svg = (tmp_path / "z.svg").read_text()
        assert svg.count("<polyline") == 1
        assert 'viewBox="0 0 800 500"' in svg

    def test_bump_plot_has_unit_tick(self, tmp_path):
        g = grid_create(1, 2.0, 81)
        write_csv(sample_function("gaussian_bump", g), tmp_path / "b.csv")
        emit_plot(tmp_path / "b.csv", tmp_path / "b.svg")
        svg = (tmp_path / "b.svg").read_text()
        assert ">1<" in svg  # peak value labeled by a round-number tick

    def test_two_series_legend(self, tmp_path):
        g = grid_create(1, 2.0, 21)
        f = sample_function("gaussian_bump", g)
        table = np.hstack([f.values, 0.5 * f.values])
        write_csv(sample_function(table, g), tmp_path / "two.csv")
        emit_plot(tmp_path / "two.csv", tmp_path / "two.svg")
        svg = (tmp_path / "two.svg").read_text()
        assert svg.count("<polyline") == 2
        assert "v1" in svg and "v2" in svg

    def test_malformed_csv_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,v1\n0.0\n")
        with pytest.raises(ValueError):
            emit_plot(bad, tmp_path / "bad.svg")


class TestMainEntry:
    def test_run_exit_zero(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, MINIMAL_ODE)
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == 0

    def test_verify_prints_pass_lines(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, MINIMAL_ODE)
        code = main(["verify", str(cfg_path), "--out", str(tmp_path / "o")])
        out = capsys.readouterr().out
        assert code == 0
        assert "evolve: PASS" in out
        assert "overall: PASS" in out

    def test_config_error_exit_two(self, tmp_path, capsys):
        cfg = dict(MINIMAL_ODE, schedule={"t_list": [0.3]})
        cfg_path = write_config(tmp_path, cfg)
        assert main(["run", str(cfg_path)]) == 2

    HEAT_41 = {"family": {"name": "heat"},
               "grid": {"dim": 1, "x_max": 2.0, "n_points": 41}}

    @pytest.mark.parametrize("cfg,field", [
        # defect_t defaults to t_list[0] / 2 = 2^-5, not dyadic at n_min = 4
        (dict(HEAT_41, schedule={"t_list": [0.0625], "n_min": 4},
              tasks=["evolve", "defect"]), "defect_t"),
        (dict(HEAT_41, schedule={"t_list": [0.5], "defect_t": 0.3},
              tasks=["defect"]), "defect_t"),
        (dict(HEAT_41, schedule={"t_list": [0.5], "monotonicity_t": 0.125,
                                 "monotonicity_levels": [2, 3]},
              tasks=["monotonicity"]), "monotonicity_t"),
        (dict(HEAT_41, schedule={"t_list": [0.5], "monotonicity_levels": [3]},
              tasks=["monotonicity"]), "monotonicity_levels"),
        (dict(HEAT_41, schedule={"t_list": [0.5], "h_levels": [0.25, 0.1]},
              tasks=["generator"]), "h_levels[1]"),
        (dict(HEAT_41, schedule={"t_list": [0.5], "h_levels": [0.125, 0.25]},
              tasks=["generator"]), "h_levels[1]"),
        (dict(HEAT_41, schedule={"t_list": [0.5], "certificate_horizon": 0.25,
                                 "certificate_levels": [1, 2, 3]},
              tasks=["certificate"]), "certificate_horizon"),
        (dict(HEAT_41, schedule={"t_list": [0.5], "certificate_horizon": 0.0},
              tasks=["certificate"]), "certificate_horizon"),
        (dict(MINIMAL_ODE, tasks=["evolve", "monotonicity"]), "tasks"),
        (dict(HEAT_41, schedule={"t_list": [0.5]},
              tasks=["evolve", "telescoping"], seed=1), "tasks"),
        (dict(HEAT_41, schedule={"t_list": [0.5], "n_min": 8, "n_max": 5},
              tasks=["evolve"]), "n_max"),
        (dict(HEAT_41, grid={"x_max": -1}, schedule={"t_list": [0.5]}), "grid"),
        (dict(HEAT_41, norm={"kind": "l2"}, schedule={"t_list": [0.5]}), "norm"),
        # 0.3 is dyadic at level 54: about 0.3 * 2^55 steps
        (dict(HEAT_41, schedule={"t_list": [0.3], "n_min": 54, "n_max": 54},
              tasks=["evolve"]), "n_max"),
        # the defect's limits reach 4 * 0.25 * 2^28 steps; evolve alone fits
        (dict(HEAT_41, schedule={"t_list": [0.5], "n_max": 27},
              tasks=["defect"]), "n_max"),
        # 0.5 * 2^41 ladder steps
        (dict(HEAT_41, schedule={"t_list": [0.5], "certificate_levels": [4, 40]},
              tasks=["certificate"]), "certificate_levels"),
        # 0.5 * 2^41 steps at the last level
        (dict(HEAT_41, schedule={"t_list": [0.5], "monotonicity_levels": [2, 40]},
              tasks=["monotonicity"]), "monotonicity_levels"),
        # each h runs up to level 44
        (dict(HEAT_41, schedule={"t_list": [0.5], "n_max": 40},
              tasks=["generator"]), "n_max"),
        (dict(HEAT_41, family={"name": "gexp", "cost": {"name": "cubic"}},
              schedule={"t_list": [0.5]}), "cost.name"),
        (dict(HEAT_41, grid={"dim": 1.0}, schedule={"t_list": [0.5]}), "grid"),
        (dict(HEAT_41, grid={"dim": 1.5}, schedule={"t_list": [0.5]}), "grid"),
        (dict(HEAT_41, grid={"n_points": None}, schedule={"t_list": [0.5]}),
         "grid"),
        # levels are nonnegative integers: 5.5 would step at k * 2^-5.5
        (dict(HEAT_41, schedule={"t_list": [0.5], "certificate_levels": [4, 5.5, 6]},
              tasks=["certificate"]), "certificate_levels[1]"),
        (dict(HEAT_41, schedule={"t_list": [0.5], "monotonicity_levels": [2, 3.5]},
              tasks=["monotonicity"]), "monotonicity_levels[1]"),
        (dict(HEAT_41, schedule={"t_list": [0.5], "certificate_levels": []},
              tasks=["certificate"]), "certificate_levels"),
        (dict(HEAT_41, schedule={"t_list": [0.5], "h_levels": []},
              tasks=["generator"]), "h_levels"),
        (dict(HEAT_41, schedule={"t_list": [0.5], "h_levels": ["x"]},
              tasks=["generator"]), "h_levels[0]"),
        (dict(HEAT_41, schedule={"t_list": [math.inf]}), "t_list[0]"),
        (dict(HEAT_41, schedule={"t_list": "0.5"}), "t_list"),
        (dict(HEAT_41, schedule={"t_list": [0.5], "tol": "1e-3"}), "tol"),
        # 2.0**1074 overflows a float; the step budget still applies
        (dict(HEAT_41, schedule={"t_list": [0.5], "n_min": 1074, "n_max": 1074}),
         "n_max"),
        (dict(HEAT_41, schedule=[0.5]), "schedule"),
        (dict(HEAT_41, grid="fine", schedule={"t_list": [0.5]}), "grid"),
        (dict(HEAT_41, family={"name": "gexp", "cost": "quadratic"},
              schedule={"t_list": [0.5]}), "cost"),
        (dict(HEAT_41, schedule={"t_list": [0.5], "audit_samples": "x"},
              tasks=["audit"], seed=1), "audit_samples"),
        (dict(HEAT_41, schedule={"t_list": [0.5], "audit_samples": 2.5},
              tasks=["audit"], seed=1), "audit_samples"),
        (dict(HEAT_41, schedule={"t_list": [0.5], "audit_times": ["x"]},
              tasks=["audit"], seed=1), "audit_times[0]"),
        (dict(HEAT_41, schedule={"t_list": [0.5], "audit_times": []},
              tasks=["audit"], seed=1), "audit_times"),
        (dict(HEAT_41, schedule={"t_list": [0.5], "audit_radius": "1.0"},
              tasks=["audit"], seed=1), "audit_radius"),
        (dict(HEAT_41, schedule={"t_list": [0.5]}, seed="x"), "seed"),
        (dict(HEAT_41, schedule={"t_list": [0.5]}, seed=-1), "seed"),
        # a field nothing reads would run with its default
        (dict(HEAT_41, family={"name": "heat", "sigam": 3.0},
              schedule={"t_list": [0.5]}), "config.family.sigam"),
        (dict(HEAT_41, family={"name": "heat", "trust_horizon": 0.5},
              schedule={"t_list": [0.5]}), "config.family.trust_horizon"),
        (dict(HEAT_41, family={"name": "gexp", "cost": {"name": "quadratic", "b": 1}},
              schedule={"t_list": [0.5]}), "config.family.cost.b"),
        (dict(HEAT_41, grid={"npoints": 41}, schedule={"t_list": [0.5]}),
         "config.grid.npoints"),
        (dict(HEAT_41, norm={"kind": "sup", "q": 2}, schedule={"t_list": [0.5]}),
         "config.norm.q"),
        (dict(HEAT_41, initial={"presett": "gaussian_bump"},
              schedule={"t_list": [0.5]}), "config.initial.presett"),
        (dict(MINIMAL_ODE, initial={"preset": "gaussian_bump"}),
         "config.initial.preset"),
        (dict(HEAT_41, schedule={"t_list": [0.5], "n_mni": 2}),
         "config.schedule.n_mni"),
        (dict(HEAT_41, schedule={"t_list": [0.5]}, task=["evolve"]), "config.task"),
        # a misspelled verdict would fail a bounded certificate
        (dict(HEAT_41, family={"name": "heat", "expected_verdict": "bouned"},
              schedule={"t_list": [0.5]}, tasks=["certificate"]),
         "config.family.expected_verdict"),
        (dict(HEAT_41, family={"name": "robust_gbm"}, norm={"kind": "sup"},
              schedule={"t_list": [0.5]}), "config.norm"),
        (dict(HEAT_41, family={"name": "robust_gbm", "p": 2.0},
              norm={"kind": "weighted", "p": 3.0}, schedule={"t_list": [0.5]}),
         "config.norm"),
        (dict(HEAT_41, family={"name": 5}, schedule={"t_list": [0.5]}),
         "config.family.name"),
        # a preset object holds its name and that preset's parameters
        (dict(HEAT_41, family={"name": "perturbation", "psi": {"name": "sin", "c": 5.0}},
              schedule={"t_list": [0.5]}), "config.family.psi.c"),
        (dict(HEAT_41, family={"name": "perturbation", "psi": {"name": "sinn"}},
              schedule={"t_list": [0.5]}), "config.family.psi.name"),
        (dict(HEAT_41, family={"name": "perturbation", "psi": "sin"},
              schedule={"t_list": [0.5]}), "config.family.psi"),
        (dict(HEAT_41, family={"name": "gexp", "lambda_grid":
                               {"min": -1.0, "max": 1.0, "stpe": 0.1}},
              schedule={"t_list": [0.5]}), "config.family.lambda_grid.stpe"),
        (dict(HEAT_41, family={"name": "gexp", "lambda_grid":
                               {"min": -1.0, "max": 1.0, "step": 0}},
              schedule={"t_list": [0.5]}), "config.family.lambda_grid.step"),
        (dict(HEAT_41, family={"name": "gexp", "lambda_grid": {"min": -1.0, "step": 0.1}},
              schedule={"t_list": [0.5]}), "config.family.lambda_grid.max"),
        # a number is a finite JSON number, never a string or a boolean cast to one
        (dict(HEAT_41, family={"name": "robust_gbm", "M": 64.7},
              schedule={"t_list": [0.5]}), "config.family.M"),
        (dict(HEAT_41, family={"name": "heat", "sigma": True},
              schedule={"t_list": [0.5]}), "config.family.sigma"),
        (dict(HEAT_41, family={"name": "heat", "drift": "0.5"},
              schedule={"t_list": [0.5]}), "config.family.drift"),
        # an integer beyond the float range is no finite number either
        (dict(HEAT_41, family={"name": "heat", "drift": -10**400},
              schedule={"t_list": [0.5]}), "config.family.drift"),
        (dict(HEAT_41, family={"name": "robust_gbm", "p": "3"},
              schedule={"t_list": [0.5]}), "config.family.p"),
        (dict(HEAT_41, family={"name": "g_expectation", "sigmas": ["0.5", 1.0]},
              schedule={"t_list": [0.5]}), "config.family.sigmas[0]"),
        (dict(HEAT_41, family={"name": "robust_gbm", "pairs": [["0.1", 0.2]]},
              schedule={"t_list": [0.5]}), "config.family.pairs[0][0]"),
        (dict(HEAT_41, family={"name": "perturbation", "psi": {"name": "linear", "c": "2"}},
              schedule={"t_list": [0.5]}), "config.family.psi.c"),
        (dict(HEAT_41, family={"name": "gexp", "lambda_grid": [0.0, "1"]},
              schedule={"t_list": [0.5]}), "config.family.lambda_grid[1]"),
        (dict(HEAT_41, grid={"x_max": "16"}, schedule={"t_list": [0.5]}), "config.grid"),
        (dict(HEAT_41, norm={"kind": "sup", "p": "3"}, schedule={"t_list": [0.5]}),
         "config.norm"),
        (dict(MINIMAL_ODE, initial={"value": ["1"]}), "config.initial.value[0]"),
        # tasks are a list naming each task once; output_dir is a path string
        (dict(HEAT_41, schedule={"t_list": [0.5]}, tasks=5), "config.tasks"),
        (dict(HEAT_41, schedule={"t_list": [0.5]}, tasks="evolve"), "config.tasks"),
        (dict(HEAT_41, schedule={"t_list": [0.5]}, tasks=["evolve", "evolve"]),
         "config.tasks[1]"),
        (dict(HEAT_41, schedule={"t_list": [0.5]}, output_dir=5), "config.output_dir"),
        # robust GBM's quadrature size and pairs follow the library's rules
        (dict(HEAT_41, family={"name": "robust_gbm", "M": 4},
              schedule={"t_list": [0.5]}), "config.family.M"),
        (dict(HEAT_41, family={"name": "robust_gbm", "pairs": [[0.1]]},
              schedule={"t_list": [0.5]}), "config.family.pairs[0]"),
        # an ODE family reads no grid or norm
        (dict(MINIMAL_ODE, grid={"dim": 2, "n_points": 5}), "config.grid"),
        (dict(MINIMAL_ODE, norm={"kind": "weighted", "p": 5}), "config.norm"),
        # an infinite tol would pass every limit at its first delta
        (dict(HEAT_41, schedule={"t_list": [0.5], "tol": math.inf}), "tol"),
    ])
    def test_parse_time_config_errors(self, tmp_path, capsys, cfg, field):
        with pytest.raises(ConfigError) as exc:
            parse_config(write_config(tmp_path, cfg))
        assert exc.value.field_path.endswith(field)
        out = tmp_path / "o"
        assert main(["run", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 2
        assert not out.exists() or not any(out.iterdir())
        assert "config error" in capsys.readouterr().err

    def test_level_beyond_the_finest_exits_two(self, tmp_path, capsys):
        # 2^-(10^400) is no float step; the parser rejects the level before
        # it builds a step count of 10^400 bits
        cfg = dict(self.HEAT_41, schedule={"t_list": [0.5], "n_min": 10**400,
                                           "n_max": 10**400})
        out = tmp_path / "o"
        assert main(["run", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: config.schedule.n_min:")
        assert not out.exists()

    @pytest.mark.parametrize("M", [10**400, 100000, 64.0], ids=["10**400", "100000", "64.0"])
    def test_quadrature_size_other_than_64_exits_two(self, tmp_path, capsys,
                                                      monkeypatch, M):
        steps = []
        monkeypatch.setattr(fn, "gbm_step", lambda *args: steps.append(args))
        cfg = dict(self.HEAT_41, family={"name": "robust_gbm", "M": M},
                   schedule={"t_list": [0.5]}, tasks=["evolve"])
        out = tmp_path / "o"
        assert main(["run", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: config.family.M:")
        assert not out.exists()
        assert steps == []

    def test_quadrature_size_64_or_none_runs_as_before(self, tmp_path):
        # the shipped robust_gbm config names M = 64; without M the run is
        # the same, byte for byte
        shipped = json.loads((ROOT / "scripts" / "configs" / "robust_gbm.json").read_text())
        assert shipped["family"]["M"] == 64
        family = {k: v for k, v in shipped["family"].items() if k != "M"}
        hashes = []
        for fam in (shipped["family"], family):
            name = str(len(hashes))
            cfg = dict(shipped, family=fam, tasks=["evolve"])
            path = write_config(tmp_path, cfg, name=f"{name}.json")
            manifest = run_experiment(parse_config(path), out_dir=tmp_path / name)
            assert manifest["passed"]
            hashes.append([o["sha256"] for o in manifest["outputs"]])
        assert hashes[0] == hashes[1]

    def test_unknown_field_suggests(self, tmp_path):
        cfg = dict(self.HEAT_41, family={"name": "heat", "sigam": 3.0},
                   schedule={"t_list": [0.5]})
        with pytest.raises(ConfigError, match="did you mean: sigma"):
            parse_config(write_config(tmp_path, cfg))
        cfg = dict(cfg, family={"name": "heat", "expected_verdict": "bouned"})
        with pytest.raises(ConfigError, match="did you mean: bounded"):
            parse_config(write_config(tmp_path, cfg))

    def test_gbm_norm_may_restate_the_weighted_norm(self, tmp_path):
        cfg = dict(self.HEAT_41, family={"name": "robust_gbm", "p": 2.0},
                   norm={"kind": "weighted", "p": 2.0}, schedule={"t_list": [0.5]})
        spec = parse_config(write_config(tmp_path, cfg))
        assert spec.norm == {"kind": "weighted", "p": 2.0}

    @pytest.mark.parametrize("grid,rule", [
        ({"dim": 1.0}, "dim must be the integer 1 or 2"),
        ({"dim": 1.5}, "dim must be the integer 1 or 2"),
        ({"n_points": None}, "n_points must be odd integers >= 3"),
        ({"n_points": 241.9}, "n_points must be odd integers >= 3"),
        ({"x_max": "16"}, "x_max must be finite positive numbers"),
        ({"x_max": 10**400}, "x_max must be finite positive numbers"),
    ])
    def test_wrong_typed_grid_names_the_rule(self, tmp_path, grid, rule):
        cfg = dict(self.HEAT_41, grid=grid, schedule={"t_list": [0.5]})
        with pytest.raises(ConfigError, match=rule):
            parse_config(write_config(tmp_path, cfg))

    def test_cost_defaults_filled(self, tmp_path):
        cfg = dict(self.HEAT_41, family={"name": "gexp", "cost": {"name": "indicator",
                                                                  "hi": 2.0}},
                   schedule={"t_list": [0.5]})
        spec = parse_config(write_config(tmp_path, cfg))
        assert spec.family["cost"] == {"name": "indicator", "lo": -1.0, "hi": 2.0}
        for cost in ({"name": "quadratic"}, {"a": 0.5}):
            cfg["family"] = {"name": "gexp", "cost": cost}
            spec = parse_config(write_config(tmp_path, cfg))
            assert spec.family["cost"] == {"name": "quadratic", "a": 0.5}
        cfg["family"] = {"name": "perturbation", "psi": {"name": "linear"}}
        spec = parse_config(write_config(tmp_path, cfg))
        assert spec.family["psi"] == {"name": "linear", "c": 1.0}

    def test_unknown_cost_suggests(self, tmp_path):
        cfg = dict(self.HEAT_41, family={"name": "gexp", "cost": {"name": "quadratik"}},
                   schedule={"t_list": [0.5]})
        with pytest.raises(ConfigError, match="did you mean: quadratic") as exc:
            parse_config(write_config(tmp_path, cfg))
        assert exc.value.field_path == "config.family.cost.name"

    def test_unknown_psi_suggests(self, tmp_path):
        cfg = dict(self.HEAT_41, family={"name": "perturbation", "psi": {"name": "sinn"}},
                   schedule={"t_list": [0.5]})
        with pytest.raises(ConfigError, match="did you mean: sin") as exc:
            parse_config(write_config(tmp_path, cfg))
        assert exc.value.field_path == "config.family.psi.name"

    @pytest.mark.parametrize("family", [
        {"name": "robust_gbm", "pairs": []},
        {"name": "robust_gbm", "M": 4},
        # the auto drift grid reaches below -1, where the cost is infinite
        {"name": "gexp", "cost": {"name": "indicator", "lo": -1.0, "hi": 2.0},
         "lambda_grid": "auto"},
        {"name": "gexp", "lambda_grid": {"min": -1}},
        {"name": "robust_gbm", "pairs": [0.1, 0.2]},
        {"name": "robust_gbm", "p": 1.0},
        {"name": "robust_gbm", "trust_horizon": -0.5},
        # no drift of cost 0: I(t)0 != 0 would break the bound envelope
        {"name": "gexp", "lambda_grid": [0.5, 1.0]},
    ])
    def test_family_build_errors_exit_two(self, tmp_path, capsys, family):
        cfg = dict(self.HEAT_41, family=family, schedule={"t_list": [0.5]},
                   tasks=["evolve"])
        out = tmp_path / "o"
        assert main(["run", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("family", [
        {"name": "heat"}, {"name": "gexp", "lambda_grid": [-1.0, 0.0, 1.0]},
        {"name": "g_expectation"}, {"name": "perturbation"}])
    def test_moving_gaussian_set_needs_p_two(self, tmp_path, capsys, family):
        # no growth rate is proved for a moving Gaussian set at p != 2
        cfg = dict(self.HEAT_41, family=family, norm={"kind": "weighted", "p": 3.0},
                   schedule={"t_list": [0.5]}, tasks=["evolve"])
        out = tmp_path / "o"
        assert main(["run", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 2
        assert "config error: config.family: " in capsys.readouterr().err
        assert not out.exists()
        cfg["norm"]["p"] = 2.0
        assert main(["run", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 0

    def test_missing_table_exits_two(self, tmp_path, capsys):
        cfg = dict(self.HEAT_41, initial={"table": str(tmp_path / "missing.csv")},
                   schedule={"t_list": [0.5]}, tasks=["evolve"])
        out = tmp_path / "o"
        assert main(["run", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 2
        assert "config error: config.initial.table" in capsys.readouterr().err
        assert not out.exists()

    def test_table_without_value_columns_exits_two(self, tmp_path, capsys):
        table = tmp_path / "x_only.csv"
        x = grid_create(1, 2.0, 41).axis(0)
        table.write_text("x\n" + "".join("%.17g\n" % v for v in x))
        cfg = dict(self.HEAT_41, initial={"table": str(table)},
                   schedule={"t_list": [0.5]}, tasks=["evolve"])
        out = tmp_path / "o"
        assert main(["run", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 2
        assert "config error: config.initial.table" in capsys.readouterr().err
        assert not out.exists()

    def test_non_dyadic_hint_names_smallest_level(self, tmp_path):
        cfg = dict(self.HEAT_41, schedule={"t_list": [0.5], "defect_t": 0.03125},
                   tasks=["defect"])
        with pytest.raises(ConfigError, match="smallest admissible level is 5"):
            parse_config(write_config(tmp_path, cfg))

    def test_assertion_failure_exit_one(self, tmp_path):
        cfg = dict(MINIMAL_ODE,
                   schedule={"t_list": [1.0], "tol": 1e-13, "n_max": 6})
        cfg_path = write_config(tmp_path, cfg)
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == 1

    def test_plot_subcommand(self, tmp_path):
        g = grid_create(1, 2.0, 21)
        write_csv(sample_function("gaussian_bump", g), tmp_path / "f.csv")
        assert main(["plot", str(tmp_path / "f.csv"),
                     str(tmp_path / "f.svg")]) == 0
        assert (tmp_path / "f.svg").exists()

    def test_plot_malformed_exit_two(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("")
        assert main(["plot", str(bad), str(tmp_path / "x.svg")]) == 2

    def test_output_path_naming_a_file_exits_two(self, tmp_path, capsys):
        # exit 1 is a failed check; an unusable output path is a config error
        taken = tmp_path / "taken"
        taken.write_text("kept")
        cfg_path = write_config(tmp_path, MINIMAL_ODE)
        assert main(["run", str(cfg_path), "--out", str(taken)]) == 2
        assert f"config error: {taken}: " in capsys.readouterr().err
        assert taken.read_text() == "kept"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "taken"]

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SEMIFLOW_OUT", str(tmp_path / "envout"))
        cfg_path = write_config(tmp_path, MINIMAL_ODE)
        assert main(["run", str(cfg_path)]) == 0
        assert (tmp_path / "envout" / "manifest.json").exists()
