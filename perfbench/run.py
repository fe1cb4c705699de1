"""semiflow benchmark: wall time to a certified result, per workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the program is imported from
./src.  The workload's inputs are generated from --seed.  One closed-loop
client runs the workload in fresh processes, one at a time, back to back:
one warm-up run, then timed runs for --seconds seconds (at least two).  All
of them use the same seed and must write byte-identical manifests.  With
--trace 0 the last stdout line reports the end-to-end metrics, with the
wall time rescaled to a machine-speed reference (`speed.py`); with
--trace 1 runs alternate untraced and traced and it reports the per-layer
metrics of the traced runs.  Every output check failing prints
`"correct": false` and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DEADLINE_S = 170.0  # a whole run ends within 180 s
# at most nproc; on the 2-core machine two BLAS threads were no faster and
# no steadier than one
BLAS_THREADS = 1


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def environment(seed: int, blas_threads: int) -> dict:
    import numpy as np
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": metadata.version("scipy"),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads, "seed": seed}


def run_child(plan_path: Path, mode: str, env: dict, deadline: float) -> dict:
    """One fresh process; subprocess.run waits for it, or kills it at the deadline."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(plan_path), "--mode", mode],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.perf_counter()))
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} run exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def closed_form_error(exp: dict, out: Path) -> float:
    """Interior sup error of the evolved states against the closed form."""
    import numpy as np
    cf = exp["closed_form"]
    evolve = json.loads((out / "evolve.json").read_text())
    worst = 0.0
    for entry in evolve["states"]:
        t = entry["t"]
        if cf["kind"] == "ode_decay":
            exact = cf["x0"] * np.exp(-t)
            worst = max(worst, abs(entry["state"][0] - exact))
            continue
        data = np.loadtxt(out / entry["csv"], delimiter=",", skiprows=1, ndmin=2)
        x, v = data[:, 0], data[:, 1]
        var = 2.0 * cf["sigma"] ** 2 * t
        exact = np.zeros_like(x)
        for b in cf["bumps"]:
            w2 = b["w"] ** 2
            exact += (b["a"] * np.sqrt(w2 / (w2 + var))
                      * np.exp(-(x + cf["drift"] * t - b["c"][0]) ** 2 / (w2 + var)))
        inside = np.abs(x) <= cf["x_max"] - cf["margin"]
        worst = max(worst, float(np.max(np.abs(v - exact)[inside])))
    return worst


def check_outputs(experiments: list[dict], out: Path) -> dict:
    """Task outcomes from the task JSONs, and closed-form errors."""
    tasks_run = 0
    failed = []
    unexpected = []
    max_err = {}
    for exp in experiments:
        d = out / exp["id"]
        manifest = json.loads((d / "manifest.json").read_text())
        for task in manifest["tasks"]:
            report = json.loads((d / f"{task}.json").read_text())
            tasks_run += 1
            if not report.get("passed", False) or "error" in report:
                failed.append(f"{exp['id']}/{task}")
                if task not in exp.get("known_failures", {}):
                    unexpected.append(f"{exp['id']}/{task}")
        if "closed_form" in exp:
            err = closed_form_error(exp, d)
            max_err[exp["id"]] = err
            if not err <= exp["closed_form"]["max_err_bound"]:
                unexpected.append(f"{exp['id']}/max_err {err:.3g} > "
                                  f"{exp['closed_form']['max_err_bound']:.3g}")
    return {"tasks_run": tasks_run, "failed": failed, "unexpected": unexpected,
            "fail_ratio": len(failed) / tasks_run, "max_err": max_err}


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "semiflow" / "cli.py").is_file():
        return fail(f"no semiflow source under {ROOT / 'src'}; run from a checkout")
    sys.path.insert(0, str(HERE))
    import speed
    from workloads import WORKLOAD_NAMES, make_workload
    if args.workload not in WORKLOAD_NAMES:
        return fail(f"unknown workload {args.workload!r}; one of {WORKLOAD_NAMES}")

    rundir = HERE / "_run" / args.workload
    shutil.rmtree(rundir, ignore_errors=True)
    out = rundir / "out"
    experiments = make_workload(args.workload, args.seed, rundir / "inputs", out)
    plan_path = rundir / "plan.json"
    plan_path.write_text(json.dumps({"experiments": experiments, "out": str(out),
                                     "trace_file": str(rundir / "trace.jsonl")}))

    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    info = environment(args.seed, BLAS_THREADS)

    setups, walls, chunks, rss, traced = [], [], [], [], []
    manifests = None
    checks = None
    errors = []
    attempted = 0
    deadline = time.perf_counter() + RUN_DEADLINE_S

    def run_once(mode: str) -> dict:
        nonlocal manifests, checks, attempted
        shutil.rmtree(out, ignore_errors=True)
        attempted += len(experiments)
        res = run_child(plan_path, mode, env, deadline)
        if manifests is None:
            manifests = res["manifests"]
            checks = check_outputs(experiments, out)
            errors.extend(checks["unexpected"])
        elif res["manifests"] != manifests:
            bad = [e for e in manifests if res["manifests"].get(e) != manifests[e]]
            errors.append(f"rerun of the same seed changed the manifests of {bad}")
        return res

    timed = ("run", "trace") if args.trace else ("run",)
    try:
        # the first process warms caches; its outputs are checked, its times unused
        run_once("run")
        start = time.perf_counter()
        k = 0
        while k < 2 * len(timed) or time.perf_counter() - start < args.seconds:
            mode = timed[k % len(timed)]
            k += 1
            res = run_once(mode)
            if mode == "trace":
                errors.extend(res["trace_errors"])
                traced.append(res)
            else:
                walls.append(res["wall_s"])
                chunks.extend(res["reference_chunks_s"])
                rss.append(res["peak_rss_mb"])
                setups.append(res["setup_s"])
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as e:
        errors.append(f"{type(e).__name__}: {e}")

    print(f"# perfbench workload={args.workload} seed={args.seed} trace={args.trace}")
    print("env " + " ".join(f"{k}={json.dumps(v)}" for k, v in info.items()))
    for name, unit, values in (("wall_s", "s", walls), ("setup_s", "s", setups),
                               ("peak_rss_mb", "MB", rss)):
        if values:
            q1, med, q3 = quartiles(values)
            print(f"{name:<12} {med:.4f} {unit} (median; q1 {q1:.4f}, q3 {q3:.4f}, "
                  f"n {len(values)}; samples {[round(v, 4) for v in values]})")
    if walls:
        q1, med, q3 = quartiles(chunks)
        wall_ref = speed.rescale(walls, chunks)
        print(f"{'wall_ref_s':<12} {wall_ref:.4f} s (median wall_s at the reference speed; "
              f"reference chunk median {med * 1e3:.3f} ms, q1 {q1 * 1e3:.3f}, "
              f"q3 {q3 * 1e3:.3f}, n {len(chunks)}; {speed.REFERENCE_S * 1e3:.3f} ms "
              "on the reference VM)")
    if checks is not None:
        known = [f for f in checks["failed"] if f not in checks["unexpected"]]
        print(f"{'fail_ratio':<12} {checks['fail_ratio']:.4f} ratio "
              f"({len(checks['failed'])} of {checks['tasks_run']} tasks failed; "
              f"known failures: {', '.join(known) or 'none'})")
        if checks["max_err"]:
            detail = ", ".join(f"{k} {v:.3e}" for k, v in checks["max_err"].items())
            print(f"{'max_err':<12} {max(checks['max_err'].values()):.4e} abs "
                  f"(interior sup error against the closed form; {detail})")
        else:
            print(f"{'max_err':<12} n/a (no closed form in this workload)")
    for e in errors:
        print(f"CHECK FAILED {e}")

    metrics = {}
    if walls and setups and not args.trace:
        metrics = {"wall_ref_s": {"value": wall_ref, "unit": "s"},
                   "setup_s": {"value": statistics.median(setups), "unit": "s"},
                   "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"}}
    elif traced and walls:
        metrics, count_errors = layer_summary(traced, walls)
        for e in count_errors:
            print(f"CHECK FAILED {e}")
        errors += count_errors
    correct = not errors and checks is not None
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": min(len(errors), max(attempted, 1)),
                      "metrics": metrics}))
    return 0 if correct else 1


UNITS = {"_s": "s", "_share": "ratio", "_ratio": "ratio", "_mb": "MB",
         "_gflop": "GFLOP", "_rate": "GFLOP/s", "_us_per_step": "us"}


def unit_of(name: str) -> str:
    if name.startswith("share."):
        return "ratio"
    if ".task_s." in name:
        return "s"
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def is_timing(name: str) -> bool:
    """Timings and shares of time get medians; counts must repeat exactly."""
    return unit_of(name) in ("s", "GFLOP/s", "us") or name.startswith("share.")


def layer_summary(traced: list[dict], walls: list[float]):
    """Per-layer metrics: medians of times, exact repeats of counts."""
    errors = []
    names = traced[0]["layers"].keys()
    metrics = {}
    for name in names:
        values = [r["layers"][name] for r in traced]
        if is_timing(name):
            value = statistics.median(values)
        else:
            value = values[0]
            if any(v != value for v in values):
                errors.append(f"count {name} differs between traced runs: {values}")
        metrics[name] = {"value": value, "unit": unit_of(name)}
    trace_wall = statistics.median(r["wall_s"] for r in traced)
    metrics["trace.wall_s"] = {"value": trace_wall, "unit": "s"}
    metrics["trace.overhead"] = {"value": trace_wall / statistics.median(walls) - 1.0,
                                 "unit": "ratio"}
    print("layer self-time shares of the traced wall time "
          f"({trace_wall:.3f} s, overhead {metrics['trace.overhead']['value']:+.3f}):")
    for name in names:
        if name.startswith("share."):
            print(f"  {name:<28} {metrics[name]['value']:.4f}")
    for name in ("diag.repeat_share", "linear.dt_reuse_share"):
        print(f"  {name:<28} {metrics[name]['value']:.4f}")
    return metrics, errors


if __name__ == "__main__":
    sys.exit(main())
