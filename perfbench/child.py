"""One run of a workload, in a fresh process.

    python3 perfbench/child.py <plan.json> --mode run|trace

Imports semiflow, parses every config and builds every family whose inputs
already exist (`setup_s`), then runs every experiment back to back through
`run_experiment`, the path `semiflow run` takes (`wall_s`), and reports the
process's peak RSS and the manifests it wrote.  Machine-speed reference
chunks (`speed.py`) are timed before the first experiment and after each
one, outside `wall_s`.  `trace` installs the tracer before the configs are
parsed, adds the per-layer metrics and writes the spans.  The result is one
JSON object on the last line of stdout.
"""

import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    plan = json.loads(Path(sys.argv[1]).read_text())
    traced = sys.argv[sys.argv.index("--mode") + 1] == "trace"

    t0 = time.perf_counter()
    import semiflow.cli as cli

    if traced:
        import tracer as tracing
        tracer = tracing.install()
    specs = [cli.parse_config(e["config"]) for e in plan["experiments"]]
    for spec in specs:
        table = spec.initial.get("table")
        if table is None or Path(table).exists():
            cli.build_family(spec)
    setup_s = time.perf_counter() - t0

    import speed  # after setup_s: numpy is loaded by then

    out = Path(plan["out"])
    chunks = speed.sample()
    wall_s = 0.0
    for i, (exp, spec) in enumerate(zip(plan["experiments"], specs)):
        if traced:
            tracer.begin_experiment(i)
        t1 = time.perf_counter()
        cli.run_experiment(spec, out_dir=out / exp["id"])
        wall_s += time.perf_counter() - t1
        chunks += speed.sample()
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "reference_chunks_s": chunks,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "manifests": {e["id"]: (out / e["id"] / "manifest.json").read_text()
                      for e in plan["experiments"]},
    }
    if traced:
        metrics = tracing.layer_metrics(tracer, wall_s)
        result["layers"] = metrics
        result["trace_errors"] = tracing.self_checks(tracer, metrics)
        tracing.write_spans(tracer, plan["trace_file"],
                            [e["id"] for e in plan["experiments"]])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
