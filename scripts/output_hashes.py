#!/usr/bin/env python3
"""Print the sha256 of every output of the shipped configs and workloads.

Runs each config under scripts/configs, and each workload of
perfbench/workloads.py at --seed, through run_experiment in a temporary
directory, and prints one JSON object that maps each output to the sha256
its manifest records: "configs/<stem>/<file>" and
"workloads/<workload>/<experiment>/<file>".  --only runs just the named
config stems and workloads.  --compare FILE reads an earlier such object,
lists on stderr every path whose hash differs or that only one side has,
and exits 1 if there is one.

    python scripts/output_hashes.py --seed 1 > before.json
    python scripts/output_hashes.py --seed 1 --compare before.json
"""

import argparse
import importlib.util
import json
import sys
import tempfile
from pathlib import Path

from semiflow.cli import parse_config, run_experiment

ROOT = Path(__file__).resolve().parent.parent


def _workloads():
    """perfbench/workloads.py, imported from its file and left unchanged."""
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _hashes(prefix: str, config, out: Path) -> dict:
    manifest = run_experiment(parse_config(config), out_dir=out)
    return {f"{prefix}/{o['path']}": o["sha256"] for o in manifest["outputs"]}


def output_hashes(seed: int, only=None) -> dict:
    """The output hashes of the selected configs and workloads."""
    workloads = _workloads()
    hashes = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for config in sorted((ROOT / "scripts" / "configs").glob("*.json")):
            if not only or config.stem in only:
                hashes.update(_hashes(f"configs/{config.stem}", config,
                                      tmp / "configs" / config.stem))
        for name in workloads.WORKLOAD_NAMES:
            if not only or name in only:
                out = tmp / "workloads" / name
                for exp in workloads.make_workload(name, seed, tmp / "inputs" / name, out):
                    hashes.update(_hashes(f"workloads/{name}/{exp['id']}",
                                          exp["config"], out / exp["id"]))
    return hashes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1, help="workload seed")
    ap.add_argument("--only", nargs="*", help="config stems and workload names to run")
    ap.add_argument("--compare", type=Path, help="earlier output of this script")
    args = ap.parse_args()
    hashes = output_hashes(args.seed, args.only)
    print(json.dumps(hashes, indent=1, sort_keys=True))
    if args.compare is None:
        return 0
    before = json.loads(args.compare.read_text())
    differ = sorted(p for p in before.keys() | hashes.keys()
                    if before.get(p) != hashes.get(p))
    for path in differ:
        print(f"differs: {path}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
