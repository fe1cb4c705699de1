#!/usr/bin/env python3
"""Run every example config under scripts/configs and summarize the results.

Each experiment writes its artifacts to out/<config-name>/ (override with
SEMIFLOW_OUT or --out); --only runs just the named config stems.  Every
selected config is parsed before the first one runs, so a config error at
parse time writes nothing.  Exit code is 1 if any asserted check failed and
2 if --only names an unknown stem or a config has an error, which is
printed as `config error: ...`, as `semiflow run` does.
"""

import argparse
import os
import sys
from pathlib import Path

from semiflow.cli import ConfigError, parse_config, run_experiment

CONFIG_DIR = Path(__file__).parent / "configs"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default=os.environ.get("SEMIFLOW_OUT", "out"))
    ap.add_argument("--only", nargs="*", help="config stems to run")
    args = ap.parse_args()
    paths = sorted(CONFIG_DIR.glob("*.json"))
    stems = [p.stem for p in paths]
    unknown = [stem for stem in args.only or () if stem not in stems]
    if unknown:
        ap.error(f"unknown config stem(s) {', '.join(unknown)}; known: {', '.join(stems)}")

    try:
        specs = [(p.stem, parse_config(p)) for p in paths
                 if not args.only or p.stem in args.only]
        failures = 0
        for stem, spec in specs:
            manifest = run_experiment(spec, out_dir=Path(args.out) / stem)
            status = "PASS" if manifest["passed"] else "FAIL"
            tasks = ", ".join(f"{t}={'ok' if ok else 'FAIL'}"
                              for t, ok in manifest["tasks"].items())
            print(f"{stem:<18} {status}  [{tasks}]")
            failures += 0 if manifest["passed"] else 1
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
