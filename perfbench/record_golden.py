"""Record the golden outputs that run.py checks every run against.

Usage: python3 perfbench/record_golden.py

Runs every workload once at its config's own seed and once at the
held-out seed, and rewrites golden.json.  Re-record only in a change that
means to alter the program's outputs, and say there why they changed.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run

HELD_OUT_SEED = 4242


def main() -> int:
    goldens = {}
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK, prefix="golden-") as tmp:
        for workload in run.workload_names():
            config = json.loads((run.WORKLOADS / f"{workload}.json").read_text())
            goldens[workload] = {}
            for seed in (config["seed"], HELD_OUT_SEED):
                out_dir = Path(tmp) / f"{workload}-{seed}"
                report = run.run_child(run.cli_args(workload, seed, out_dir))
                problems, outputs, _ = run.check_run(
                    config["kind"], out_dir, report["exit"])
                if problems:
                    print(f"{workload} seed {seed}: {problems}", file=sys.stderr)
                    return 1
                goldens[workload][str(seed)] = outputs
                print(f"{workload} seed {seed}: recorded")
    run.GOLDEN.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
