"""Repeat the benchmark on ten seeds and record its spread in baseline.json.

Usage: python3 perfbench/baseline.py

Runs run.py --trace 0 on seeds 1..10 for every workload of BENCHMARK.json,
with its run_seconds, then one --trace 1 run per workload on seed 1.  For
every end-to-end metric it prints the median, the quartiles and the
spread, (Q3 - Q1) / median, next to the metric's bound, and writes all of
it to perfbench/baseline.json, with every run's values and raw medians.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = range(1, 11)
RAW_PREFIX = "raw medians "


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    """(result JSON, raw medians) of one run.py invocation."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    raw = next(json.loads(line[len(RAW_PREFIX):]) for line in lines
               if line.startswith(RAW_PREFIX))
    return json.loads(lines[-1]), raw


def summarise(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"run_seconds": seconds, "seeds": [SEEDS[0], SEEDS[-1]],
               "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        results, raws = [], []
        for seed in SEEDS:
            result, raw = bench(workload, seed, seconds, 0)
            results.append(result)
            raws.append(raw)
            print(workload, seed, json.dumps(
                {n: round(m["value"], 4)
                 for n, m in result["metrics"].items()}), flush=True)
        traced, _ = bench(workload, SEEDS[0], seconds, 1)
        entry = {"correct": all(r["correct"] for r in results + [traced]),
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "end_to_end": {}, "raw_medians": raws, "trace": {
                     name: m["value"] for name, m in traced["metrics"].items()}}
        for name, bound in bounds.items():
            stats = summarise([r["metrics"][name]["value"] for r in results])
            entry["end_to_end"][name] = stats
            print(f"{workload:<14} {name:<12} median {stats['median']:10.4f}  "
                  f"q1 {stats['q1']:10.4f}  q3 {stats['q3']:10.4f}  "
                  f"spread {stats['spread']:.3f}  bound {bound}", flush=True)
        print(f"{workload:<14} correct {entry['correct']}  attempted "
              f"{entry['attempted']}  failed {entry['failed']}", flush=True)
        summary["workloads"][workload] = entry
    (BENCH / "baseline.json").write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
