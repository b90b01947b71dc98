"""End-to-end and per-layer benchmark of the netadopt command line.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is one JSON experiment config in perfbench/workloads/, run
through netadopt.cli with `--jobs 1`, one fresh interpreter per run and
one run at a time: the reference machine has 2 CPUs, and parallel
replications would mostly measure the scheduler.  The seed reaches the
program only through the CLI's --seed.

Every invocation first runs the workload at one of its golden seeds and
compares the outputs with golden.json; that run also warms file caches
and bytecode and is not timed.  With --trace 0 it then repeats the
workload on --seed until --seconds have passed (at least MIN_REPS times)
and reports the medians of setup_s, run_s, cpu_s and peak_rss_mb over
the repeats.  With --trace 1 it alternates untraced and traced repeats
and reports the per-layer metrics of layertrace.py and the tracing
overhead.

Times are scaled to the reference speed of the host.  On a shared 2-CPU
host the speed of identical work drifts by up to 2x over minutes, so a
fresh interpreter times a fixed pure-Python loop (calibrate.py) before
and after every repeat.  A repeat's set-up and run times are multiplied
by CAL_REFERENCE_S over the mean wall time of the two loops around it,
its CPU time by CAL_REFERENCE_S over their mean CPU time.  The line
before the JSON gives the raw medians: unscaled times, the scales, and
process_peak_rss_mb, the whole peak of which peak_rss_mb is the part the
run adds after the import.

Every run is checked: exit code 0, strict JSON artifacts, an ok verdict,
and outputs equal to the golden or to the first run on the same seed.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
WORKLOADS = BENCH / "workloads"
GOLDEN = BENCH / "golden.json"

MIN_REPS = 3
# calibrate.py's time on the reference host (2-CPU Xeon VM) when it is quiet.
CAL_REFERENCE_S = 0.280
DEADLINE_S = 170.0
VERDICTS = ("threshold_form_ok", "state_monotone_ok", "no_spontaneous_ok")
IMITATION_FIELDS = ("value", "argmax", "n_accepted", "n_below_one")


class ChildError(RuntimeError):
    """A measuring child process failed before reporting."""


def workload_names() -> list:
    return sorted(p.stem for p in WORKLOADS.glob("*.json"))


def workload_kind(workload: str) -> str:
    return json.loads((WORKLOADS / f"{workload}.json").read_text())["kind"]


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def _report(args, timeout) -> dict:
    """Run one fresh interpreter and return the JSON of its last line."""
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=_child_env(),
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise ChildError(f"{Path(args[0]).name} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-400:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_child(cli_args, trace=False, timeout=DEADLINE_S) -> dict:
    """Run the CLI once in child.py and return its report."""
    return _report([str(BENCH / "child.py"), str(SRC), repr(time.monotonic()),
                    "1" if trace else "0", *cli_args], timeout)


def calibrate(timeout=DEADLINE_S) -> dict:
    """Wall and CPU time of calibrate.py's loop in a fresh interpreter."""
    return _report([str(BENCH / "calibrate.py")], timeout)


def cli_args(workload: str, seed: int, out_dir: Path) -> list:
    return ["--config", str(WORKLOADS / f"{workload}.json"),
            "--seed", str(seed), "--out", str(out_dir), "--jobs", "1"]


def strict_json(text: str):
    """Parse JSON, rejecting the NaN and Infinity tokens Python accepts."""
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=reject)


def read_outputs(kind: str, out_dir: Path) -> tuple:
    """(compared outputs, parsed results.json) of one run's artifacts."""
    results = strict_json((out_dir / "results.json").read_text())
    strict_json((out_dir / "manifest.json").read_text())
    if kind == "simulate":
        outputs = {"results.csv":
                   (out_dir / "results.csv").read_bytes().decode()}
    elif kind == "solve":
        outputs = {"thresholds": results["thresholds"],
                   "checks": {v: results["checks"][v] for v in VERDICTS}}
    elif kind == "auxmodel":
        outputs = {k: results[k] for k in IMITATION_FIELDS}
    else:
        raise ValueError(f"no output check for kind {kind!r}")
    return outputs, results


def check_run(kind: str, out_dir: Path, exit_code, expected=None) -> tuple:
    """(problems, outputs, results) of one run; no problems means correct."""
    if exit_code != 0:
        return [f"exit code {exit_code}"], None, None
    try:
        outputs, results = read_outputs(kind, out_dir)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        return [f"bad artifacts: {exc!r}"], None, None
    problems = []
    if results.get("ok") is not True:
        problems.append("results.json verdict is not ok")
    if expected is not None and outputs != expected:
        problems.append("outputs differ from the reference")
    return problems, outputs, results


class Session:
    """The runs of one benchmark invocation and their checks."""

    def __init__(self, workload: str, tmp: Path):
        self.workload = workload
        self.kind = workload_kind(workload)
        self.tmp = tmp
        self.deadline = time.monotonic() + DEADLINE_S
        self.problems = []   # one list per attempted run
        self.cal = None      # the latest calibration

    def _left(self) -> float:
        return max(1.0, self.deadline - time.monotonic())

    def attempt(self, seed: int, expected=None, trace=False):
        """Run the workload once between two calibrations.

        Returns (report, outputs, results); the report carries the run's
        wall_scale and cpu_scale.
        """
        out_dir = self.tmp / f"run{len(self.problems)}"
        try:
            before = self.cal or calibrate(self._left())
            report = run_child(cli_args(self.workload, seed, out_dir), trace,
                               self._left())
            self.cal = after = calibrate(self._left())
            for clock in ("wall", "cpu"):
                report[f"{clock}_scale"] = 2 * CAL_REFERENCE_S / (
                    before[f"{clock}_s"] + after[f"{clock}_s"])
        except (ChildError, subprocess.TimeoutExpired, ValueError) as exc:
            self.problems.append([f"{exc}"])
            return None, None, None
        problems, outputs, results = check_run(
            self.kind, out_dir, report.get("exit"), expected)
        self.problems.append(problems)
        return report, outputs, results

    @property
    def failed(self) -> int:
        return sum(1 for p in self.problems if p)


def _scaled(reports, key, clock="wall") -> float:
    return statistics.median(r[key] * r[f"{clock}_scale"] for r in reports)


def _median(reports, key) -> float:
    return statistics.median(r[key] for r in reports)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    goldens = json.loads(GOLDEN.read_text())[workload]
    golden_seeds = sorted(goldens, key=int)
    golden_seed = golden_seeds[seed % len(golden_seeds)]
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK, prefix=f"{workload}-") as tmp:
        session = Session(workload, Path(tmp))
        session.attempt(int(golden_seed), goldens[golden_seed])
        expected = goldens.get(str(seed))
        plain, traced = [], []
        metrics = {}
        start = time.monotonic()
        while (len(plain) < (1 if trace else MIN_REPS)
               or time.monotonic() - start < seconds):
            report, outputs, results = session.attempt(seed, expected)
            if report is None:
                break
            plain.append(report)
            expected = expected or outputs
            if trace:
                report, outputs, _ = session.attempt(seed, expected, True)
                if report is None:
                    break
                traced.append(report)
        if not plain or (trace and not traced):
            raise ChildError("; ".join(p for ps in session.problems
                                       for p in ps))
        if trace:
            layers = [r["layers"] for r in traced]
            counts = {k: v for k, v in layers[0].items() if isinstance(v, int)}
            if any({k: l[k] for k in counts} != counts for l in layers[1:]):
                session.problems[-1].append("traced counts differ between runs")
            for name in layers[0]:
                metrics[name] = statistics.median(l[name] for l in layers)
            metrics.update(counts)
            metrics["trace.overhead_s"] = (_scaled(traced, "run_s")
                                           - _scaled(plain, "run_s"))
            metrics["auxmodel.accept_ratio"] = (
                results["n_accepted"] / results["n_samples"]
                if results and "n_accepted" in results else 0.0)
        else:
            metrics["setup_s"] = _scaled(plain, "setup_s")
            metrics["run_s"] = _scaled(plain, "run_s")
            metrics["cpu_s"] = _scaled(plain, "cpu_s", "cpu")
            metrics["peak_rss_mb"] = _median(plain, "peak_rss_mb")
        raw = {key: _median(plain, key) for key in (
            "setup_s", "run_s", "cpu_s", "peak_rss_mb",
            "process_peak_rss_mb", "wall_scale", "cpu_scale")}
        return {"session": session, "reps": len(traced or plain),
                "raw": raw, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "netadopt" / "cli.py").is_file():
        print(f"error: no netadopt sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workload_names():
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{workload_names()}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    try:
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    except (ChildError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    session = result["session"]
    attempted, failed = len(session.problems), session.failed
    print(f"workload {args.workload}  seed {args.seed}  "
          f"measured runs {result['reps']}  attempted {attempted}  "
          f"failed {failed}  error_rate {failed / attempted:g}")
    for problems in session.problems:
        for problem in problems:
            print(f"  problem: {problem}")
    metrics = {}
    for entry in wanted:
        value = result["metrics"][entry["name"]]
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"  {entry['name']:<34} {value:>14.6g} {entry['unit']}")
    print("raw medians " + json.dumps(result["raw"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
