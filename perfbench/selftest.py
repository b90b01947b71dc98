"""Self-tests of the benchmark harness.

Usage: python3 perfbench/selftest.py

Checks that run.py prints every metric BENCHMARK.json names with its unit,
that the traced work counts repeat exactly across two traced runs, that a
one-byte change in a copied artifact is counted as an error, and that the
benchmark refuses to run without the netadopt sources.  Runs each workload
a few times, about two minutes on a 2-CPU machine.  The file name keeps
it out of the package's pytest collection.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAMED_COUNTS = ("strategies.decisions", "solver.scenarios",
                "engine.run_profile.calls", "auxmodel.psi.calls")


def bench(workload, trace, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "0",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def config(workload):
    return json.loads((run.WORKLOADS / f"{workload}.json").read_text())


class HarnessTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        run.WORK.mkdir(exist_ok=True)
        cls.tmp = Path(tempfile.mkdtemp(dir=run.WORK, prefix="selftest-"))
        cls.goldens = json.loads(run.GOLDEN.read_text())
        cls.traced = {}
        for workload in run.workload_names():
            seed = config(workload)["seed"]
            cls.traced[workload] = [
                run.run_child(run.cli_args(
                    workload, seed, cls.tmp / f"{workload}-{i}"), trace=True)
                for i in range(2)]

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def test_every_metric_is_printed_with_its_unit(self):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench("mc_relay_ring", trace)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            self.assertEqual(set(result),
                             {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertIn("error_rate 0", proc.stdout)
            units = {n: m["unit"] for n, m in result["metrics"].items()}
            self.assertEqual(
                units, {m["name"]: m["unit"] for m in SPEC[section]})
            for metric in SPEC[section]:
                self.assertRegex(
                    proc.stdout, rf"\n  {metric['name']} +\S+ "
                                 rf"{metric['unit']}\n")

    def test_traced_counts_repeat_exactly(self):
        for workload, (first, second) in self.traced.items():
            with self.subTest(workload=workload):
                for name in NAMED_COUNTS:
                    self.assertEqual(first["layers"][name],
                                     second["layers"][name], name)
                counts = {k: v for k, v in first["layers"].items()
                          if isinstance(v, int)}
                self.assertEqual(
                    counts, {k: second["layers"][k] for k in counts})
        layers = {w: runs[0]["layers"] for w, runs in self.traced.items()}
        for workload in ("mc_star", "mc_relay_ring"):
            self.assertEqual(layers[workload]["engine.run_profile.calls"],
                             config(workload)["replications"])
        self.assertGreater(layers["exact_line"]["solver.scenarios"], 0)
        self.assertGreater(layers["imitation"]["auxmodel.psi.calls"], 0)
        self.assertEqual(layers["imitation"]["strategies.decisions"], 0)

    def test_traced_runs_match_the_golden_outputs(self):
        for workload in self.traced:
            seed = str(config(workload)["seed"])
            problems, _, _ = run.check_run(
                run.workload_kind(workload), self.tmp / f"{workload}-0", 0,
                self.goldens[workload][seed])
            self.assertEqual(problems, [], workload)

    def test_one_byte_change_is_an_error(self):
        for workload in self.traced:
            kind = run.workload_kind(workload)
            golden = self.goldens[workload][str(config(workload)["seed"])]
            copy = self.tmp / f"{workload}-copy"
            shutil.copytree(self.tmp / f"{workload}-0", copy)
            self.assertEqual(run.check_run(kind, copy, 0, golden)[0], [])
            self.assertNotEqual(run.check_run(kind, copy, 3, golden)[0], [])
            name = "results.csv" if kind == "simulate" else "results.json"
            data = bytearray((copy / name).read_bytes())
            last_digit = max(i for i, b in enumerate(data)
                             if chr(b).isdigit())
            data[last_digit] = ord("7" if data[last_digit] != ord("7")
                                   else "8")
            (copy / name).write_bytes(bytes(data))
            with self.subTest(workload=workload):
                self.assertNotEqual(run.check_run(kind, copy, 0, golden)[0],
                                    [])

    def test_non_strict_json_is_an_error(self):
        copy = self.tmp / "mc_star-nan"
        shutil.copytree(self.tmp / "mc_star-0", copy)
        text = (copy / "results.json").read_text()
        (copy / "results.json").write_text(
            text.replace('"truncated_fraction": 0.0',
                         '"truncated_fraction": NaN'))
        problems, _, _ = run.check_run("simulate", copy, 0)
        self.assertEqual(len(problems), 1)
        self.assertIn("NaN", problems[0])

    def test_refuses_to_run_without_sources(self):
        bare = self.tmp / "bare"
        shutil.copytree(run.BENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = bench("mc_star", 0, cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
