"""The benchmark workloads still give their recorded golden outputs.

Each config in perfbench/workloads/ runs through the command line at the
held-out golden seed with one job, and the outputs the benchmark compares
must equal perfbench/golden.json: the CSV bytes of simulations, the
threshold tables and structure verdicts of the solver, and the imitation
fields.  This pins byte identity of every fast path on each test run.  The
test only reads perfbench/.
"""

import json
from pathlib import Path

import pytest

from netadopt.cli import main

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
GOLDEN_SEED = "4242"
VERDICTS = ("threshold_form_ok", "state_monotone_ok", "no_spontaneous_ok")
IMITATION_FIELDS = ("value", "argmax", "n_accepted", "n_below_one")

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


def compared_outputs(kind, out_dir):
    results = json.loads((out_dir / "results.json").read_text())
    assert results["ok"] is True
    if kind == "simulate":
        return {"results.csv": (out_dir / "results.csv").read_bytes().decode()}
    if kind == "solve":
        return {"thresholds": results["thresholds"],
                "checks": {v: results["checks"][v] for v in VERDICTS}}
    return {k: results[k] for k in IMITATION_FIELDS}


@pytest.mark.parametrize(
    "workload", sorted(p.stem for p in (BENCH / "workloads").glob("*.json")))
def test_workload_matches_its_golden_outputs(workload, tmp_path):
    config = BENCH / "workloads" / f"{workload}.json"
    golden = json.loads((BENCH / "golden.json").read_text())[workload]
    out = tmp_path / "out"
    assert main(["--config", str(config), "--seed", GOLDEN_SEED,
                 "--out", str(out), "--jobs", "1"]) == 0
    kind = json.loads(config.read_text())["kind"]
    assert compared_outputs(kind, out) == golden[GOLDEN_SEED]
