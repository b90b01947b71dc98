"""The command-line contract on random, mostly invalid configs.

Every config goes through main() in-process.  Whatever it holds, the run
must exit 0, 2 or 3 without raising; exit 2 prints one "error:" line that
names the config field or the file at fault, and exits 0 and 3 leave strict-JSON artifacts whose verdict matches the exit
code and hold no NaN or infinity.  Sizes stay small: at most 6 agents, 20
replications and horizon 5.
"""

import contextlib
import csv
import io
import json
import math
import os
import re
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from netadopt.cli import _CONFIG_KEYS, KINDS, main

# An exit-2 message names a top-level config field (params.* included) or
# the config file itself.
NAMES_A_FIELD = re.compile(
    r"\b(config|%s)\b" % "|".join(sorted(_CONFIG_KEYS)))

# Per config field: values that may work, then values that must not.
FIELDS = {
    "seed": ((1, 7, 20250816, -3), ("x", 1.5, None, True)),
    "network": (
        ({"line": {"n": 3}}, {"line": {"n": 6, "ring": True}},
         {"line": {"n": 4, "directed": True}}, {"line": {"n": 1}},
         {"star": {"leaves": 3}}, {"star": {"leaves": 5, "directed": False}},
         {"tree": {"d": 2, "depth": 1}}, {"edgelist": "0 1\n1 2\n2 0"}),
        ({"line": {"n": 0}}, {"line": {"n": "x"}}, {"line": {}}, {"ring": {}},
         {"star": {"leaves": -2}}, {"edgelist": "0 x"}, "line", [],
         {"line": {"n": 5, "ring": "false", "directed": "no"}},
         {"line": {"n": True}}, {"star": {"leaves": 3, "directed": 1}})),
    "signal": (
        ({"binary": 0.75}, {"binary": "3/4"}, {"binary": 0.6},
         {"grid": {"n": 3}}, {"atoms": [[0.5, 0.25], [0.5, 0.75]]}),
        ({"atoms": [[1, 0], [0, 1]]}, {"binary": 0.5}, {"binary": 1.5}, {"binary": "x"}, {"grid": {"n": 1}},
         {"atoms": [[0.5, 0.5]]}, {"atoms": "x"}, {"binary": 0.75, "grid": {}},
         7)),
    "strategy": (
        ("myopic", "solve", {"sigma": {"eta": 0.25, "k": 3}},
         {"center_bayes": {"period": 1}}, {"aux": {"family": 2, "r": 0}},
         {"threshold_table_text": "*\tt=0;-\t1/2\t1\n*\tt=1;-\t1/4\t1/2\n"},
         ["myopic", "myopic", "myopic"],
         ["myopic", {"center_bayes": {"period": 1}}, "myopic"]),
        ({"sigma": {"eta": 0.25, "k": 2}}, {"center_bayes": {"period": -1}},
         {"aux": {"family": 3, "r": 0.5}}, {"threshold_table_text": "garbage"},
         {"aux": {"family": True, "r": True}}, ["myopic", "solve"], "bogus",
         5)),
    "delta": ((0.9, "9/10", 0.99, 0.5), (0, 1.5, "x", [1], True)),
    "horizon": ((0, 1, 2, 3, 5), (-1, "3", 2.5, "x", True)),
    "jobs": ((1, 4), ("x", True, 0, -3)),
}
MU = {"grid": ["0", "1/2", "1"], "mass_high": ["1/2", "1/4", "1/4"],
      "mass_low": ["1/4", "1/4", "1/2"]}
PARAMS = {
    "eps": ((0.2, 0.05), (0, 2, "x")),
    "m": ((0, 3, 40), (-1, "abc")),
    "q": ((0.9, 0.6), (0.5, 1, "x")),
    "n": ((3, 6), (1, "x")),
    "k": ((3, 4), (2, "x", True)),
    "eta": ((0.25, 0.5), (0, "x")),
    "agent": ((0, 2), (9, "x")),
    "stabilize": ((True, False), ("x", "false", 0)),
    "max_sweeps": ((1, 3), (0, "x", True)),
    "min_p_hat": ((0.0, 0.6), (1.5, "x")),
    "focal_agent": ((0, 2), (9, "x")),
    "target": ((0.9, 0.2), ("x",)),
    "sampler_delta": ((0.5, 0.9), (0, "x")),
    "adopt_probs": (([[0.75, 0.25], [0.6, 0.4]],), ([[1, 0]], "x", [[0.5]])),
    "mu": ((MU,), ({**MU, "grid": ["0", "1"]}, {"grid": []}, "x",
                   {**MU, "mass_high": [float("nan"), 0.5, 0.5]})),
}


def _chance(draw, twentieths):
    """True with chance twentieths / 20 (hypothesis draws small integers
    more often than others, so the choice is sampled from a list)."""
    return draw(st.sampled_from([True] * twentieths
                                + [False] * (20 - twentieths)))


def _value(draw, valid, invalid):
    return draw(st.sampled_from(valid if _chance(draw, 19) else invalid))


@st.composite
def configs(draw):
    kind = _value(draw, KINDS, ("nope", None))
    raw = {"kind": kind}
    for name, (valid, invalid) in FIELDS.items():
        if _chance(draw, 19):
            raw[name] = _value(draw, valid, invalid)
    if not _chance(draw, 19):
        raw["bogus"] = 1
    # Keep every run small: a few replications (auxmodel reads them as its
    # sample size and would draw 1000 without them), a stabilised horizon
    # of at most 5, and a ring of at most 6 agents for the relay protocol.
    raw["replications"] = _value(draw, (1, 5, 20), (1, 5, 20)
                                 if kind == "auxmodel" else (-1, "x", None, True))
    params = {"max_horizon": draw(st.integers(0, 5)),
              "n": _value(draw, *PARAMS["n"])}
    for name, values in PARAMS.items():
        if _chance(draw, 14):
            params[name] = _value(draw, *values)
    raw["params"] = params if _chance(draw, 19) else "x"
    return raw


def _strict(text):
    def refuse(token):
        raise ValueError(f"non-strict JSON token {token}")
    return json.loads(text, parse_constant=refuse)


# How the strict-JSON writer spells a non-finite float.
NON_FINITE_NAMES = {"NaN", "Infinity", "-Infinity"}


def _finite_json(value, where="results.json"):
    if isinstance(value, dict):
        for key, item in value.items():
            _finite_json(item, f"{where}.{key}")
    elif isinstance(value, list):
        for k, item in enumerate(value):
            _finite_json(item, f"{where}[{k}]")
    else:
        assert value not in NON_FINITE_NAMES, where
        assert not isinstance(value, float) or math.isfinite(value), where


def _assert_finite_artifacts(out):
    """No NaN or infinity in results.json, results.csv or plotdata.csv."""
    _finite_json(_strict((out / "results.json").read_text()))
    for name in ("results.csv", "plotdata.csv"):
        if not (out / name).exists():
            continue
        for row in csv.reader((out / name).read_text().splitlines()):
            for field in row:
                try:
                    number = float(field)
                except ValueError:
                    continue
                assert math.isfinite(number), (name, row)


def _starts_workers(raw):
    """Whether the config's own jobs value would start worker processes."""
    jobs = raw.get("jobs")
    return isinstance(jobs, int) and not isinstance(jobs, bool) and jobs > 1


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(configs(), st.booleans(), st.booleans())
def test_random_configs_keep_the_cli_contract(raw, verify, jobs_flag):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(raw))
        out = Path(tmp) / "out"
        argv = ["--config", str(path), "--out", str(out)]
        # Without the flag the config's own jobs value, valid or not, reaches
        # the config parser; the flag stays where it would start workers.
        if jobs_flag or _starts_workers(raw):
            argv += ["--jobs", "1"]
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
                mock.patch.dict(os.environ):
            os.environ.pop("SDL_JOBS", None)
            warnings.simplefilter("ignore")
            code = main(argv + ["--verify"] if verify else argv)
        lines = err.getvalue().splitlines()
        assert code in (0, 2, 3)
        if code == 2:
            assert len(lines) == 1 and lines[0].startswith("error: ")
            assert NAMES_A_FIELD.search(lines[0]), lines[0]
            return
        assert lines == []
        _assert_finite_artifacts(out)
        report = _strict((out / "results.json").read_text())
        manifest = _strict((out / "manifest.json").read_text())
        assert report["ok"] is manifest["ok"] is (code == 0)
        assert (out / "plotdata.csv").read_text().startswith("series,x,y,ci\n")
        if (out / "results.csv").exists():
            assert (out / "results.csv").read_text().startswith(
                "run_id,agent,p_hat,ci,utility,truncated_fraction\n")


BASE = {"kind": "simulate", "seed": 3, "network": {"line": {"n": 4}},
        "signal": {"binary": 0.75}, "strategy": "myopic", "delta": 0.9,
        "horizon": 3, "replications": 5}


def _exit_and_error(tmp_path, **fields):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**BASE, **fields}))
    # A jobs field is left for the config parser to read.
    flag = [] if "jobs" in fields else ["--jobs", "1"]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), mock.patch.dict(os.environ):
        os.environ.pop("SDL_JOBS", None)
        code = main(["--config", str(path), "--out", str(tmp_path / "out")]
                    + flag)
    return code, err.getvalue()


@pytest.mark.parametrize("fields, named", [
    ({"network": {"star": {}}}, "network.star.leaves"),
    ({"network": {"tree": {"d": 2}}}, "network.tree.depth"),
    ({"network": {"line": {"n": "x"}}}, "network.line.n"),
    ({"network": {"line": {"n": 4.5}}}, "network.line.n"),
    ({"network": {"line": 4}}, "network.line"),
    ({"strategy": {"sigma": {"eta": 0.1}}}, "strategy.sigma.k"),
    ({"strategy": {"sigma": {"eta": 0.1, "k": 3.7}}}, "strategy.sigma.k"),
    ({"strategy": {"sigma": {"eta": "x", "k": 3}}}, "strategy.sigma.eta"),
    ({"strategy": {"center_bayes": {"period": 1.5}}},
     "strategy.center_bayes.period"),
    ({"strategy": {"aux": {"family": 1}}}, "strategy.aux.r"),
    ({"horizon": 2.5}, "horizon"),
    ({"kind": "solve", "params": {"max_sweeps": 1.5}}, "params.max_sweeps"),
    ({"delta": "x"}, "error: delta: "),
    ({"signal": {"binary": "x"}}, "signal.binary: "),
    ({"signal": {"grid": {"n": 3.7}}}, "signal.grid.n: "),
    ({"signal": {"grid": {"n": "x"}}}, "signal.grid.n: "),
    ({"signal": {"grid": {"lo": "q"}}}, "signal.grid.lo: "),
    ({"signal": {"binary": 1.5}}, "signal.binary: binary accuracy q "),
    ({"signal": {"grid": {"n": 1}}}, "signal.grid: "),
    ({"network": {"line": {"n": 0}}}, "network.line: invalid size"),
    ({"network": {"edgelist": "0 x"}}, "network.edgelist: line 1: "),
    ({"strategy": {"sigma": {"eta": 0.25, "k": 2}}}, "strategy.sigma: "),
    ({"strategy": {"center_bayes": {"period": -1}}},
     "strategy.center_bayes: "),
    ({"strategy": {"aux": {"family": 3, "r": 0.5}}}, "strategy.aux: family"),
    ({"strategy": {"threshold_table_text": "garbage"}},
     "strategy.threshold_table_text: "),
    ({"strategy": ["myopic", {"sigma": {"eta": 0.25, "k": 2}}, "myopic",
                   "myopic"]}, "strategy: "),
    ({"kind": "auxmodel", "params": {"eps": 1.5}},
     "params.eps: error level eps"),
    ({"kind": "auxmodel", "replications": 1, "params": {"eps": 0.99}},
     "params.eps, replications: sampler produced no acceptable"),
    ({"kind": "verify-spontaneous", "params": {"q": "x"}}, "params.q: "),
    ({"kind": "verify-spontaneous", "params": {"q": 0.5}}, "params.q: "),
    ({"kind": "bounds", "params": {"eps": 0.1, "m": 0}}, "params: segment"),
    ({"kind": "protocol-sigma", "params": {"eta": 0.25, "n": 2, "k": 3}},
     "params: ring"),
    ({"horizon": True}, "error: horizon must be an integer, got True"),
    ({"replications": True},
     "error: replications must be an integer, got True"),
    ({"delta": True}, "error: delta: "),
    ({"strategy": {"aux": {"family": True, "r": True}}},
     "strategy.aux.family: must be an integer, got True"),
    ({"strategy": {"aux": {"family": 2, "r": True}}},
     "strategy.aux.r: cannot interpret bool"),
    ({"network": {"line": {"n": True}}}, "network.line.n: "),
    ({"network": {"line": {"n": 5, "ring": "false", "directed": "no"}}},
     "network.line.directed: must be true or false, got 'no'"),
    ({"network": {"line": {"n": 5, "ring": "false"}}},
     "network.line.ring: must be true or false, got 'false'"),
    ({"network": {"line": {"n": 5, "mark_infinite": 1}}},
     "network.line.mark_infinite: must be true or false, got 1"),
    ({"network": {"star": {"leaves": 3, "directed": "yes"}}},
     "network.star.directed: must be true or false"),
    ({"kind": "solve", "params": {"stabilize": "false"}},
     "params.stabilize: must be true or false, got 'false'"),
    ({"jobs": 0}, "error: jobs must be >= 1, got 0"),
    ({"jobs": -3}, "error: jobs must be >= 1, got -3"),
    ({"jobs": True}, "error: jobs must be an integer, got True"),
    ({"jobs": "x"}, "error: jobs"),
    ({"kind": "solve", "params": {"max_sweeps": 0}},
     "error: params.max_sweeps must be >= 1, got 0"),
])
def test_bad_config_fields_are_named(tmp_path, fields, named):
    code, err = _exit_and_error(tmp_path, **fields)
    assert code == 2
    assert err.startswith("error: ") and named in err, err


NAN, INF = float("nan"), float("inf")
BOUNDS = {"kind": "bounds", "params": {"eps": 0.1, "m": 3}}


# json.dumps writes these floats as the non-standard NaN, Infinity and
# -Infinity tokens, which the config reader must refuse.
@pytest.mark.parametrize("fields", [
    {"delta": NAN}, {"delta": INF}, {"delta": -INF},
    {**BOUNDS, "params": {**BOUNDS["params"], "target": NAN}},
    {**BOUNDS, "params": {**BOUNDS["params"], "target": INF}},
    {**BOUNDS, "params": {**BOUNDS["params"], "target": -INF}},
    {"kind": "auxmodel", "params": {"mu": {**MU, "mass_high": [NAN, 0.5, 0.5]}}},
    {**BOUNDS, "params": {**BOUNDS["params"], "adopt_probs": [[NAN, 0.5]]}},
    {**BOUNDS, "params": {**BOUNDS["params"], "adopt_probs": [[0.5, INF]]}},
    {**BOUNDS, "params": {**BOUNDS["params"], "adopt_probs": [[-INF, 0.5]]}},
], ids=["delta-NaN", "delta-Infinity", "delta--Infinity",
        "params.target-NaN", "params.target-Infinity",
        "params.target--Infinity", "params.mu-NaN", "adopt_probs-NaN",
        "adopt_probs-Infinity", "adopt_probs--Infinity"])
def test_non_finite_tokens_in_a_config_are_refused(tmp_path, fields):
    code, err = _exit_and_error(tmp_path, **fields)
    token = next(t for t in ("-Infinity", "Infinity", "NaN")
                 if t in (tmp_path / "cfg.json").read_text())
    assert code == 2
    assert err.splitlines() == [
        f"error: cannot read config: {token} is not a JSON number"]
    assert not (tmp_path / "out").exists()


def test_a_config_that_is_not_utf8_is_refused(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_bytes(b"\xff\xfe{")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert len(err.getvalue().splitlines()) == 1
    assert err.getvalue().startswith("error: cannot read config: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("jobs, flags, env", [
    (0, [], None), (-3, [], None), (None, ["--jobs", "0"], None),
    (2, ["--jobs", "-3"], None), (None, [], "0"),
])
def test_jobs_below_one_is_named(tmp_path, monkeypatch, jobs, flags, env):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(BASE if jobs is None else {**BASE, "jobs": jobs}))
    if env is None:
        monkeypatch.delenv("SDL_JOBS", raising=False)
    else:
        monkeypatch.setenv("SDL_JOBS", env)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["--config", str(path), "--out", str(tmp_path / "out")]
                    + flags)
    assert code == 2
    assert err.getvalue().startswith("error: jobs must be >= 1, got ")
    assert len(err.getvalue().splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_integral_floats_still_read_as_integers(tmp_path):
    code, err = _exit_and_error(
        tmp_path, network={"line": {"n": 4.0, "ring": True}},
        strategy={"sigma": {"eta": 0.25, "k": 3.0}})
    assert code == 0, err


def test_relay_protocol_on_a_star_names_the_network_it_needs(tmp_path):
    code, err = _exit_and_error(
        tmp_path, network={"star": {"leaves": 4, "directed": False}},
        strategy={"sigma": {"eta": 0.5, "k": 3}})
    assert code == 2
    assert "labeled line or ring" in err, err


@pytest.mark.parametrize("m", [84, 90, 200])
def test_bounds_past_the_overflow_write_only_finite_numbers(tmp_path, m):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"kind": "bounds", "seed": 1,
                                "params": {"eps": 0.2, "m": m}}))
    out = tmp_path / "out"
    with warnings.catch_warnings(), contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("ignore")
        assert main(["--config", str(path), "--out", str(out),
                     "--verify"]) == 0
    _assert_finite_artifacts(out)
    rows = (out / "plotdata.csv").read_text().splitlines()[1:]
    assert rows and len(rows) < 2 * (2 * m + 2) + 1  # overflowed rows left out
