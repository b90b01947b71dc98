"""End-to-end checks for the config-driven command line.

Everything runs in-process through run() / main(), which is the same
code path the console script uses.  Exit codes, artifact layout, hash
stability, and byte-level determinism are the contract under test.
"""

import json
import math
import sys
import warnings

import pytest

from netadopt.cli import ExperimentConfig, config_hash, main, run
from netadopt.signals import SignalModel

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=2))
    return path


def read_json(out_dir, name):
    with open(out_dir / name) as fh:
        return json.load(fh)


def spont_config(q=0.9, delta=0.99, seed=1):
    return {"kind": "verify-spontaneous", "seed": seed, "delta": delta,
            "params": {"q": q}}


def simulate_config(seed=11):
    return {
        "kind": "simulate",
        "seed": seed,
        "network": {"line": {"n": 3}},
        "signal": {"binary": 0.75},
        "strategy": "myopic",
        "delta": 0.9,
        "horizon": 5,
        "replications": 200,
    }


def test_verify_spontaneous_succeeds_with_artifacts(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", spont_config())
    out = tmp_path / "out"
    assert run(cfg, out=out) == 0
    report = read_json(out, "results.json")
    assert report["ok"] is True
    assert 0 < float(report["lr_period2"]) < 1e-8
    manifest = read_json(out, "manifest.json")
    assert set(manifest) == {"kind", "seed", "config_hash", "tool_version",
                             "wall_time_s", "ok"}
    assert manifest["kind"] == "verify-spontaneous"
    assert manifest["seed"] == 1
    assert manifest["ok"] is True
    # No per-agent rows for this kind, but plot data always exists.
    assert not (out / "results.csv").exists()
    assert (out / "plotdata.csv").read_text() == "series,x,y,ci\n"


def test_missing_seed_is_a_validation_failure(tmp_path, capsys):
    payload = spont_config()
    del payload["seed"]
    cfg = write_config(tmp_path, "cfg.json", payload)
    assert run(cfg, out=tmp_path / "out") == 2
    assert "seed" in capsys.readouterr().err


def test_non_integer_horizon_names_the_field(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json",
                       {**simulate_config(), "horizon": "x"})
    assert run(cfg, out=tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: horizon ") and "'x'" in err


def test_negative_seed_names_the_field(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", simulate_config(seed=-3))
    assert run(cfg, out=tmp_path / "out") == 2
    assert capsys.readouterr().err.startswith("error: seed must be >= 0")


def test_malformed_signal_atoms_name_the_field(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json",
                       {**simulate_config(), "signal": {"atoms": "x"}})
    assert run(cfg, out=tmp_path / "out") == 2
    assert capsys.readouterr().err.startswith("error: signal atoms ")


def test_unknown_kind_is_a_validation_failure(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", {"kind": "frobnicate", "seed": 1})
    assert run(cfg, out=tmp_path / "out") == 2
    assert "kind" in capsys.readouterr().err


def test_unknown_config_key_is_a_validation_failure(tmp_path):
    payload = spont_config()
    payload["replicatoins"] = 10
    cfg = write_config(tmp_path, "cfg.json", payload)
    assert run(cfg, out=tmp_path / "out") == 2


def test_unreadable_config_is_a_validation_failure(tmp_path, capsys):
    assert run(tmp_path / "missing.json", out=tmp_path / "out") == 2
    assert "cannot read config" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(bad, out=tmp_path / "out") == 2


def test_regime_error_is_a_validation_failure(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", spont_config(q=0.9, delta=0.9))
    assert run(cfg, out=tmp_path / "out") == 2
    assert "delta" in capsys.readouterr().err


def test_failed_threshold_check_exits_three(tmp_path):
    payload = {
        "kind": "protocol-sigma",
        "seed": 3,
        "signal": {"binary": 0.75},
        "replications": 40,
        "params": {"n": 14, "k": 3, "eta": 0.25, "min_p_hat": 1.1},
    }
    cfg = write_config(tmp_path, "cfg.json", payload)
    out = tmp_path / "out"
    assert run(cfg, out=out) == 3
    assert read_json(out, "results.json")["ok"] is False
    assert read_json(out, "manifest.json")["ok"] is False


def test_same_config_and_seed_give_byte_identical_outputs(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", simulate_config())
    out1 = tmp_path / "one"
    out2 = tmp_path / "two"
    assert run(cfg, out=out1) == 0
    assert run(cfg, out=out2) == 0
    for name in ("results.csv", "plotdata.csv", "results.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    lines = (out1 / "results.csv").read_text().splitlines()
    assert lines[0] == "run_id,agent,p_hat,ci,utility,truncated_fraction"
    assert len(lines) == 4


def test_different_seed_changes_results(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", simulate_config())
    out1 = tmp_path / "one"
    out2 = tmp_path / "two"
    assert run(cfg, out=out1) == 0
    assert run(cfg, out=out2, seed=12) == 0
    assert (out1 / "results.csv").read_bytes() != (out2 / "results.csv").read_bytes()


def test_config_hash_ignores_whitespace_and_key_order(tmp_path):
    payload = spont_config()
    compact = tmp_path / "compact.json"
    compact.write_text(json.dumps(payload, separators=(",", ":")))
    spaced = tmp_path / "spaced.json"
    spaced.write_text(json.dumps(
        {k: payload[k] for k in reversed(list(payload))}, indent=7))
    out1 = tmp_path / "one"
    out2 = tmp_path / "two"
    assert run(compact, out=out1) == 0
    assert run(spaced, out=out2) == 0
    hash1 = read_json(out1, "manifest.json")["config_hash"]
    hash2 = read_json(out2, "manifest.json")["config_hash"]
    assert hash1 == hash2
    assert hash1 == config_hash(payload)


def test_seed_override_changes_the_manifest_hash(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", spont_config())
    out1 = tmp_path / "one"
    out2 = tmp_path / "two"
    assert run(cfg, out=out1) == 0
    assert run(cfg, out=out2, seed=99) == 0
    man1 = read_json(out1, "manifest.json")
    man2 = read_json(out2, "manifest.json")
    assert man2["seed"] == 99
    assert man1["config_hash"] != man2["config_hash"]


def test_main_reads_flags_and_jobs_env(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, "cfg.json", simulate_config())
    base = tmp_path / "base"
    env = tmp_path / "env"
    monkeypatch.delenv("SDL_JOBS", raising=False)
    assert main(["--config", str(cfg), "--out", str(base)]) == 0
    monkeypatch.setenv("SDL_JOBS", "2")
    assert main(["--config", str(cfg), "--out", str(env)]) == 0
    # Worker count never changes the replication streams.
    assert (base / "results.csv").read_bytes() == (env / "results.csv").read_bytes()


def test_non_integer_jobs_env_is_a_validation_failure(tmp_path, monkeypatch,
                                                     capsys):
    cfg = write_config(tmp_path, "cfg.json", simulate_config())
    monkeypatch.setenv("SDL_JOBS", "abc")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "SDL_JOBS" in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_unexpected_errors_exit_two_on_one_line(tmp_path, monkeypatch, capsys):
    def broken(config, verify):
        raise RuntimeError("handler failed")

    import netadopt.cli as cli_module
    monkeypatch.setitem(cli_module._HANDLERS, "bounds", broken)
    cfg = write_config(tmp_path, "cfg.json",
                       {"kind": "bounds", "seed": 1,
                        "params": {"eps": 0.2, "m": 2}})
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o2")]) == 2
    err = capsys.readouterr().err
    assert err.strip() == "error: unexpected RuntimeError: handler failed"


def test_main_seed_flag_lands_in_manifest(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", simulate_config())
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "--seed", "9"]) == 0
    assert read_json(out, "manifest.json")["seed"] == 9


def test_bounds_kind_reports_recursion_and_plot_series(tmp_path):
    payload = {"kind": "bounds", "seed": 1,
               "params": {"eps": 0.25, "m": 100}}
    cfg = write_config(tmp_path, "cfg.json", payload)
    out = tmp_path / "out"
    assert run(cfg, out=out, verify=True) == 0
    report = read_json(out, "results.json")
    assert report["c_0"] == pytest.approx(83.99167563645376, rel=1e-12)
    assert report["chi"] is None
    assert report["verify"]["C_k_increasing"] is True
    series = {line.split(",")[0]
              for line in (out / "plotdata.csv").read_text().splitlines()[1:]}
    assert series == {"c_k", "C_k"}


def test_bounds_kind_writes_strict_json_past_the_overflow(tmp_path,
                                                          monkeypatch):
    shown = shown_warnings(monkeypatch)
    # The recursion table overflows to inf from m = 84.
    payload = {"kind": "bounds", "seed": 1, "params": {"eps": 0.2, "m": 200}}
    cfg = write_config(tmp_path, "cfg.json", payload)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("default")
        assert run(cfg, out=out) == 0

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    json.loads((out / "manifest.json").read_text(), parse_constant=reject)
    report = json.loads((out / "results.json").read_text(),
                        parse_constant=reject)
    # Overflowed entries are null, and one warning names the first of them.
    assert report["pbar_log_gap"] is None
    assert report["C_k"]["402"] is None
    assert math.isfinite(report["C_k"]["2"])
    assert report["ln_C_k"]["402"] > math.log(sys.float_info.max)
    assert report["warnings"] == shown == [
        "c_k and C_k overflow the float range from k = 169 and are written "
        "as null, as is pbar_log_gap; ln_C_k and ln_neg_pbar_log_gap carry "
        "them in log space"]
    # the log-space copies keep the values the overflow loses
    assert math.isfinite(report["ln_C_k"]["402"])
    assert report["ln_neg_pbar_log_gap"] >= report["ln_C_k"]["402"]


def test_bounds_kind_chi_violation_exits_three(tmp_path):
    payload = {"kind": "bounds", "seed": 1,
               "params": {"eps": 0.3, "m": 50,
                          "adopt_probs": [[0.5, 0.45]]}}
    cfg = write_config(tmp_path, "cfg.json", payload)
    out = tmp_path / "out"
    assert run(cfg, out=out) == 3
    report = read_json(out, "results.json")
    assert report["chi"]["violations"] == [[0.5, 0.45]]


def test_auxmodel_kind_verifies_value_identities(tmp_path):
    payload = {
        "kind": "auxmodel",
        "seed": 1,
        "signal": {"binary": 0.75},
        "params": {"mu": {"grid": ["0", "1"],
                          "mass_high": ["4/5", "1/5"],
                          "mass_low": ["1/5", "4/5"]},
                   "eps": 0.05},
    }
    cfg = write_config(tmp_path, "cfg.json", payload)
    out = tmp_path / "out"
    assert run(cfg, out=out, verify=True) == 0
    report = read_json(out, "results.json")
    assert report["u"] == pytest.approx(0.6)
    assert report["eta"] == pytest.approx(0.2)
    assert report["psi"] == pytest.approx(0.68)
    assert report["argmax"] == {"family": 2, "r": "0"}
    assert abs(report["verify"]["w_family2_r1_minus_u"]) <= 1e-12
    assert abs(report["verify"]["w_family1_r1"]) <= 1e-12


def test_auxmodel_kind_estimates_the_improvement_constant(tmp_path):
    payload = {"kind": "auxmodel", "seed": 4, "replications": 40,
               "signal": {"binary": 0.75}, "params": {"eps": 0.1}}
    cfg = write_config(tmp_path, "cfg.json", payload)
    out = tmp_path / "out"
    assert run(cfg, out=out) == 0
    report = read_json(out, "results.json")
    assert report["value"] > 1
    assert report["n_below_one"] == 0
    assert report["n_accepted"] + report["n_rejected"] == report["n_samples"]


def test_protocol_sigma_verify_replays_the_engine(tmp_path):
    payload = {
        "kind": "protocol-sigma",
        "seed": 5,
        "signal": {"binary": 0.75},
        "replications": 60,
        "params": {"n": 14, "k": 3, "eta": 0.25},
    }
    cfg = write_config(tmp_path, "cfg.json", payload)
    out = tmp_path / "out"
    assert run(cfg, out=out, verify=True) == 0
    report = read_json(out, "results.json")
    assert report["verify"]["engine_mismatches"] == 0
    assert report["agent"] == 7
    assert 0.0 <= report["p_hat"] <= 1.0
    lines = (out / "results.csv").read_text().splitlines()
    assert len(lines) == 15


def test_protocol_sigma_rejects_a_stride_below_three(tmp_path, capsys):
    payload = {
        "kind": "protocol-sigma",
        "seed": 5,
        "signal": {"binary": 0.75},
        "replications": 10,
        "params": {"n": 14, "k": 2, "eta": 0.25},
    }
    cfg = write_config(tmp_path, "cfg.json", payload)
    assert run(cfg, out=tmp_path / "out") == 2
    assert "k must be an int >= 3" in capsys.readouterr().err


def test_protocol_sigma_reads_a_fraction_string_accuracy(tmp_path):
    outputs = []
    for q in (0.75, "3/4"):
        payload = {"kind": "protocol-sigma", "seed": 5,
                   "signal": {"binary": q}, "replications": 10,
                   "params": {"n": 14, "k": 3, "eta": 0.25}}
        cfg = write_config(tmp_path, "cfg.json", payload)
        out = tmp_path / f"out{len(outputs)}"
        assert run(cfg, out=out, verify=True) == 0
        outputs.append([(out / name).read_bytes()
                        for name in ("results.json", "results.csv")])
    assert outputs[0] == outputs[1]


def test_solve_kind_reports_thresholds_without_rows(tmp_path):
    payload = {
        "kind": "solve",
        "seed": 1,
        "network": {"line": {"n": 2, "directed": True}},
        "signal": {"binary": 0.75},
        "delta": 0.9,
        "horizon": 6,
    }
    cfg = write_config(tmp_path, "cfg.json", payload)
    out = tmp_path / "out"
    assert run(cfg, out=out) == 0
    report = read_json(out, "results.json")
    assert report["converged"] is True
    assert set(report["thresholds"]) == {"0", "1"}
    assert report["checks"]["threshold_form_ok"] is True
    assert not (out / "results.csv").exists()
    assert (out / "plotdata.csv").read_text() == "series,x,y,ci\n"


def test_simulate_with_solved_profile_attaches_checks(tmp_path):
    payload = simulate_config(seed=2)
    payload["network"] = {"line": {"n": 2, "directed": True}}
    payload["strategy"] = "solve"
    cfg = write_config(tmp_path, "cfg.json", payload)
    out = tmp_path / "out"
    assert run(cfg, out=out) == 0
    report = read_json(out, "results.json")
    assert report["solve"]["checks"]["threshold_form_ok"] is True
    assert len(report["p_hat"]) == 2


def test_simulate_verify_runs_structure_checks(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", simulate_config(seed=8))
    out = tmp_path / "out"
    assert run(cfg, out=out, verify=True) == 0
    report = read_json(out, "results.json")
    assert report["verify"]["threshold_form_ok"] is True
    assert report["verify"]["no_spontaneous_ok"] in (True, None)


def test_simulate_verify_has_no_agent_cap(tmp_path):
    payload = simulate_config(seed=8)
    payload["network"] = {"line": {"n": 9}}
    payload["replications"] = 20
    cfg = write_config(tmp_path, "cfg.json", payload)
    out = tmp_path / "out"
    assert run(cfg, out=out, verify=True) == 0
    checks = read_json(out, "results.json")["verify"]
    assert checks["threshold_form_ok"] and checks["state_monotone_ok"]
    assert checks["no_spontaneous_ok"] is True
    assert checks["scenario_count"] > 0


def test_simulate_verify_skips_over_the_scenario_budget(tmp_path, monkeypatch):
    from netadopt import cli
    from netadopt.solver import ScenarioBudgetError

    def over_budget(*args):
        raise ScenarioBudgetError("262144 live states at period 1 exceed "
                                  "the 200000 scenario budget")

    monkeypatch.setattr(cli, "verify_structure", over_budget)
    cfg = write_config(tmp_path, "cfg.json", simulate_config(seed=8))
    out = tmp_path / "out"
    assert run(cfg, out=out, verify=True) == 0
    report = read_json(out, "results.json")
    assert report["verify"] == ("skipped: 262144 live states at period 1 "
                                "exceed the 200000 scenario budget")
    assert report["ok"] is True


@pytest.mark.parametrize("kind", ["solve", "simulate"])
def test_a_solve_over_the_scenario_budget_names_its_fields(tmp_path, capsys,
                                                          monkeypatch, kind):
    from netadopt import cli
    from netadopt.solver import ScenarioBudgetError

    def over_budget(*args):
        raise ScenarioBudgetError("262144 live states at period 1 exceed "
                                  "the 200000 scenario budget")

    monkeypatch.setattr(cli, "solve_equilibrium", over_budget)
    payload = simulate_config(seed=8)
    payload.update(kind=kind, strategy="solve")
    if kind == "solve":
        del payload["strategy"], payload["replications"]
    cfg = write_config(tmp_path, "cfg.json", payload)
    assert run(cfg, out=tmp_path / "out") == 2
    assert ("error: network, horizon: 262144 live states at period 1 exceed "
            "the 200000 scenario budget") in capsys.readouterr().err


def test_strategy_list_must_match_agent_count(tmp_path, capsys):
    payload = simulate_config()
    payload["strategy"] = ["myopic", "myopic"]
    cfg = write_config(tmp_path, "cfg.json", payload)
    assert run(cfg, out=tmp_path / "out") == 2
    assert "strategy list" in capsys.readouterr().err


def test_outsider_kind_reports_a_posterior(tmp_path):
    payload = {
        "kind": "outsider",
        "seed": 6,
        "network": {"line": {"n": 4}},
        "signal": {"binary": 0.75},
        "horizon": 3,
    }
    cfg = write_config(tmp_path, "cfg.json", payload)
    out = tmp_path / "out"
    assert run(cfg, out=out) == 0
    report = read_json(out, "results.json")
    assert report["state"] in ("H", "L")
    assert 0.0 <= report["posterior"] <= 1.0
    assert len(report["times"]) == 4


def test_outsider_kind_on_a_large_star_exits_cleanly(tmp_path):
    # Thousands of holdouts push the log-odds far past exp's float range.
    payload = {
        "kind": "outsider",
        "seed": 2,
        "network": {"star": {"leaves": 3000}},
        "signal": {"binary": 0.75},
        "horizon": 0,
    }
    cfg = write_config(tmp_path, "cfg.json", payload)
    out = tmp_path / "out"
    assert run(cfg, out=out) == 0
    report = read_json(out, "results.json")
    assert 0.0 <= report["posterior"] <= 1.0


def test_simulate_accepts_fraction_string_delta(tmp_path):
    payload = simulate_config()
    payload["delta"] = "9/10"
    cfg = write_config(tmp_path, "cfg.json", payload)
    out = tmp_path / "out"
    assert run(cfg, out=out) == 0
    assert read_json(out, "results.json")["delta"] == 0.9


def test_simulate_rejects_out_of_range_focal_agent(tmp_path, capsys):
    payload = simulate_config()
    payload["params"] = {"min_p_hat": 0.5, "focal_agent": 7}
    cfg = write_config(tmp_path, "cfg.json", payload)
    assert run(cfg, out=tmp_path / "out") == 2
    assert "focal_agent" in capsys.readouterr().err


def test_solve_rejects_max_horizon_below_horizon(tmp_path, capsys):
    payload = {"kind": "solve", "seed": 1, "network": {"line": {"n": 3}},
               "signal": {"binary": 0.75}, "delta": "9/10", "horizon": 5,
               "params": {"max_horizon": 3}}
    cfg = write_config(tmp_path, "cfg.json", payload)
    assert run(cfg, out=tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "unexpected" not in err
    assert "max_horizon (3)" in err and "horizon (5)" in err


@pytest.mark.parametrize("params, field", [
    # A 400-digit eps overflows float().
    ({"m": 2, "eps": 10 ** 400}, "params.eps"),
    ({"m": "abc", "eps": 0.2}, "params.m"),
])
def test_bad_numeric_param_names_its_field(tmp_path, capsys, params, field):
    cfg = write_config(tmp_path, "cfg.json",
                       {"kind": "bounds", "seed": 1, "params": params})
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "unexpected" not in err and "Traceback" not in err
    assert err.startswith(f"error: {field}: ")


AUX_MU = {"grid": ["0", "1"], "mass_high": ["4/5", "1/5"],
          "mass_low": ["1/5", "4/5"]}


@pytest.mark.parametrize("params, field, message", [
    ({"eps": 0.1, "sampler_delta": 1.5}, "params.sampler_delta",
     "discount must lie strictly between 0 and 1"),
    ({"mu": AUX_MU, "eps": "x"}, "params.eps", "'x'"),
    ({"mu": {**AUX_MU, "mass_low": ["1"]}}, "params.mu",
     "mass vectors must match the grid length"),
])
def test_bad_auxmodel_param_names_its_field(tmp_path, capsys, params, field,
                                            message):
    cfg = write_config(tmp_path, "cfg.json", {"kind": "auxmodel", "seed": 1,
                                              "replications": 5,
                                              "params": params})
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith(f"error: {field}: ") and message in err


@pytest.mark.parametrize("payload", [
    {"kind": "auxmodel", "seed": 1, "params": {"eps": 0.1}},
    simulate_config(),
    {"kind": "protocol-sigma", "seed": 5, "signal": {"binary": 0.75},
     "params": {"n": 14, "k": 3, "eta": 0.25}},
], ids=lambda payload: payload["kind"])
def test_replications_below_one_names_the_field(tmp_path, capsys, payload):
    # Zero replications used to mean 1000 samples on auxmodel.
    cfg = write_config(tmp_path, "cfg.json", {**payload, "replications": 0})
    assert run(cfg, out=tmp_path / "out") == 2
    assert capsys.readouterr().err.startswith(
        "error: replications must be >= 1, got 0")


def test_config_rejects_non_object_payload(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2, 3]")
    assert run(cfg, out=tmp_path / "out") == 2


def test_experiment_config_round_trips_fields():
    config = ExperimentConfig.from_dict(simulate_config())
    assert config.kind == "simulate"
    assert config.seed == 11
    assert config.jobs == 1
    assert config.params == {}
    config.require("network", "signal")
    with pytest.raises(ValueError, match="params.missing"):
        config.param("missing", required=True)


def test_config_hash_is_sha256_of_canonical_json():
    payload = {"kind": "bounds", "seed": 1, "params": {"eps": 0.25, "m": 2}}
    digest = config_hash(payload)
    assert len(digest) == 64
    assert digest == config_hash(dict(reversed(list(payload.items()))))
    assert digest != config_hash({**payload, "seed": 2})



def aux_roots_config():
    # Agents 0, 1 and 2 each copy their two children with the same cutoff;
    # r = 0.3 lies between the grid points 1 - 0.9**3 and 1 - 0.9**4.
    aux = {"aux": {"family": 2, "r": 0.3}}
    return {"kind": "simulate", "seed": 5,
            "network": {"tree": {"d": 2, "depth": 2}},
            "signal": {"binary": 0.75},
            "strategy": [aux, aux, aux] + ["myopic"] * 4,
            "delta": 0.9, "horizon": 4, "replications": 20}


def shown_warnings(monkeypatch):
    """Messages passed to warnings.showwarning, which prints to stderr."""
    shown = []
    monkeypatch.setattr(warnings, "showwarning",
                        lambda message, *args, **kwargs: shown.append(str(message)))
    return shown


def test_an_off_grid_aux_cutoff_is_listed_once_in_results_json(tmp_path,
                                                               monkeypatch):
    shown = shown_warnings(monkeypatch)
    cfg = write_config(tmp_path, "cfg.json", aux_roots_config())
    message = "cutoff 0.3 is off the geometric grid; snapped down to 1 - delta**3"
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        assert run(cfg, out=tmp_path / "out") == 0
    assert read_json(tmp_path / "out", "results.json")["warnings"] == [message]
    # Each warning is still shown as it was raised.
    assert shown == [message] * 3
    # The CSV files do not depend on whether warnings are shown.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert run(cfg, out=tmp_path / "quiet") == 0
    assert read_json(tmp_path / "quiet", "results.json")["warnings"] == []
    for name in ("results.csv", "plotdata.csv"):
        assert (tmp_path / "out" / name).read_bytes() \
            == (tmp_path / "quiet" / name).read_bytes()


def test_clamped_log_ratios_are_listed_in_order(tmp_path, monkeypatch):
    shown = shown_warnings(monkeypatch)
    # Period-0 adoption with probability 1 under H: every agent that holds
    # out has zero likelihood under H, so the outsider's log-ratio is
    # clamped once per such agent.
    monkeypatch.setattr(SignalModel, "indicator_probs",
                        lambda self, threshold=None: (1.0, 0.5))
    payload = {"kind": "outsider", "seed": 1,
               "network": {"line": {"n": 6}}, "signal": {"binary": 0.75},
               "horizon": 0}
    cfg = write_config(tmp_path, "cfg.json", payload)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("default")
        assert run(cfg, out=out) == 0
    report = read_json(out, "results.json")
    holdouts = [i for i, t in enumerate(report["times"]) if t != 0]
    assert len(holdouts) >= 2
    expected = [f"agent {i}: zero likelihood under H; log-ratio clamped"
                for i in holdouts]
    assert report["warnings"] == shown == expected


def test_report_key_orders_are_pinned(tmp_path):
    """Reports are built from their dataclasses, so a reordered field would
    reorder results.json; these orders are the artifacts' bytes."""
    def report(name, payload):
        out = tmp_path / name
        assert run(write_config(tmp_path, f"{name}.json", payload), out=out) == 0
        return read_json(out, "results.json")

    solved = report("solve", {"kind": "solve", "seed": 1,
                              "network": {"line": {"n": 2, "directed": True}},
                              "signal": {"binary": 0.75}, "delta": 0.9,
                              "horizon": 2})
    assert list(solved) == ["converged", "sweeps", "residual", "cycle_length",
                            "horizon_used", "horizon_stabilized", "mixed",
                            "checks", "thresholds", "ok", "warnings"]
    assert list(solved["checks"]) == ["threshold_form_ok", "state_monotone_ok",
                                      "no_spontaneous_ok", "violations",
                                      "scenario_count"]
    estimated = report("aux", {"kind": "auxmodel", "seed": 4, "replications": 40,
                               "signal": {"binary": 0.75}, "params": {"eps": 0.1}})
    assert list(estimated) == ["eps", "value", "n_samples", "n_accepted",
                               "n_rejected", "n_below_one",
                               "descent_improvement", "minimizer", "argmax",
                               "ok", "warnings"]
    assert list(estimated["argmax"]) == ["family", "r"]
    assert isinstance(estimated["argmax"]["r"], str)
    bounded = report("bounds", {"kind": "bounds", "seed": 1,
                                "params": {"eps": 0.2, "m": 2,
                                           "adopt_probs": [[0.75, 0.25]]}})
    assert list(bounded["chi"]) == ["applicable", "mean_high", "mean_low", "rho",
                                    "rho_prime", "m_min", "violations"]
