"""Configuration-driven command line for reproducible experiment runs.

A run reads one JSON config, executes the named experiment kind, and
writes artifacts into the output directory: results.json (the report),
results.csv (per-agent rows for kinds that produce them), plotdata.csv
(tidy series for external plotting), and manifest.json (config hash,
tool version, wall time).  The same config and seed give byte-identical
CSV files; the manifest hash depends only on the parsed config value,
never on whitespace.

Exit codes: 0 success, 2 validation failure (unreadable or invalid
config, missing seed, parameter regime errors) or an unexpected error,
3 assertion failure (a verified bound or replay check does not hold).
Errors are reported on one stderr line, never as a traceback.  The JSON
artifacts are strict JSON: non-finite floats are written as the strings
"NaN", "Infinity" and "-Infinity".
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from importlib import metadata
from pathlib import Path

import numpy as np

from .auxmodel import (
    Mu,
    RootStrategySpec,
    default_sampler,
    estimate_C_eps,
    eta_of_mu,
    psi,
    u_of_mu,
    w_mu,
)
from .bounds import bound_report
from .common import RegimeError, as_fraction, is_never
from .engine import estimate, outsider_posterior, run_profile, sigma_ring_estimate
from .networks import network_from_spec
from .signals import signal_model_from_spec
from .solver import SolveConfig, solve_equilibrium, verify_spontaneous_example
from .strategies import strategy_from_spec

KINDS = ("simulate", "solve", "verify-spontaneous", "bounds", "auxmodel",
         "protocol-sigma", "outsider")

_CONFIG_KEYS = {"kind", "seed", "network", "signal", "strategy", "delta",
                "horizon", "replications", "jobs", "out", "params"}

_CSV_FIELDS = ("run_id", "agent", "p_hat", "ci", "utility",
               "truncated_fraction")
_PLOT_FIELDS = ("series", "x", "y", "ci")


def _tool_version() -> str:
    try:
        return metadata.version("netadopt")
    except metadata.PackageNotFoundError:
        return "unpackaged"


class ConfigError(ValueError):
    """The config file is missing, malformed, or semantically invalid."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description loaded from one JSON file."""

    kind: str
    seed: int
    network: dict | None = None
    signal: dict | None = None
    strategy: object = None
    delta: object = None
    horizon: int | None = None
    replications: int | None = None
    jobs: int = 1
    out: str | None = None
    params: dict = None

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(raw) - _CONFIG_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        kind = raw.get("kind")
        if kind not in KINDS:
            raise ConfigError(
                f"experiment kind must be one of {list(KINDS)}, got {kind!r}")
        if "seed" not in raw or raw["seed"] is None:
            raise ConfigError("config must set a seed")
        try:
            seed = int(raw["seed"])
        except (TypeError, ValueError):
            raise ConfigError(f"seed must be an integer, got {raw['seed']!r}")
        params = raw.get("params") or {}
        if not isinstance(params, dict):
            raise ConfigError("params must be a JSON object")
        horizon = raw.get("horizon")
        replications = raw.get("replications")
        return cls(
            kind=kind,
            seed=seed,
            network=raw.get("network"),
            signal=raw.get("signal"),
            strategy=raw.get("strategy"),
            delta=raw.get("delta"),
            horizon=None if horizon is None else int(horizon),
            replications=None if replications is None else int(replications),
            jobs=int(raw.get("jobs", 1)),
            out=raw.get("out"),
            params=params,
        )

    def require(self, *fields):
        for name in fields:
            if getattr(self, name) in (None, {}):
                raise ConfigError(f"{self.kind} needs config field {name!r}")

    def param(self, name, default=None, required=False):
        if required and name not in self.params:
            raise ConfigError(f"{self.kind} needs params.{name}")
        return self.params.get(name, default)


def config_hash(raw: dict) -> str:
    """Hash of the parsed config value; whitespace never matters."""
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _fmt(value) -> str:
    if value is None or value == "":
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Path, fieldnames, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([_fmt(row.get(name)) for name in fieldnames])


def emit_plotdata(rows, path) -> None:
    """Write tidy (series, x, y, ci) rows; empty input still gets a header."""
    _write_csv(Path(path), _PLOT_FIELDS, rows)


@dataclass
class _Outcome:
    report: dict
    ok: bool = True
    csv_rows: list = None
    plot_rows: list = None


def _solve_config(config: ExperimentConfig, stabilize_default=True) -> SolveConfig:
    return SolveConfig(
        delta=as_fraction(config.delta),
        horizon=config.horizon,
        max_agents=int(config.param("max_agents", 12)),
        max_sweeps=int(config.param("max_sweeps", 40)),
        raise_horizon=bool(config.param("stabilize", stabilize_default)),
        max_horizon=int(config.param("max_horizon", 24)),
    )


def _build_profile(config: ExperimentConfig, network, model):
    spec = config.strategy
    if isinstance(spec, list):
        if len(spec) != network.n:
            raise ConfigError(
                f"strategy list has {len(spec)} entries for {network.n} agents")
        return {i: strategy_from_spec(s, model, config.delta)
                for i, s in enumerate(spec)}
    return strategy_from_spec(spec, model, config.delta)


def _checks_dict(checks) -> dict | None:
    if checks is None:
        return None
    return {
        "threshold_form_ok": checks.threshold_form_ok,
        "state_monotone_ok": checks.state_monotone_ok,
        "no_spontaneous_ok": checks.no_spontaneous_ok,
        "violations": [str(v) for v in checks.violations],
        "scenario_count": checks.scenario_count,
    }


def _run_simulate(config: ExperimentConfig, verify: bool) -> _Outcome:
    config.require("network", "signal", "strategy", "delta", "horizon",
                   "replications")
    network = network_from_spec(config.network)
    model = signal_model_from_spec(config.signal)
    min_p = config.param("min_p_hat")
    if min_p is not None:
        focal = int(config.param("focal_agent", 0))
        if not 0 <= focal < network.n:
            raise ConfigError(f"params.focal_agent must be in 0..{network.n - 1}"
                              f", got {focal}")
    solve_report = None
    if config.strategy == "solve":
        solve_report = solve_equilibrium(network, model, _solve_config(config))
        if not solve_report.converged:
            return _Outcome(
                report={"error": "equilibrium iteration did not converge",
                        "sweeps": solve_report.sweeps,
                        "cycle_length": solve_report.cycle_length},
                ok=False)
        profile = solve_report.profile
    else:
        profile = _build_profile(config, network, model)
    est = estimate(network, model, profile, config.horizon, config.delta,
                   config.replications, config.seed, jobs=config.jobs)
    rows = list(est.rows())
    plot = [{"series": "p_hat", "x": r["agent"], "y": r["p_hat"],
             "ci": r["ci"]} for r in rows]
    plot += [{"series": "utility", "x": r["agent"], "y": r["utility"],
              "ci": ""} for r in rows]
    report = {
        "n_agents": est.n_agents, "n_reps": est.n_reps, "seed": est.seed,
        "delta": est.delta, "horizon": est.horizon,
        "p_hat": list(est.p_hat), "ci": list(est.ci),
        "utility": list(est.utility),
        "truncated_fraction": est.truncated_fraction,
        "quiescent_fraction": est.quiescent_fraction,
    }
    ok = True
    if solve_report is not None:
        report["solve"] = {"sweeps": solve_report.sweeps,
                           "horizon_used": solve_report.horizon_used,
                           "checks": _checks_dict(solve_report.checks)}
        if solve_report.checks is not None and not solve_report.checks.ok:
            ok = False
    if min_p is not None:
        report["min_p_hat"] = float(min_p)
        report["focal_agent"] = focal
        if est.p_hat[focal] < float(min_p):
            ok = False
    if verify and solve_report is None:
        from .solver import verify_structure
        from .strategies import ThresholdRule
        prof = profile if isinstance(profile, dict) else \
            {i: profile for i in network.agents}
        if network.n <= 8 and all(isinstance(s, ThresholdRule)
                                  for s in prof.values()):
            checks = verify_structure(network, model, prof,
                                      _solve_config(config))
            report["verify"] = _checks_dict(checks)
            ok = ok and checks.ok
        else:
            report["verify"] = "skipped: needs <= 8 agents and threshold rules"
    return _Outcome(report=report, ok=ok, csv_rows=rows, plot_rows=plot)


def _run_solve(config: ExperimentConfig, verify: bool) -> _Outcome:
    config.require("network", "signal", "delta", "horizon")
    network = network_from_spec(config.network)
    model = signal_model_from_spec(config.signal)
    result = solve_equilibrium(network, model, _solve_config(config))
    report = {
        "converged": result.converged,
        "sweeps": result.sweeps,
        "residual": result.residual,
        "cycle_length": result.cycle_length,
        "horizon_used": result.horizon_used,
        "horizon_stabilized": result.horizon_stabilized,
        "mixed": result.mixed,
        "checks": _checks_dict(result.checks),
        "thresholds": {str(i): rule.to_text()
                       for i, rule in sorted(result.profile.items())}
        if result.converged else None,
    }
    ok = result.converged and (result.checks is None or result.checks.ok)
    return _Outcome(report=report, ok=ok)


def _run_verify_spontaneous(config: ExperimentConfig, verify: bool) -> _Outcome:
    config.require("delta")
    q = config.param("q", required=True)
    result = verify_spontaneous_example(as_fraction(q), as_fraction(config.delta))
    return _Outcome(report=result.as_json_dict(), ok=result.ok)


def _run_bounds(config: ExperimentConfig, verify: bool) -> _Outcome:
    eps = float(config.param("eps", required=True))
    m = int(config.param("m", required=True))
    adopt_probs = config.param("adopt_probs")
    if adopt_probs is not None:
        adopt_probs = [(float(p), float(r)) for p, r in adopt_probs]
    report = bound_report(eps, m, adopt_probs=adopt_probs,
                          target=float(config.param("target", 0.9)))
    plot = [{"series": "c_k", "x": int(k), "y": v, "ci": ""}
            for k, v in sorted(report["c_k"].items(), key=lambda kv: int(kv[0]))]
    plot += [{"series": "C_k", "x": int(k), "y": v, "ci": ""}
             for k, v in sorted(report["C_k"].items(), key=lambda kv: int(kv[0]))]
    ok = True
    chi = report.get("chi")
    if chi is not None and (not chi["applicable"] or chi["violations"]):
        ok = False
    if verify:
        values = [v for _, v in sorted(report["C_k"].items(),
                                       key=lambda kv: int(kv[0]))]
        # The table overflows to inf for very deep recursions; the bound
        # stays valid there, so only the finite prefix must be strict.
        report["verify"] = {"C_k_increasing": all(
            a < b or math.isinf(a) for a, b in zip(values, values[1:]))}
        ok = ok and report["verify"]["C_k_increasing"]
    return _Outcome(report=report, ok=ok, plot_rows=plot)


def _run_auxmodel(config: ExperimentConfig, verify: bool) -> _Outcome:
    signal = config.signal or {"binary": 0.75}
    model = signal_model_from_spec(signal)
    mu_spec = config.param("mu")
    if mu_spec is not None:
        mu = Mu.from_json_dict(mu_spec)
        u = u_of_mu(mu)
        eta = eta_of_mu(mu)
        best = psi(mu, model)
        report = {
            "u": float(u),
            "eta": float(eta),
            "psi": float(best.value),
            "argmax": {"family": best.argmax.family,
                       "r": str(best.argmax.r)},
            "improvement": float(best.value - u),
        }
        ok = True
        eps = config.param("eps")
        if eps is not None and eta >= as_fraction(eps) and u > 0:
            report["eps"] = float(eps)
            ok = best.value > u
        if verify:
            w_u = w_mu(mu, model, RootStrategySpec(family=2, r=1))
            w_zero = w_mu(mu, model, RootStrategySpec(family=1, r=1))
            report["verify"] = {"w_family2_r1_minus_u": float(w_u - u),
                                "w_family1_r1": float(w_zero)}
            ok = ok and abs(float(w_u - u)) <= 1e-12 \
                and abs(float(w_zero)) <= 1e-12
        return _Outcome(report=report, ok=ok)
    eps = float(config.param("eps", required=True))
    n = config.replications or 1000
    sampler = default_sampler(delta=float(config.param("sampler_delta", 0.5)))
    result = estimate_C_eps(eps, model, sampler, n,
                            rng=np.random.default_rng(config.seed))
    report = {
        "eps": result.eps,
        "value": result.value,
        "n_samples": result.n_samples,
        "n_accepted": result.n_accepted,
        "n_rejected": result.n_rejected,
        "n_below_one": result.n_below_one,
        "descent_improvement": result.descent_improvement,
        "minimizer": result.minimizer.to_json_dict(),
        "argmax": {"family": result.argmax.family, "r": str(result.argmax.r)},
    }
    return _Outcome(report=report, ok=result.n_below_one == 0 and result.value > 1)


def _run_protocol_sigma(config: ExperimentConfig, verify: bool) -> _Outcome:
    config.require("signal", "replications")
    signal = config.signal
    if not (isinstance(signal, dict) and set(signal) == {"binary"}):
        raise ConfigError("protocol-sigma needs a binary signal spec")
    q = signal["binary"]
    n = int(config.param("n", 5000))
    k = int(config.param("k", 50))
    eta = float(config.param("eta", required=True))
    agent = config.param("agent")
    result = sigma_ring_estimate(n, k, eta, q, config.replications,
                                 config.seed,
                                 agent=None if agent is None else int(agent))
    rows = list(result.rows())
    plot = [{"series": "p_hat_by_agent", "x": r["agent"], "y": r["p_hat"],
             "ci": r["ci"]} for r in rows]
    report = {
        "n_agents": result.n_agents, "k": result.k, "eta": result.eta,
        "q": result.q, "n_reps": result.n_reps, "seed": result.seed,
        "agent": result.agent, "p_hat": result.p_hat, "ci": result.ci,
        "adopt_rate_high": result.adopt_rate_high,
        "adopt_rate_low": result.adopt_rate_low,
    }
    ok = True
    min_p = config.param("min_p_hat")
    if min_p is not None:
        report["min_p_hat"] = float(min_p)
        ok = result.p_hat >= float(min_p)
    if verify:
        from .networks import build_line
        from .strategies import ProtocolSigma
        from .engine import _replication_rng, sigma_ring_times
        from .signals import binary_model, sample_atoms
        from .common import STATE_HIGH, STATE_LOW
        vq = as_fraction(q)
        vmodel = binary_model(vq)
        vnet = build_line(14, ring=True)
        vprof = ProtocolSigma(eta=Fraction(1, 4), k=3)
        bits = np.array([1 if b >= Fraction(1, 2) else 0
                         for b in vmodel.beliefs])
        mismatches = 0
        for rep in range(25):
            rng = _replication_rng(config.seed, rep)
            trace = run_profile(vnet, vmodel, vprof, 25, rng)
            rng = _replication_rng(config.seed, rep)
            state = STATE_HIGH if rng.integers(0, 2) == 0 else STATE_LOW
            atoms = sample_atoms(vmodel, state, 14, rng)
            seeds = rng.random(14) < 0.25
            closed = sigma_ring_times(seeds, bits[atoms], 3)
            for a, b in zip(trace.times, closed):
                eng = np.inf if is_never(a) else float(a)
                if eng != b:
                    mismatches += 1
        report["verify"] = {"engine_mismatches": mismatches}
        ok = ok and mismatches == 0
    return _Outcome(report=report, ok=ok, csv_rows=rows, plot_rows=plot)


def _run_outsider(config: ExperimentConfig, verify: bool) -> _Outcome:
    config.require("network", "signal", "horizon")
    network = network_from_spec(config.network)
    model = signal_model_from_spec(config.signal)
    profile = _build_profile(config, network,
                             model) if config.strategy else None
    if profile is None:
        from .strategies import myopic_rule
        profile = myopic_rule(model)
    trace = run_profile(network, model, profile, config.horizon,
                        np.random.default_rng(config.seed))
    p_high, p_low = model.indicator_probs()
    pairs = [(p_high, p_low)] * network.n
    posterior = outsider_posterior(trace, pairs)
    report = {
        "state": trace.state,
        "posterior": posterior,
        "adopted_at_0": sum(1 for t in trace.times if t == 0),
        "times": [None if is_never(t) else t for t in trace.times],
    }
    ok = 0.0 <= posterior <= 1.0
    return _Outcome(report=report, ok=ok)


_HANDLERS = {
    "simulate": _run_simulate,
    "solve": _run_solve,
    "verify-spontaneous": _run_verify_spontaneous,
    "bounds": _run_bounds,
    "auxmodel": _run_auxmodel,
    "protocol-sigma": _run_protocol_sigma,
    "outsider": _run_outsider,
}


def run(config_path, *, seed=None, out=None, jobs=None, verify=False) -> int:
    """Execute one experiment config and write its artifacts.

    Returns the process exit status: 0 success, 2 validation failure or
    any other error (reported on one stderr line), 3 assertion failure.
    """
    started = time.monotonic()
    try:
        with open(config_path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    if isinstance(raw, dict):
        if seed is not None:
            raw["seed"] = int(seed)
        if jobs is not None:
            raw["jobs"] = int(jobs)
    try:
        config = ExperimentConfig.from_dict(raw)
        out_dir = Path(out or config.out or "out")
        out_dir.mkdir(parents=True, exist_ok=True)
        outcome = _HANDLERS[config.kind](config, verify)
        outcome.report["ok"] = outcome.ok
        _write_artifacts(out_dir, config, raw, outcome, started)
    except (ConfigError, RegimeError, ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # the CLI reports one line, never a traceback
        print(f"error: unexpected {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0 if outcome.ok else 3


def _strict_json_value(value):
    """value with every non-finite float replaced by its string name.

    Strict JSON has no NaN or infinity; they are written as the strings
    "NaN", "Infinity" and "-Infinity", which float() reads back.
    """
    if isinstance(value, float) and not math.isfinite(value):
        if math.isnan(value):
            return "NaN"
        return "Infinity" if value > 0 else "-Infinity"
    if isinstance(value, dict):
        return {k: _strict_json_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict_json_value(v) for v in value]
    return value


def _write_json(path: Path, value) -> None:
    with open(path, "w") as fh:
        json.dump(_strict_json_value(value), fh, indent=2, default=str,
                  allow_nan=False)
        fh.write("\n")


def _write_artifacts(out_dir: Path, config: ExperimentConfig, raw: dict,
                     outcome: _Outcome, started: float) -> None:
    _write_json(out_dir / "results.json", outcome.report)
    if outcome.csv_rows is not None:
        _write_csv(out_dir / "results.csv", _CSV_FIELDS, outcome.csv_rows)
    emit_plotdata(outcome.plot_rows or [], out_dir / "plotdata.csv")
    _write_json(out_dir / "manifest.json", {
        "kind": config.kind,
        "seed": config.seed,
        "config_hash": config_hash(raw),
        "tool_version": _tool_version(),
        "wall_time_s": round(time.monotonic() - started, 3),
        "ok": outcome.ok,
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="netadopt",
        description="Run one experiment config and write results, plot "
                    "data, and a manifest.")
    parser.add_argument("--config", required=True, help="path to a JSON config")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes (falls back to $SDL_JOBS)")
    parser.add_argument("--verify", action="store_true",
                        help="run the kind's invariant suite as well")
    args = parser.parse_args(argv)
    jobs = args.jobs
    env = os.environ.get("SDL_JOBS")
    if jobs is None and env:
        try:
            jobs = int(env)
        except ValueError:
            print(f"error: SDL_JOBS must be an integer, got {env!r}",
                  file=sys.stderr)
            return 2
    return run(args.config, seed=args.seed, out=args.out, jobs=jobs,
               verify=args.verify)


if __name__ == "__main__":
    sys.exit(main())
