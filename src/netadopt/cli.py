"""Configuration-driven command line for reproducible experiment runs.

A run reads one JSON config, executes the named experiment kind, and
writes artifacts into the output directory: results.json (the report),
results.csv (per-agent rows for kinds that produce them), plotdata.csv
(tidy series for external plotting), and manifest.json (config hash,
tool version, wall time).  The same config and seed give byte-identical
CSV files; the manifest hash depends only on the parsed config value,
never on whitespace.  Warnings still go to stderr, and results.json
lists their messages under "warnings", each once, in first-seen order.

Exit codes: 0 success, 2 validation failure (unreadable or invalid
config, missing seed, parameter regime errors) or an unexpected error,
3 assertion failure (a verified bound or replay check does not hold).
Errors are reported on one stderr line that names the config field or
file at fault, never as a traceback.  The JSON artifacts are strict
JSON: non-finite floats are written as the strings "NaN", "Infinity"
and "-Infinity".
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
import warnings
from contextlib import contextmanager
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
from .common import (STATE_HIGH, STATE_LOW, RegimeError, as_fraction, as_int,
                     is_never, spec_value)
from .engine import (_replication_rng, estimate, outsider_posterior, run_profile,
                     sigma_ring_estimate, sigma_ring_times)
from .networks import build_line, network_from_spec
from .signals import binary_model, sample_atoms, signal_model_from_spec
from .solver import (ScenarioBudgetError, SolveConfig, solve_equilibrium,
                     verify_spontaneous_example, verify_structure)
from .strategies import (ProtocolSigma, ThresholdRule, myopic_rule,
                         strategy_from_spec)

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
        params = raw.get("params") or {}
        if not isinstance(params, dict):
            raise ConfigError("params must be a JSON object")
        jobs = _int_field(raw, "jobs")
        spec_value(raw, "delta", "", as_fraction, None)  # checked, kept as is
        return cls(
            kind=kind,
            seed=_int_field(raw, "seed", minimum=0),
            network=raw.get("network"),
            signal=raw.get("signal"),
            strategy=raw.get("strategy"),
            delta=raw.get("delta"),
            horizon=_int_field(raw, "horizon", minimum=0),
            replications=_int_field(raw, "replications", minimum=1),
            jobs=1 if jobs is None else jobs,
            out=raw.get("out"),
            params=params,
        )

    def require(self, *fields):
        for name in fields:
            if getattr(self, name) in (None, {}):
                raise ConfigError(f"{self.kind} needs config field {name!r}")

    def param(self, name, default=None, required=False, convert=None):
        """params[name] or default, through convert unless None; a value
        convert rejects is a ConfigError naming the field."""
        if required and name not in self.params:
            raise ConfigError(f"{self.kind} needs params.{name}")
        value = self.params.get(name, default)
        try:
            return value if convert is None or value is None else convert(value)
        except (ValueError, TypeError, OverflowError) as exc:
            raise ConfigError(f"params.{name}: {exc}") from None


@contextmanager
def _section(name: str, spec=None):
    """Report a ValueError or TypeError raised inside as a ConfigError
    that names the config field: name, or name.kind for a one-key spec,
    unless the message already starts with name."""
    try:
        yield
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        message = str(exc)
        if not message.startswith(name):
            if isinstance(spec, dict) and len(spec) == 1:
                name = f"{name}.{next(iter(spec))}"
            message = f"{name}: {message}"
        raise ConfigError(message) from None


def _network(spec):
    with _section("network", spec):
        return network_from_spec(spec)


def _signal_model(spec):
    with _section("signal", spec):
        return signal_model_from_spec(spec)


def _int_field(raw: dict, name: str, minimum: int | None = None):
    """raw[name] as an int (None when absent); a value that does not
    convert, or lies below minimum, is a ConfigError naming the field."""
    value = raw.get(name)
    if value is None:
        return None
    try:
        value = as_int(value)
    except ValueError:
        raise ConfigError(f"{name} must be an integer, got {raw[name]!r}") from None
    if minimum is not None and value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")
    return value


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
        max_sweeps=config.param("max_sweeps", 40, convert=as_int),
        raise_horizon=bool(config.param("stabilize", stabilize_default)),
        max_horizon=config.param("max_horizon", 24, convert=as_int),
    )


def _build_profile(config: ExperimentConfig, network, model):
    spec = config.strategy
    if isinstance(spec, list):
        if len(spec) != network.n:
            raise ConfigError(
                f"strategy list has {len(spec)} entries for {network.n} agents")
        with _section("strategy"):
            return {i: strategy_from_spec(s, model, config.delta)
                    for i, s in enumerate(spec)}
    with _section("strategy", spec):
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


def _solve(network, model, config: ExperimentConfig):
    """solve_equilibrium, reporting a scenario budget overrun as a
    ConfigError that names the fields setting how many runs are live."""
    try:
        return solve_equilibrium(network, model, _solve_config(config))
    except ScenarioBudgetError as exc:
        raise ConfigError(f"network, horizon: {exc}") from None


def _run_simulate(config: ExperimentConfig, verify: bool) -> _Outcome:
    config.require("network", "signal", "strategy", "delta", "horizon",
                   "replications")
    network = _network(config.network)
    model = _signal_model(config.signal)
    min_p = config.param("min_p_hat", convert=float)
    if min_p is not None:
        focal = config.param("focal_agent", 0, convert=as_int)
        if not 0 <= focal < network.n:
            raise ConfigError(f"params.focal_agent must be in 0..{network.n - 1}"
                              f", got {focal}")
    solve_report = None
    if config.strategy == "solve":
        solve_report = _solve(network, model, config)
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
        report["min_p_hat"] = min_p
        report["focal_agent"] = focal
        if est.p_hat[focal] < min_p:
            ok = False
    if verify and solve_report is None:
        prof = profile if isinstance(profile, dict) else \
            {i: profile for i in network.agents}
        if not all(isinstance(s, ThresholdRule) for s in prof.values()):
            report["verify"] = "skipped: needs threshold rules"
        else:
            try:
                checks = verify_structure(
                    network, model, prof,
                    _solve_config(config, stabilize_default=False))
            except ScenarioBudgetError as exc:
                report["verify"] = f"skipped: {exc}"
            else:
                report["verify"] = _checks_dict(checks)
                ok = ok and checks.ok
    return _Outcome(report=report, ok=ok, csv_rows=rows, plot_rows=plot)


def _run_solve(config: ExperimentConfig, verify: bool) -> _Outcome:
    config.require("network", "signal", "delta", "horizon")
    network = _network(config.network)
    model = _signal_model(config.signal)
    result = _solve(network, model, config)
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
    # binary_model checks that q lies in (1/2, 1).
    q = config.param("q", required=True, convert=lambda v: binary_model(v).atoms[0][0])
    result = verify_spontaneous_example(q, as_fraction(config.delta))
    return _Outcome(report=result.as_json_dict(), ok=result.ok)


def _run_bounds(config: ExperimentConfig, verify: bool) -> _Outcome:
    eps = config.param("eps", required=True, convert=float)
    m = config.param("m", required=True, convert=as_int)
    adopt_probs = config.param(
        "adopt_probs",
        convert=lambda pairs: [(float(p), float(r)) for p, r in pairs])
    target = config.param("target", 0.9, convert=float)
    with _section("params"):
        report = bound_report(eps, m, adopt_probs=adopt_probs, target=target)
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
    model = _signal_model(config.signal or {"binary": 0.75})
    mu = config.param("mu", convert=Mu.from_json_dict)
    if mu is not None:
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
        eps = config.param("eps", convert=as_fraction)
        if eps is not None and eta >= eps and u > 0:
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
    eps = config.param("eps", required=True, convert=float)
    n = 1000 if config.replications is None else config.replications
    sampler = config.param("sampler_delta", 0.5,
                           convert=lambda d: default_sampler(delta=float(d)))
    # Past a valid eps, an error means no draw reached it in time.
    with _section("params.eps" if not 0 < eps < 1 else "params.eps, replications"):
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
    vmodel = _signal_model(signal)
    q = signal["binary"]
    n = config.param("n", 5000, convert=as_int)
    k = config.param("k", 50, convert=as_int)
    eta = config.param("eta", required=True, convert=float)
    agent = config.param("agent", convert=as_int)
    with _section("params"):
        result = sigma_ring_estimate(n, k, eta, q, config.replications,
                                     config.seed, agent=agent)
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
    min_p = config.param("min_p_hat", convert=float)
    if min_p is not None:
        report["min_p_hat"] = min_p
        ok = result.p_hat >= min_p
    if verify:
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
    network = _network(config.network)
    model = _signal_model(config.signal)
    profile = _build_profile(config, network,
                             model) if config.strategy else None
    if profile is None:
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
        try:
            with warnings.catch_warnings(record=True) as caught:
                outcome = _HANDLERS[config.kind](config, verify)
        finally:
            for w in caught:
                warnings.showwarning(w.message, w.category, w.filename, w.lineno)
        outcome.report["ok"] = outcome.ok
        outcome.report["warnings"] = list(dict.fromkeys(str(w.message)
                                                        for w in caught))
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
