"""Outside-in layer tracing for one netadopt CLI run.

The wrappers are installed from outside the package, on the module
attribute through which each caller looks the function up, so the package
itself is traced without being edited.  Every wrapped call records a span:
its call count, its total time and its self time, which is the total minus
the time of the traced calls made inside it.  A few observers count work
at the same boundaries (simulated periods, enumerated scenarios, decisions
that returned a nonzero adoption probability).
"""

from __future__ import annotations

import time

# (module, attribute, span name): the lookup site each caller uses.
_FUNCTION_SITES = (
    ("cli", "run", "cli.run"),
    ("cli", "estimate", "engine.estimate"),
    ("cli", "solve_equilibrium", "solver.solve_equilibrium"),
    ("cli", "estimate_C_eps", "auxmodel.estimate_C_eps"),
    ("engine", "run_profile", "engine.run_profile"),
    ("engine", "sample_atoms", "signals.sample_atoms"),
    ("solver", "enumerate_scenarios", "solver.enumerate_scenarios"),
    ("solver", "best_response", "solver.best_response"),
    ("solver", "verify_structure", "solver.verify_structure"),
    ("auxmodel", "psi", "auxmodel.psi"),
    ("auxmodel", "w_mu", "auxmodel.w_mu"),
)

# Strategy classes whose per-class decision time is reported.
REPORTED_STRATEGIES = ("CenterBayesRule", "ThresholdRule", "ProtocolSigma")


class Tracer:
    """Span and counter store shared by every wrapper of one run."""

    def __init__(self):
        self.spans = {}    # span name -> [calls, total_s, self_s]
        self.counts = {}   # counter name -> int
        self._stack = []   # child time accumulated by each open span

    def wrap(self, name, fn, observe=None):
        stat = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - inner
                if stack:
                    stack[-1] += elapsed
            if observe is not None:
                observe(result)
            return result

        return traced

    def count(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount


def install(tracer: Tracer) -> None:
    """Wrap every traced lookup site of the imported netadopt package."""
    from netadopt import auxmodel, cli, engine, solver, strategies

    modules = {"cli": cli, "engine": engine, "solver": solver,
               "auxmodel": auxmodel}

    def on_trace(trace):
        ran = trace.quiescent_at
        tracer.count("engine.periods",
                     trace.horizon + 1 if ran is None else ran)

    def on_scenarios(scenarios):
        tracer.count("solver.scenarios", len(scenarios))
        tracer.count("solver.distinct_times",
                     len({s.times for s in scenarios}))

    def on_decision(p):
        if p != 0:
            tracer.count("strategies.active")

    observers = {"engine.run_profile": on_trace,
                 "solver.enumerate_scenarios": on_scenarios}
    for module, attr, name in _FUNCTION_SITES:
        owner = modules[module]
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr),
                                         observers.get(name)))

    for cls in vars(strategies).values():
        if (isinstance(cls, type) and issubclass(cls, strategies.Strategy)
                and "adopt_probability" in vars(cls)
                and cls is not strategies.Strategy):
            cls.adopt_probability = tracer.wrap(
                f"strategies.{cls.__name__}", cls.adopt_probability,
                on_decision)


def layer_metrics(tracer: Tracer) -> dict:
    """Flat per-layer metrics of one traced run; idle layers read 0."""
    def calls(name):
        return tracer.spans.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return tracer.spans.get(name, (0, 0.0, 0.0))[1]

    def self_time(name):
        return tracer.spans.get(name, (0, 0.0, 0.0))[2]

    def ratio(num, den):
        return num / den if den else 0.0

    strategy_spans = [n for n in tracer.spans if n.startswith("strategies.")]
    decisions = sum(calls(n) for n in strategy_spans)
    decision_s = sum(total(n) for n in strategy_spans)
    counts = tracer.counts
    metrics = {
        "cli.run.s": total("cli.run"),
        "cli.run.self_s": self_time("cli.run"),
        "engine.estimate.s": total("engine.estimate"),
        "engine.estimate.self_s": self_time("engine.estimate"),
        "engine.run_profile.calls": calls("engine.run_profile"),
        "engine.run_profile.s": total("engine.run_profile"),
        "engine.run_profile.self_s": self_time("engine.run_profile"),
        "engine.periods_per_rep": ratio(counts.get("engine.periods", 0),
                                        calls("engine.run_profile")),
        "signals.sample_atoms.calls": calls("signals.sample_atoms"),
        "signals.sample_atoms.s": total("signals.sample_atoms"),
        "strategies.decisions": decisions,
        "strategies.us_per_decision": 1e6 * ratio(decision_s, decisions),
        "strategies.active_ratio": ratio(counts.get("strategies.active", 0),
                                         decisions),
        "solver.solve_equilibrium.calls": calls("solver.solve_equilibrium"),
        "solver.solve_equilibrium.s": total("solver.solve_equilibrium"),
        "solver.best_response.calls": calls("solver.best_response"),
        "solver.best_response.s": total("solver.best_response"),
        "solver.best_response.self_s": self_time("solver.best_response"),
        "solver.enumerate_scenarios.calls": calls("solver.enumerate_scenarios"),
        "solver.enumerate_scenarios.s": total("solver.enumerate_scenarios"),
        "solver.scenarios": counts.get("solver.scenarios", 0),
        "solver.scenario_distinct_ratio": ratio(
            counts.get("solver.distinct_times", 0),
            counts.get("solver.scenarios", 0)),
        "solver.verify_structure.s": total("solver.verify_structure"),
        "auxmodel.estimate_C_eps.s": total("auxmodel.estimate_C_eps"),
        "auxmodel.psi.calls": calls("auxmodel.psi"),
        "auxmodel.psi.ms_per_call": 1e3 * ratio(total("auxmodel.psi"),
                                                calls("auxmodel.psi")),
        "auxmodel.w_mu.calls": calls("auxmodel.w_mu"),
    }
    for cls in REPORTED_STRATEGIES:
        metrics[f"strategies.{cls}.s"] = total(f"strategies.{cls}")
    return metrics
