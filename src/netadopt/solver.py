"""Exact equilibrium analysis for small instances.

Everything here runs on exact rationals: scenario weights, posteriors, and
backward-induction values are Fractions, so convergence and indifference are
decided by equality, never by float tolerance.  The key device is the
never-adopt counterfactual: an agent's best response is an optimal-stopping
problem against the scenario tree in which the agent itself never adopts,
because its payoff locks at adoption and beforehand the observed history
matches the counterfactual one.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .common import (
    NEVER,
    STATE_HIGH,
    ImpossibleHistoryError,
    RegimeError,
    as_fraction,
    is_never,
)
from .engine import (
    DecisionContext,
    NeighborTimes,
    _active_agents,
    _normalize_profile,
    _record_adoptions,
    run_profile,
)
from .networks import (
    Network,
    analyze,
    build_spontaneous_example,
    spontaneous_example_groups,
)
from .signals import SignalModel, binary_model
from .strategies import FollowRule, HALF, Strategy, ThresholdRule, myopic_rule

ZERO = Fraction(0)
ONE = Fraction(1)

# Grid of mixing probabilities tried after a best-response cycle.
MIXING_GRID_STEP = Fraction(1, 64)


@dataclass(frozen=True)
class SolveConfig:
    """Knobs for best response and equilibrium sweeps."""

    delta: Fraction
    horizon: int
    max_agents: int = 12
    max_sweeps: int = 40
    max_scenarios: int = 200_000
    raise_horizon: bool = False
    max_horizon: int = 24

    def __post_init__(self):
        delta = as_fraction(self.delta)
        if not 0 < delta < 1:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        object.__setattr__(self, "delta", delta)
        if self.horizon < 0:
            raise ValueError(f"horizon must be >= 0, got {self.horizon}")


@dataclass(frozen=True)
class Scenario:
    """One fully resolved counterfactual run of everyone else."""

    weight_high: Fraction
    weight_low: Fraction
    times: tuple


def enumerate_scenarios(network, model: SignalModel, profile, horizon: int,
                        frozen: int | None = None,
                        max_scenarios: int = 200_000) -> list:
    """All positive-probability runs of the profile, with exact weights.

    frozen marks one agent forced to never adopt (its signal is left out of
    the enumeration).  Mixing strategies split into weighted branches; the
    branch factor multiplies both state weights since mixing draws are
    state-independent.  Returns Scenario records whose weights sum to one
    per state.
    """
    strategies = _normalize_profile(network, profile)
    actors = [i for i in network.agents if i != frozen]
    n_assign = model.n_atoms ** len(actors)
    if n_assign > max_scenarios:
        raise ValueError(
            f"{n_assign} signal assignments exceed the {max_scenarios} scenario budget"
        )
    likelihood_high = [lh for lh, _ in model.atoms]
    likelihood_low = [ll for _, ll in model.atoms]
    beliefs = model.beliefs
    spont = [s.spontaneous_until for s in strategies]
    lag = [s.max_reaction_lag for s in strategies]

    scenarios = []

    def run_branch(times, last_cue, remaining, t, factor, atom_of):
        while True:
            active = (_active_agents(remaining, t, spont, lag, last_cue)
                      if t <= horizon else [])
            if not active:
                scenarios.append((factor, tuple(times)))
                return
            sure = []
            mixers = []
            for i in active:
                view = NeighborTimes(network.out_neighbors(i), times)
                ctx = DecisionContext(
                    agent=i, period=t, atom=atom_of[i],
                    belief=beliefs[atom_of[i]], times=view, rng=None,
                    network=network,
                )
                p = as_fraction(strategies[i].adopt_probability(ctx))
                if p == 1:
                    sure.append(i)
                elif p != 0:
                    mixers.append((i, p))
            if not mixers:
                _record_adoptions(network, times, last_cue, sure, t)
                if sure:
                    remaining = [i for i in remaining if is_never(times[i])]
                t += 1
                continue
            if len(mixers) > 20:
                raise ValueError(f"{len(mixers)} simultaneous mixers: branch blow-up")
            for bits in itertools.product((False, True), repeat=len(mixers)):
                sub_factor = factor
                adopting = list(sure)
                for (i, p), adopt in zip(mixers, bits):
                    if adopt:
                        adopting.append(i)
                        sub_factor *= p
                    else:
                        sub_factor *= 1 - p
                new_times = list(times)
                new_cue = list(last_cue)
                _record_adoptions(network, new_times, new_cue, adopting, t)
                new_remaining = [i for i in remaining if is_never(new_times[i])]
                run_branch(new_times, new_cue, new_remaining, t + 1,
                           sub_factor, atom_of)
            return

    results = []
    for assignment in itertools.product(range(model.n_atoms), repeat=len(actors)):
        atom_of = dict(zip(actors, assignment))
        w_high = ONE
        w_low = ONE
        for a in assignment:
            w_high *= likelihood_high[a]
            w_low *= likelihood_low[a]
        scenarios.clear()
        remaining = list(actors)
        run_branch([NEVER] * network.n, [-math.inf] * network.n, remaining,
                   0, ONE, atom_of)
        for factor, times in scenarios:
            results.append(Scenario(
                weight_high=w_high * factor,
                weight_low=w_low * factor,
                times=times,
            ))
    return results


def observed_history(network, agent: int, times, t: int) -> tuple:
    """Canonical history key for what agent has seen entering period t."""
    pairs = tuple(sorted(
        (j, int(times[j]))
        for j in network.out_neighbors(agent)
        if times[j] < t
    ))
    return (t, pairs)


def exact_posterior(network, model: SignalModel, profile, agent: int,
                    history: tuple, own_belief,
                    config: SolveConfig | None = None) -> Fraction:
    """Exact posterior P(H | own signal, observed history) under the profile.

    history is a canonical key (t, ((j, tau), ...)).  Raises
    ImpossibleHistoryError when the history has probability zero under the
    never-adopt counterfactual for this agent.
    """
    t, pairs = history
    max_scen = config.max_scenarios if config else 200_000
    horizon = max(t, config.horizon if config else t)
    scenarios = enumerate_scenarios(
        network, model, profile, horizon, frozen=agent, max_scenarios=max_scen)
    weight_high = ZERO
    weight_low = ZERO
    key = tuple(sorted((int(j), int(tau)) for j, tau in pairs))
    for s in scenarios:
        if observed_history(network, agent, s.times, t)[1] == key:
            weight_high += s.weight_high
            weight_low += s.weight_low
    if weight_high == 0 and weight_low == 0:
        raise ImpossibleHistoryError(
            f"history {history!r} of agent {agent} has probability zero"
        )
    atom = model.atom_for_belief(own_belief)
    lh, ll = model.atoms[atom]
    top = lh * weight_high
    bot = ll * weight_low
    return top / (top + bot)


def _node_margins(network, model, profile, agent, config):
    """Backward induction for one agent against the never-adopt scenarios.

    Values are exact and in doubled-utility units (the H/L payoff
    difference scale); a node is worth max(stop, cont).  Returns, for every
    (history key, atom) over reachable pre-adoption histories, the sign of
    stop - cont: 1 when stopping is strictly better, -1 when continuing is,
    0 at indifference.
    """
    scenarios = enumerate_scenarios(
        network, model, profile, config.horizon, frozen=agent,
        max_scenarios=config.max_scenarios)
    delta = config.delta
    atoms = model.atoms
    n_atoms = model.n_atoms
    margins = {}

    def node(t, scen_ids, key):
        weight_high = sum(scenarios[s].weight_high for s in scen_ids)
        weight_low = sum(scenarios[s].weight_low for s in scen_ids)
        disc = delta ** t
        stop = [disc * (atoms[a][0] * weight_high - atoms[a][1] * weight_low)
                for a in range(n_atoms)]
        cont = [ZERO] * n_atoms
        if t < config.horizon:
            groups = {}
            for s in scen_ids:
                ck = observed_history(network, agent, scenarios[s].times, t + 1)
                groups.setdefault(ck, []).append(s)
            for ck, members in sorted(groups.items()):
                child_vals = node(t + 1, members, ck)
                for a in range(n_atoms):
                    cont[a] += child_vals[a]
        vals = []
        for a in range(n_atoms):
            # Keep only the sign: exact margins for every history would sit
            # in memory next to the scenario list.
            margins[(key, a)] = (stop[a] > cont[a]) - (stop[a] < cont[a])
            vals.append(max(stop[a], cont[a]))
        return vals

    node(0, list(range(len(scenarios))), (0, ()))
    return margins


def best_response(network, model: SignalModel, profile, agent: int,
                  config: SolveConfig) -> ThresholdRule:
    """Exact best response of one agent; ties resolve toward adopting.

    The returned table has entries only at reachable histories where at
    least one atom adopts; everything else defaults to staying out.
    """
    if network.n > config.max_agents:
        raise ValueError(
            f"instance size {network.n} exceeds max_agents={config.max_agents}"
        )
    margins = _node_margins(network, model, profile, agent, config)
    beliefs = model.beliefs
    order = sorted(range(model.n_atoms), key=lambda a: beliefs[a])
    entries = {}
    keys = sorted({key for key, _ in margins})
    for key in keys:
        row = [margins[(key, a)] >= 0 for a in order]
        # Monotone in belief: once an atom adopts, all higher beliefs must.
        first = next((i for i, adopt in enumerate(row) if adopt), None)
        if first is None:
            continue
        if not all(row[first:]):
            raise AssertionError(
                f"non-monotone best response at {key}: {row} (belief order)"
            )
        entries[(agent, key)] = (beliefs[order[first]], ONE)
    return ThresholdRule(entries=entries, label=f"best-response-{agent}")


@dataclass(frozen=True)
class StructureChecks:
    """Results of the three structural profile checks."""

    threshold_form_ok: bool
    state_monotone_ok: bool
    no_spontaneous_ok: bool | None  # None when the network is not a tree
    violations: tuple = ()
    scenario_count: int = 0

    @property
    def ok(self) -> bool:
        """True unless a check failed; a skipped tree check does not fail."""
        return (self.threshold_form_ok and self.state_monotone_ok
                and self.no_spontaneous_ok is not False)


def verify_structure(network, model: SignalModel, profile,
                     config: SolveConfig) -> StructureChecks:
    """Check threshold form, state-monotone timing, and tree cue-locality.

    Failures are reported as entries, not raised: the caller decides whether
    a violated check is fatal.
    """
    strategies = _normalize_profile(network, profile)
    scenarios = enumerate_scenarios(
        network, model, profile, config.horizon,
        max_scenarios=config.max_scenarios)
    beliefs = model.beliefs
    violations = []

    # (i) threshold form at every reachable pre-adoption history.
    threshold_ok = True
    seen = set()
    order = sorted(range(model.n_atoms), key=lambda a: beliefs[a])
    for s in scenarios:
        for i in network.agents:
            tau = s.times[i]
            last = tau if not is_never(tau) else config.horizon
            for t in range(0, int(min(last, config.horizon)) + 1):
                key = observed_history(network, i, s.times, t)
                if (i, key) in seen:
                    continue
                seen.add((i, key))
                probs = []
                for a in range(model.n_atoms):
                    ctx = DecisionContext(
                        agent=i, period=t, atom=a, belief=beliefs[a],
                        times=_view_for(network, i, s.times), rng=None,
                        network=network)
                    probs.append(as_fraction(strategies[i].adopt_probability(ctx)))
                row = [probs[a] for a in order]
                if not _is_threshold_shape(row):
                    threshold_ok = False
                    violations.append(
                        f"threshold-form: agent {i} at {key} has adoption "
                        f"probabilities {[float(p) for p in row]} in belief order"
                    )

    # (ii) adoption at each finite period is weakly more likely under H.
    monotone_ok = True
    for i in network.agents:
        for t in range(config.horizon + 1):
            p_high = sum((s.weight_high for s in scenarios if s.times[i] == t), ZERO)
            p_low = sum((s.weight_low for s in scenarios if s.times[i] == t), ZERO)
            if p_high < p_low:
                monotone_ok = False
                violations.append(
                    f"state-monotonicity: agent {i} adopts at {t} with "
                    f"P={float(p_high):.6g} under H < {float(p_low):.6g} under L"
                )

    # (iii) on trees, adoption after period 0 needs a fresh observed cue.
    tree = analyze(network).is_tree
    spontaneous_ok = None
    if tree:
        spontaneous_ok = True
        for s in scenarios:
            if s.weight_high == 0 and s.weight_low == 0:
                continue
            for i in network.agents:
                tau = s.times[i]
                if is_never(tau) or tau == 0:
                    continue
                if not any(s.times[j] == tau - 1
                           for j in network.out_neighbors(i)):
                    spontaneous_ok = False
                    violations.append(
                        f"spontaneous adoption: agent {i} adopts at {tau} with "
                        f"no observed neighbor adopting at {tau - 1}"
                    )
    return StructureChecks(
        threshold_form_ok=threshold_ok,
        state_monotone_ok=monotone_ok,
        no_spontaneous_ok=spontaneous_ok,
        violations=tuple(violations),
        scenario_count=len(scenarios),
    )


def _is_threshold_shape(row) -> bool:
    """True when probabilities in belief order are zeros, at most one
    interior value, then ones."""
    i = 0
    while i < len(row) and row[i] == 0:
        i += 1
    if i < len(row) and 0 < row[i] < 1:
        i += 1
    return all(p == 1 for p in row[i:])


def _view_for(network, agent, times):
    return NeighborTimes(network.out_neighbors(agent), times)


def _profile_fingerprint(profile: dict) -> tuple:
    out = []
    for i in sorted(profile):
        rule = profile[i]
        entries = tuple(sorted(
            (key, (thr, mix)) for (who, key), (thr, mix) in rule.entries.items()
        ))
        out.append((i, entries))
    return tuple(out)


@dataclass(frozen=True)
class EquilibriumReport:
    """Outcome of best-response iteration."""

    profile: dict
    converged: bool
    sweeps: int
    residual: float
    cycle_length: int | None
    horizon_used: int
    horizon_stabilized: bool | None
    checks: StructureChecks | None
    mixed: bool = False


def _profile_residual(old: dict, new: dict) -> float:
    keys = set()
    for prof in (old, new):
        for i, rule in prof.items():
            for (_, key) in rule.entries:
                keys.add((i, key))
    worst = 0.0
    for i, key in keys:
        def thr_of(prof):
            hit = prof[i].lookup(i, key)
            return float(hit[0]) if hit else 1.0
        worst = max(worst, abs(thr_of(old) - thr_of(new)))
    return worst


def solve_equilibrium(network, model: SignalModel, config: SolveConfig,
                      initial=None, check: bool = True) -> EquilibriumReport:
    """Gauss-Seidel best-response iteration from a myopic start.

    Sweeps agents in id order, replacing each strategy with its exact best
    response.  Convergence means the whole profile is exactly unchanged over
    a sweep.  A repeated non-adjacent fingerprint is reported as a cycle;
    for binary-signal instances a symmetric mixing search on the
    MIXING_GRID_STEP grid is then attempted before giving up.
    """
    if network.n > config.max_agents:
        raise ValueError(
            f"instance size {network.n} exceeds max_agents={config.max_agents}"
        )
    if config.raise_horizon:
        return _solve_with_stable_horizon(network, model, config, initial, check)

    if initial is None:
        base = myopic_rule(model)
        profile = {i: base for i in network.agents}
    else:
        profile = dict(enumerate(_normalize_profile(network, initial)))

    seen = {_profile_fingerprint(profile): 0}
    converged = False
    cycle_length = None
    residual = math.inf
    sweeps = 0
    for sweep in range(1, config.max_sweeps + 1):
        old = dict(profile)
        for i in network.agents:
            profile[i] = best_response(network, model, profile, i, config)
        sweeps = sweep
        residual = _profile_residual(old, profile)
        fp = _profile_fingerprint(profile)
        if residual == 0.0:
            converged = True
            break
        if fp in seen:
            cycle_length = sweep - seen[fp]
            break
        seen[fp] = sweep

    mixed = False
    if not converged and cycle_length is not None and model.n_atoms == 2:
        mixed_profile = _symmetric_mixing_search(network, model, config, profile)
        if mixed_profile is not None:
            profile = mixed_profile
            converged = True
            residual = 0.0
            mixed = True

    checks = None
    if check and converged:
        checks = verify_structure(network, model, profile, config)
    return EquilibriumReport(
        profile=profile,
        converged=converged,
        sweeps=sweeps,
        residual=residual,
        cycle_length=cycle_length,
        horizon_used=config.horizon,
        horizon_stabilized=None,
        checks=checks,
        mixed=mixed,
    )


def _early_entries(profile: dict) -> tuple:
    out = []
    for i in sorted(profile):
        items = sorted(profile[i].entries.items(),
                       key=lambda kv: (str(kv[0][0]), kv[0][1]))
        for (who, key), (thr, mix) in items:
            if key[0] <= 1:
                out.append((i, key, thr, mix))
    return tuple(out)


def _solve_with_stable_horizon(network, model, config, initial, check):
    base = replace(config, raise_horizon=False)
    prev_report = None
    prev_early = None
    for horizon in range(config.horizon, config.max_horizon + 1):
        cfg = replace(base, horizon=horizon)
        report = solve_equilibrium(network, model, cfg, initial=initial, check=False)
        early = _early_entries(report.profile) if report.converged else None
        if prev_report is not None and report.converged and early == prev_early:
            checks = verify_structure(network, model, report.profile, cfg) \
                if check else None
            return replace(report, horizon_stabilized=True,
                           horizon_used=horizon, checks=checks)
        prev_report, prev_early = report, early
    cfg = replace(base, horizon=config.max_horizon)
    checks = None
    if check and prev_report.converged:
        checks = verify_structure(network, model, prev_report.profile, cfg)
    return replace(prev_report, horizon_stabilized=False,
                   horizon_used=config.max_horizon, checks=checks)


def is_equilibrium(network, model: SignalModel, profile, config: SolveConfig) -> bool:
    """Exact check: nobody can gain by deviating at any reachable history.

    Pure entries must weakly prefer their action; mixed entries must be
    exactly indifferent.
    """
    strategies = _normalize_profile(network, profile)
    beliefs = model.beliefs
    for i in network.agents:
        margins = _node_margins(network, model, profile, i, config)
        for (key, atom), sign in margins.items():
            p = _strategy_prob_at(strategies[i], i, key, atom, beliefs, network)
            if p == 1 and sign < 0:
                return False
            if p == 0 and sign > 0:
                return False
            if 0 < p < 1 and sign != 0:
                return False
    return True


def _strategy_prob_at(strategy, agent, key, atom, beliefs, network):
    t, pairs = key
    times = [NEVER] * network.n
    for j, tau in pairs:
        times[j] = tau
    ctx = DecisionContext(
        agent=agent, period=t, atom=atom, belief=beliefs[atom],
        times=_view_for(network, agent, times), rng=None, network=network)
    return as_fraction(strategy.adopt_probability(ctx))


def _symmetric_mixing_search(network, model, config, profile):
    """Try symmetric mixing at the entries where the cycle disagrees."""
    grid = [MIXING_GRID_STEP * j for j in range(1, int(1 / MIXING_GRID_STEP))]
    base = {i: profile[i] for i in network.agents}
    for m in grid:
        candidate = {}
        for i in network.agents:
            entries = {}
            for (who, key), (thr, mix) in base[i].entries.items():
                entries[(who, key)] = (thr, m)
            candidate[i] = ThresholdRule(entries=entries)
        if is_equilibrium(network, model, candidate, config):
            return candidate
    return None


@dataclass(frozen=True)
class _DeferMajorityRule(Strategy):
    """Defer one period, then adopt on a majority among own signal and anchors.

    The anchors are agents known to adopt at period 0 exactly when their
    own signal is high, so their period-0 actions reveal their signals.
    At period 1 the rule adopts when at least two of (own signal, anchor
    signals) are high; it never acts at any other period.
    """

    anchors: tuple

    spontaneous_until = 0
    max_reaction_lag = 1

    def adopt_probability(self, ctx):
        if ctx.period != 1:
            return ZERO
        high = sum(1 for j in self.anchors if ctx.times[j] == 0)
        if as_fraction(ctx.belief) >= HALF:
            high += 1
        return ONE if high >= 2 else ZERO


@dataclass(frozen=True)
class _ExactWatcherRule(Strategy):
    """Exact-Bayes rule for the watcher in the silence-inference instance.

    The watcher observes the deferring group, the isolated group, and the
    follower, but not the two anchors or the relay those three react to.
    Its posterior is computed by summing the two unseen anchor signals out
    of the likelihood of everything observed so far; the relay's signal is
    folded into the follower's action probability.  Adopts on belief >= 1/2.
    """

    q: Fraction
    deferring: tuple   # adopt at 1 on a majority with the two anchors
    isolated: tuple    # adopt at 0 on a high signal, else never
    follower: int      # adopts at 2 exactly when the relay adopted at 1

    spontaneous_until = 0
    max_reaction_lag = 2

    def factored_odds(self, times_of, period: int, own_belief) -> Fraction:
        """Likelihood ratio of the observed history, high over low state.

        times_of maps an agent id to its adoption time; adoptions at or
        after period are treated as not yet observed.
        """
        q = self.q

        def seen(agent):
            tau = times_of(agent)
            return tau if not is_never(tau) and tau < period else NEVER

        def anchor_sum(theta_q, iso_factor):
            # Sum over the unseen anchor-signal pair (number high in 0..2).
            total = ZERO
            for n_high, weight in ((2, theta_q ** 2),
                                   (1, 2 * theta_q * (1 - theta_q)),
                                   (0, (1 - theta_q) ** 2)):
                acc = weight * iso_factor
                # Majority at a deferring agent needs 2 - n_high own highs.
                for b in self.deferring:
                    if period < 2:
                        continue
                    tau = seen(b)
                    if tau == 1:
                        f = (ONE if n_high == 2
                             else theta_q if n_high == 1 else ZERO)
                    elif is_never(tau):
                        f = (ZERO if n_high == 2
                             else 1 - theta_q if n_high == 1 else ONE)
                    else:
                        f = ZERO
                    acc *= f
                    if acc == 0:
                        break
                if period >= 3 and acc != 0:
                    # The follower mirrors the relay's period-1 action, and
                    # the relay adopts at 1 on a majority with the anchors.
                    tau = seen(self.follower)
                    relay_adopts = (ONE if n_high == 2
                                    else theta_q if n_high == 1 else ZERO)
                    if tau == 2:
                        acc *= relay_adopts
                    elif is_never(tau):
                        acc *= 1 - relay_adopts
                    else:
                        acc = ZERO
                total += acc
            return total

        def iso_product(theta_q):
            acc = ONE
            if period >= 1:
                for c in self.isolated:
                    acc *= theta_q if seen(c) == 0 else 1 - theta_q
            return acc

        num = anchor_sum(q, iso_product(q))
        den = anchor_sum(1 - q, iso_product(1 - q))
        if num == 0 and den == 0:
            raise ImpossibleHistoryError(
                "watcher observed a history with probability zero")
        belief = as_fraction(own_belief)
        return (belief / (1 - belief)) * num / den if den != 0 else NEVER

    def adopt_probability(self, ctx):
        odds = self.factored_odds(lambda j: ctx.times[j], ctx.period, ctx.belief)
        return ONE if is_never(odds) or odds >= 1 else ZERO


@dataclass(frozen=True)
class SpontaneousReport:
    """Outcome of replaying the silence-inference instance."""

    q: Fraction
    delta: Fraction
    defer_margin: Fraction       # delta * (1 + q(1-q)) - 1, must be > 0
    lr_period2: Fraction         # watcher's posterior odds entering period 2
    lr_period3: Fraction         # same entering period 3
    watcher_adopts_at: int
    period2_adoptions: int
    role_times: dict             # role label -> adoption period or None
    ok: bool

    def as_json_dict(self) -> dict:
        return {
            "q": str(self.q),
            "delta": str(self.delta),
            "defer_margin": float(self.defer_margin),
            "lr_period2": float(self.lr_period2),
            "lr_period3": float(self.lr_period3),
            "watcher_adopts_at": self.watcher_adopts_at,
            "period2_adoptions": self.period2_adoptions,
            "role_times": dict(self.role_times),
            "ok": self.ok,
        }


def verify_spontaneous_example(q, delta) -> SpontaneousReport:
    """Replay the designated run where adoption follows pure silence.

    Builds the fixed 115-agent instance, pins every signal (one anchor and
    the whole deferring group high, everyone else low), replays it through
    the engine, and checks the watcher's exact posterior by two routes:
    the factored enumeration its strategy uses, and the closed-form
    product.  The watcher must stay out through period 2 and adopt at
    period 3 even though nobody adopted at period 2.

    Raises RegimeError when delta is too small for deferral to beat
    immediate adoption at a deferring agent with a high signal.
    """
    qf = as_fraction(q)
    df = as_fraction(delta)
    if not HALF < qf < 1:
        raise ValueError(f"signal accuracy q must lie in (1/2, 1), got {q}")
    if not 0 < df < 1:
        raise ValueError(f"discount delta must lie in (0, 1), got {delta}")
    defer_lhs = df * (1 + qf * (1 - qf))
    if not defer_lhs > 1:
        raise RegimeError(
            "deferring agents would adopt immediately: need "
            f"delta * (1 + q*(1-q)) > 1, got {float(defer_lhs):.6f} <= 1")
    if not qf * (3 - 2 * qf) > (1 - qf) * (1 + 2 * qf):
        raise RegimeError(
            "follower would not mirror the relay: need "
            "q*(3-2q) > (1-q)*(1+2q), which fails only for q <= 1/2")

    network = build_spontaneous_example()
    groups = spontaneous_example_groups()
    model = binary_model(qf)
    high_atom, low_atom = 0, 1
    atoms = [low_atom] * network.n
    atoms[groups["a1"]] = high_atom
    for b in groups["B"]:
        atoms[b] = high_atom

    anchors = (groups["a1"], groups["a2"])
    watcher = _ExactWatcherRule(
        q=qf, deferring=groups["B"], isolated=groups["C"],
        follower=groups["d"])
    profile = {groups["a1"]: myopic_rule(model),
               groups["a2"]: myopic_rule(model),
               groups["d"]: FollowRule(tree_neighbors={groups["d"]: (groups["e"],)}),
               groups["e"]: _DeferMajorityRule(anchors=anchors),
               groups["f"]: watcher}
    for b in groups["B"]:
        profile[b] = _DeferMajorityRule(anchors=anchors)
    for c in groups["C"]:
        profile[c] = myopic_rule(model)

    trace = run_profile(network, model, profile, horizon=6,
                        rng=np.random.default_rng(0), state=STATE_HIGH,
                        atoms=atoms)
    times = trace.times

    expected = {"a1": 0, "a2": None, "d": None, "e": None}
    for role, want in expected.items():
        got = times[groups[role]]
        got = None if is_never(got) else got
        if got != want:
            raise RuntimeError(f"replay inconsistency: {role} adopted at "
                               f"{got}, expected {want}")
    for label, members, want in (("B", groups["B"], 1), ("C", groups["C"], None)):
        for i in members:
            got = None if is_never(times[i]) else times[i]
            if got != want:
                raise RuntimeError(f"replay inconsistency: {label} agent {i} "
                                   f"adopted at {got}, expected {want}")

    # Route 1: the watcher's own factored enumeration on the realized trace.
    belief_f = model.beliefs[atoms[groups["f"]]]
    lr2 = watcher.factored_odds(lambda j: times[j], 2, belief_f)
    # Route 2: closed-form product over the two anchor-signal splits.
    ratio = (1 - qf) / qf
    lr2_closed = ratio ** 11 * (
        (qf ** 2 + 2 * qf * (1 - qf) * qf ** 100)
        / ((1 - qf) ** 2 + 2 * qf * (1 - qf) * (1 - qf) ** 100))
    if lr2 != lr2_closed:
        raise RuntimeError("watcher posterior disagrees with the closed form "
                           f"at period 2: {lr2} != {lr2_closed}")

    f_time = times[groups["f"]]
    f_time = None if is_never(f_time) else f_time
    if (lr2 < 1) != (f_time != 2):
        raise RuntimeError("watcher action at period 2 contradicts its odds")

    lr3 = lr2_closed
    if f_time != 2:
        lr3 = watcher.factored_odds(lambda j: times[j], 3, belief_f)
        lr3_closed = (qf / (1 - qf)) ** 88
        if lr3 != lr3_closed:
            raise RuntimeError("watcher posterior disagrees with the closed "
                               f"form at period 3: {lr3} != {lr3_closed}")

    period2 = sum(1 for t in times if t == 2)
    role_times = {}
    for role in ("a1", "a2", "d", "e", "f"):
        t = times[groups[role]]
        role_times[role] = None if is_never(t) else t
    for label in ("B", "C"):
        t = times[groups[label][0]]
        role_times[label] = None if is_never(t) else t

    ok = (lr2 < 1 and lr3 > 1 and f_time == 3 and period2 == 0
          and not trace.truncated)
    return SpontaneousReport(
        q=qf, delta=df, defer_margin=defer_lhs - 1, lr_period2=lr2,
        lr_period3=lr3, watcher_adopts_at=f_time, period2_adoptions=period2,
        role_times=role_times, ok=ok)
