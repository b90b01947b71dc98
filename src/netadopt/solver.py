"""Exact equilibrium analysis for small instances.

Everything here is exact, so convergence and indifference are decided by
equality, never by float tolerance.  One forward pass builds each tree: run
weights are integer numerators over one denominator per build (Fractions
once a mixing answer enters), a build asks each strategy once per decision,
and each key's weight becomes a Fraction once.  Posteriors and
backward-induction values are Fractions.  The key device is the
never-adopt counterfactual: before an agent adopts, the history it observes
is the one it would observe if it never adopted.  So every per-agent query
reads one tree, the exact weight under each state of every history the
agent can observe while it never adopts: its best response is an
optimal-stopping problem on that tree, its posterior is a lookup in it,
and the structure checks walk it forward with the agent's own chance of
not having adopted yet.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .common import (
    NEVER,
    STATE_HIGH,
    ImpossibleHistoryError,
    RegimeError,
    as_fraction,
    is_never,
)
from .networks import (
    _reachable_within,
    analyze,
    build_spontaneous_example,
    spontaneous_example_groups,
)
from .signals import SignalModel, binary_model
from .strategies import (HALF, DecisionContext, FollowRule, NeighborTimes,
                         Strategy, ThresholdRule, _deadline, _normalize_profile,
                         _record_adoptions, history_key_to_text, myopic_rule)

ZERO = Fraction(0)
ONE = Fraction(1)

# Grid of mixing probabilities tried after a best-response cycle.
MIXING_GRID_STEP = Fraction(1, 64)

# Default cap on the live states of one enumeration (ScenarioBudgetError).
MAX_SCENARIOS = 200_000


class ScenarioBudgetError(ValueError):
    """An enumeration needs more live states than max_scenarios allows."""


@dataclass(frozen=True)
class SolveConfig:
    """Knobs for best response and equilibrium sweeps."""

    delta: Fraction
    horizon: int
    max_sweeps: int = 40
    max_scenarios: int = MAX_SCENARIOS
    raise_horizon: bool = False
    max_horizon: int = 24

    def __post_init__(self):
        delta = as_fraction(self.delta)
        if not 0 < delta < 1:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        object.__setattr__(self, "delta", delta)
        if self.horizon < 0:
            raise ValueError(f"horizon must be >= 0, got {self.horizon}")
        if self.max_sweeps < 1:
            raise ValueError(f"max_sweeps must be >= 1, got {self.max_sweeps}")
        if self.raise_horizon and self.max_horizon < self.horizon:
            raise ValueError(
                f"max_horizon ({self.max_horizon}) must be >= horizon "
                f"({self.horizon}) when raise_horizon is set")


@dataclass(frozen=True)
class Scenario:
    """One fully resolved counterfactual run of everyone else."""

    weight_high: Fraction
    weight_low: Fraction
    times: tuple


def _ask(strategy, network, beliefs, agent, t, times, mask) -> list:
    """The strategy's exact adoption probability at period t, given the
    adoption periods times, for each atom in mask (None for the others)."""
    view = NeighborTimes(network.out_neighbors(agent), times)
    return [as_fraction(strategy.adopt_probability(DecisionContext(
                agent=agent, period=t, atom=a, belief=belief, times=view,
                network=network))) if mask >> a & 1 else None
            for a, belief in enumerate(beliefs)]


def _expand(network, model, profile, horizon, frozen, max_scenarios):
    """Expand every run of the profile forward, one period at a time.

    A live state is the time vector plus, for each undecided agent, the
    bitmask of atoms still consistent with its decisions; equal states add
    their weights.  An asked agent splits its atoms by its answer, a mixing
    atom both ways (mixing draws are state-independent).  Splits are kept
    per (agent, period, observed times, mask), and the masks one agent holds
    at one observed history are disjoint, so each answer is asked once.
    Weights are numerators over den, the mass of all atoms to the power of
    the light cone's size, with likelihoods scaled to integers: an agent's
    factors p * mass(sub) / mass(mask) telescope, so a numerator holds the
    mixing factors and the masses of the agents that adopted or expired,
    and open masks are multiplied in when a weight is read.  A state also
    carries the deadlines (_deadline), which its times determine.
    Returns (finished, tree, den): the numerators of each run by time vector
    and, when an agent is frozen, of each history key (t, pairs), t <= horizon.
    """
    strategies = _normalize_profile(network, profile)
    agents, beliefs = network.agents, model.beliefs
    dist = (dict.fromkeys(agents, 0) if frozen is None
            else _reachable_within(network, frozen, horizon))
    last = [horizon - dist[i] if i in dist and i != frozen else -1
            for i in agents]
    spont = [s.spontaneous_until for s in strategies]
    lag = [s.max_reaction_lag for s in strategies]
    observers = [network.in_neighbors(i) for i in agents]
    scale = [math.lcm(*(lik[k].denominator for lik in model.atoms)) for k in (0, 1)]
    scaled = [(int(lh * scale[0]), int(ll * scale[1])) for lh, ll in model.atoms]

    @functools.cache
    def mass(mask):
        return tuple(sum(lik[k] for a, lik in enumerate(scaled) if mask >> a & 1)
                     for k in (0, 1))

    # Lists, not tuples: CPython keeps up to 2000 freed tuples of each size
    # for reuse, and a build's worth of these would stay allocated after it.
    @functools.cache
    def open_mass(masks):
        return [math.prod(mass(m)[k] for m in masks if m) for k in (0, 1)]

    def add(table, key, w):
        total = table.setdefault(key, [0, 0])
        total[0] += w[0]
        total[1] += w[1]

    def check_budget(live, t):
        if live > max_scenarios:
            raise ScenarioBudgetError(f"{live} live states at period {t} exceed "
                                      f"the {max_scenarios} scenario budget")

    def split(i, t, times, mask):
        """{(i, adopt, mask kept): (high, low) factor} of i's answers."""
        sure = {True: 0, False: 0}
        splits = []
        for a, p in enumerate(_ask(strategies[i], network, beliefs, i, t,
                                   times, mask)):
            if p == 1 or p == 0:
                sure[p == 1] |= 1 << a
            elif p is not None:
                splits += [(True, 1 << a, p), (False, 1 << a, 1 - p)]
        # An adoption or an expiring stay closes the mask with the masses of
        # its atoms (one state); a stay that keeps it open narrows it by p.
        outcomes = {}
        for adopt, sub, p in splits + [(a, sub, 1) for a, sub in sure.items() if sub]:
            closes = adopt or last[i] == t
            pick = (i, adopt, 0 if closes else sub)
            f = (p * mass(sub)[0], p * mass(sub)[1]) if closes else (p, p)
            g = outcomes.get(pick, (0, 0))
            outcomes[pick] = (f[0] + g[0], f[1] + g[1])
        return outcomes

    full = (1 << model.n_atoms) - 1
    masks = tuple(full if d >= 0 else 0 for d in last)
    den = tuple(v ** sum(map(bool, masks)) for v in mass(full))
    watched = None if frozen is None else network.out_neighbors(frozen)
    memo = {}
    finished, tree = {}, {}
    deadlines = [_deadline(spont[i], lag[i], -math.inf) for i in agents]
    states = {((NEVER,) * network.n, masks): [1, 1, deadlines]}
    t = 0
    while states:
        following = {}
        expiring = [i for i in agents if last[i] == t]
        for (times, masks), (num_high, num_low, deadline) in states.items():
            active = [i for i in agents if masks[i] and deadline[i] >= t]
            if not active or watched is not None:
                open_high, open_low = open_mass(masks)
                w = (num_high * open_high, num_low * open_low)
                if watched is not None:  # a finished run: every later key too
                    pairs = tuple([(j, times[j]) for j in watched if times[j] < t])
                    for u in range(t, t + 1 if active else horizon + 1):
                        add(tree, (u, pairs), w)
                if not active:
                    add(finished, times, w)
                    continue
            for i in expiring:  # an expiring agent not asked closes its mask
                if masks[i] and i not in active:
                    num_high *= mass(masks[i])[0]
                    num_low *= mass(masks[i])[1]
            branches = [(1, 1, ())]
            fixed = []  # agents that give one answer for all their atoms
            for i in active:
                obs = tuple([times[j] for j in network.out_neighbors(i)])
                outcomes = memo.get((i, t, obs, masks[i]))
                if outcomes is None:
                    outcomes = memo[i, t, obs, masks[i]] = split(
                        i, t, times, masks[i])
                if len(outcomes) == 1:
                    ((pick, (f_high, f_low)),) = outcomes.items()
                    fixed.append(pick)
                    num_high, num_low = num_high * f_high, num_low * f_low
                    continue
                branches = [(b_high * f_high, b_low * f_low, picks + (pick,))
                            for b_high, b_low, picks in branches
                            for pick, (f_high, f_low) in outcomes.items()]
                check_budget(len(branches), t + 1)
            for b_high, b_low, picks in branches:
                picks += tuple(fixed)
                new_masks = [0 if last[i] == t else m for i, m in enumerate(masks)]
                for i, _, kept in picks:
                    new_masks[i] = kept
                new_times, new_deadline = times, deadline
                adopters = [i for i, adopt, _ in picks if adopt]
                if adopters:
                    new_times, new_deadline = list(times), list(deadline)
                    _record_adoptions(observers, new_times, new_deadline,
                                      spont, lag, adopters, t)
                    new_times = tuple(new_times)
                key = (new_times, tuple(new_masks))
                if key in following:
                    following[key][0] += num_high * b_high
                    following[key][1] += num_low * b_low
                else:
                    following[key] = [num_high * b_high, num_low * b_low,
                                      new_deadline]
                    check_budget(len(following), t + 1)
        states = following
        t += 1
    return finished, tree, den


def enumerate_scenarios(network, model: SignalModel, profile, horizon: int,
                        frozen: int | None = None,
                        max_scenarios: int = MAX_SCENARIOS) -> list:
    """All positive-probability runs of the profile (see _expand), one
    Scenario per time vector, with exact weights that sum to one per state.

    frozen marks one agent forced to never adopt (its signal is left out).
    An agent d observation steps from it is asked only through period
    horizon - d, so only the frozen agent's observations before period
    horizon are exact.  More than max_scenarios live states in any period
    raise ScenarioBudgetError.
    """
    finished, _, (den_high, den_low) = _expand(
        network, model, profile, horizon, frozen, max_scenarios)
    return [Scenario(Fraction(w_high, den_high), Fraction(w_low, den_low), times)
            for times, (w_high, w_low) in finished.items()]


def _history_tree(network, model, profile, agent, horizon, max_scenarios):
    """Exact weights of the histories agent observes while it never adopts:
    each history key (t, pairs), t <= horizon, of the runs expanded with
    agent frozen maps to their summed (weight_high, weight_low), and the
    parent (t - 1, pairs before t - 1) of a key is a key too.  Also returns
    the number of runs, one per time vector.
    """
    finished, tree, (den_high, den_low) = _expand(
        network, model, profile, horizon, agent, max_scenarios)
    return {key: (Fraction(w_high, den_high), Fraction(w_low, den_low))
            for key, (w_high, w_low) in tree.items()}, len(finished)


def _parent(key) -> tuple:
    t, pairs = key
    # Small tuples on this path are built from lists.  tuple() of a
    # generator allocates spare slots and shrinks the tuple; CPython then
    # files the freed tuple under its final size on a free list, which
    # filled sweep by sweep (about 70 KiB more resident memory on a line
    # of 7 at horizon 5).
    return (t - 1, tuple([p for p in pairs if p[1] < t - 1]))


def _probs_at(strategy, network, model, agent, key) -> list:
    """The strategy's adoption probability at a history key, one per atom;
    it sees the key's adoption periods and NEVER for every other agent."""
    t, pairs = key
    times = [NEVER] * network.n
    for j, tau in pairs:
        times[j] = tau
    return _ask(strategy, network, model.beliefs, agent, t, times,
                (1 << model.n_atoms) - 1)


def exact_posterior(network, model: SignalModel, profile, agent: int,
                    history: tuple, own_belief,
                    config: SolveConfig | None = None) -> Fraction:
    """Exact posterior P(H | own signal, observed history) under the profile.

    history is a canonical key (t, ((j, tau), ...)).  Raises
    ImpossibleHistoryError when the history has probability zero under the
    never-adopt counterfactual for this agent.
    """
    t, pairs = history
    tree, _ = _history_tree(
        network, model, profile, agent,
        max(t, config.horizon if config else t),
        config.max_scenarios if config else MAX_SCENARIOS)
    key = (t, tuple(sorted((int(j), int(tau)) for j, tau in pairs)))
    weight_high, weight_low = tree.get(key, (ZERO, ZERO))
    if weight_high == 0 and weight_low == 0:
        raise ImpossibleHistoryError(
            f"history {history!r} of agent {agent} has probability zero")
    lh, ll = model.atoms[model.atom_for_belief(own_belief)]
    return lh * weight_high / (lh * weight_high + ll * weight_low)


def _node_margins(network, model, profile, agent, config):
    """Backward induction for one agent over its never-adopt history tree.

    Values are exact and in doubled-utility units (the H/L payoff
    difference scale); a key is worth max(stop, cont), where cont sums the
    values of the keys whose parent it is.  Returns, for every key, the
    sign of stop - cont per atom: 1 when stopping is strictly better, -1
    when continuing is, 0 at indifference.
    """
    tree, _ = _history_tree(network, model, profile, agent, config.horizon,
                            config.max_scenarios)
    none = (ZERO,) * model.n_atoms
    cont = {}
    margins = {}
    for key in sorted(tree, reverse=True):  # children before their parent
        w_high, w_low = tree[key]
        disc = config.delta ** key[0]
        below = cont.pop(key, none)
        stop = [disc * (lh * w_high - ll * w_low) for lh, ll in model.atoms]
        # Keep only the sign: exact margins for every history would sit in
        # memory next to the tree.  (A list first; see _parent.)
        margins[key] = tuple([(s > c) - (s < c) for s, c in zip(stop, below)])
        if key[0]:
            parent = _parent(key)
            cont[parent] = [v + max(s, c) for v, s, c in
                            zip(cont.get(parent, none), stop, below)]
    return margins


def best_response(network, model: SignalModel, profile, agent: int,
                  config: SolveConfig) -> ThresholdRule:
    """Exact best response of one agent; ties resolve toward adopting.

    The returned table has entries only at reachable histories where at
    least one atom adopts; everything else defaults to staying out.
    """
    margins = _node_margins(network, model, profile, agent, config)
    beliefs = model.beliefs
    order = sorted(range(model.n_atoms), key=lambda a: beliefs[a])
    entries = {}
    for key, signs in sorted(margins.items()):
        row = [signs[a] >= 0 for a in order]
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

    Each check reads one agent's never-adopt history tree.  Walking its
    keys forward with the agent's chance, per atom, of not having adopted
    yet gives the exact chance of reaching each key before adopting and of
    adopting there.  (i) At every reachable key the adoption probabilities
    in belief order are zeros, at most one interior value, then ones.
    (ii) P(adopt at t | H) >= P(adopt at t | L) for each t <= horizon.
    (iii) On trees, adopting after period 0 follows an observed neighbor's
    adoption the period before.  scenario_count sums the never-adopt runs
    read over agents.  Each violation is reported once, agent by agent,
    not raised: the caller decides whether a violated check is fatal.
    """
    strategies = _normalize_profile(network, profile)
    spont = [s.spontaneous_until for s in strategies]
    lag = [s.max_reaction_lag for s in strategies]
    order = sorted(range(model.n_atoms), key=lambda a: model.beliefs[a])
    tree_network = analyze(network).is_tree
    shape_bad, timing_bad, cue_bad = [], [], []
    runs = 0
    for i in network.agents:
        tree, count = _history_tree(network, model, profile, i,
                                    config.horizon, config.max_scenarios)
        runs += count
        not_yet = {}  # key -> per-atom chance of not having adopted by then
        adopt_high = [ZERO] * (config.horizon + 1)
        adopt_low = list(adopt_high)
        uncued = set()
        for key in sorted(tree):  # parents before their children
            t, pairs = key
            alive = not_yet[_parent(key)] if t else [ONE] * model.n_atoms
            not_yet[key] = alive
            w_high, w_low = tree[key]
            reach = [(lh * w_high * a, ll * w_low * a)
                     for (lh, ll), a in zip(model.atoms, alive)]
            if not any(rh or rl for rh, rl in reach):
                continue
            probs = _probs_at(strategies[i], network, model, i, key)
            row = [probs[a] for a in order]
            if not _is_threshold_shape(row):
                shape_bad.append(
                    f"threshold-form: agent {i} at {key} has adoption "
                    f"probabilities {[float(p) for p in row]} in belief order")
            cue = max((tau for _, tau in pairs), default=-math.inf)
            if _deadline(spont[i], lag[i], cue) < t:
                continue  # the agent is not asked, so it stays out
            not_yet[key] = [a * (1 - p) for a, p in zip(alive, probs)]
            p_high = sum(rh * p for (rh, _), p in zip(reach, probs))
            p_low = sum(rl * p for (_, rl), p in zip(reach, probs))
            adopt_high[t] += p_high
            adopt_low[t] += p_low
            if t and (p_high or p_low) and all(tau != t - 1 for _, tau in pairs):
                uncued.add(t)
        timing_bad += [
            f"state-monotonicity: agent {i} adopts at {t} with "
            f"P={float(p_high):.6g} under H < {float(p_low):.6g} under L"
            for t, (p_high, p_low) in enumerate(zip(adopt_high, adopt_low))
            if p_high < p_low]
        cue_bad += [f"spontaneous adoption: agent {i} adopts at {t} with "
                    f"no observed neighbor adopting at {t - 1}"
                    for t in sorted(uncued) if tree_network]
    return StructureChecks(
        threshold_form_ok=not shape_bad,
        state_monotone_ok=not timing_bad,
        no_spontaneous_ok=not cue_bad if tree_network else None,
        violations=tuple(shape_bad + timing_bad + cue_bad),
        scenario_count=runs,
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


def _profile_fingerprint(profile: dict) -> str:
    """Exact text of a profile for the cycle check: the agent ids, then one
    agent, history, threshold, mix line per entry in sorted order.

    Equal texts mean equal entries (Fractions print canonically).  Unlike a
    tuple of the entries, the text keeps no history key or Fraction of a
    profile that later sweeps replace alive.
    """
    lines = [",".join(str(i) for i in sorted(profile))]
    for i in sorted(profile):
        for key, (thr, mix) in sorted((key, value) for (_, key), value
                                      in profile[i].entries.items()):
            lines.append(f"{i}\t{history_key_to_text(key)}\t{thr}\t{mix}")
    return "\n".join(lines)


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
    mixed: bool = False
    checks: StructureChecks | None = None


def _profile_residual(old: dict, new: dict) -> float:
    def thr_of(prof, i, key):
        hit = prof[i].lookup(i, key)
        return float(hit[0]) if hit else 1.0
    return max((abs(thr_of(old, i, key) - thr_of(new, i, key))
                for prof in (old, new) for i, rule in prof.items()
                for _, key in rule.entries), default=0.0)


def solve_equilibrium(network, model: SignalModel, config: SolveConfig,
                      initial=None) -> EquilibriumReport:
    """Gauss-Seidel best-response iteration (see _sweep), one horizon at a time.

    One loop sweeps config.horizon and, with raise_horizon, each next
    horizon up to max_horizon, until two in a row converge with equal
    period-0 and period-1 entries (horizon_stabilized True, else False;
    None without raise_horizon).  The structure checks run once, on a
    converged profile, at horizon_used.
    """
    last = config.max_horizon if config.raise_horizon else config.horizon
    early = None
    for horizon in range(config.horizon, last + 1):
        swept = replace(config, horizon=horizon)
        report = _sweep(network, model, swept, initial)
        previous = early
        early = _early_entries(report.profile) if report.converged else None
        stable = early is not None and early == previous
        if stable:
            break
    checks = (verify_structure(network, model, report.profile, swept)
              if report.converged else None)
    return replace(report, checks=checks,
                   horizon_stabilized=stable if config.raise_horizon else None)


def _sweep(network, model, config, initial) -> EquilibriumReport:
    """Best-response sweeps at config.horizon from initial, or the myopic
    rule, without structure checks.

    Sweeps agents in id order, replacing each strategy with its exact best
    response.  Convergence means the whole profile is exactly unchanged over
    a sweep.  A repeated non-adjacent fingerprint is reported as a cycle;
    for binary-signal instances a symmetric mixing search on the
    MIXING_GRID_STEP grid is then attempted before giving up.
    """
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

    return EquilibriumReport(
        profile=profile,
        converged=converged,
        sweeps=sweeps,
        residual=residual,
        cycle_length=cycle_length,
        horizon_used=config.horizon,
        horizon_stabilized=None,
        mixed=mixed,
    )


def _early_entries(profile: dict) -> tuple:
    return tuple((i, key, thr, mix) for i in sorted(profile)
                 for (_, key), (thr, mix) in sorted(
                     profile[i].entries.items(),
                     key=lambda kv: (str(kv[0][0]), kv[0][1]))
                 if key[0] <= 1)


def is_equilibrium(network, model: SignalModel, profile, config: SolveConfig) -> bool:
    """Exact check: nobody can gain by deviating at any reachable history.

    Pure entries must weakly prefer their action; mixed entries must be
    exactly indifferent.
    """
    strategies = _normalize_profile(network, profile)
    for i in network.agents:
        margins = _node_margins(network, model, profile, i, config)
        for key, signs in margins.items():
            probs = _probs_at(strategies[i], network, model, i, key)
            # Adopting needs stop >= cont, staying out stop <= cont.
            if any((p > 0 and sign < 0) or (p < 1 and sign > 0)
                   for p, sign in zip(probs, signs)):
                return False
    return True


def _symmetric_mixing_search(network, model, config, profile):
    """Try symmetric mixing at the entries where the cycle disagrees."""
    grid = [MIXING_GRID_STEP * j for j in range(1, int(1 / MIXING_GRID_STEP))]
    for m in grid:
        candidate = {i: ThresholdRule(entries={
            who_key: (thr, m) for who_key, (thr, _) in profile[i].entries.items()})
            for i in network.agents}
        if is_equilibrium(network, model, candidate, config):
            return candidate
    return None


def _defer_majority_rule(anchors) -> ThresholdRule:
    """Defer one period, then adopt on a majority among own signal and anchors.

    The anchors are agents known to adopt at period 0 exactly when their
    own signal is high, so their period-0 actions reveal their signals.
    At period 1 the rule adopts when at least two of (own signal, anchor
    signals) are high: always when both anchors adopted at 0, on a belief
    of at least 1/2 when one did.  It never acts at any other period.
    """
    a1, a2 = anchors
    return ThresholdRule(entries={
        (None, (1, ((a1, 0), (a2, 0)))): (ZERO, ONE),
        (None, (1, ((a1, 0),))): (HALF, ONE),
        (None, (1, ((a2, 0),))): (HALF, ONE),
    }, label="defer-majority")


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
        after period are treated as not yet observed.  A watched agent
        adopts at one period (isolated 0, deferring 1, follower 2) or
        never, so once that period is observed it gives the chance that it
        adopts there, its complement when silent, and 0 otherwise.
        """
        watched = [(j, at) for at, group in enumerate(
            (self.isolated, self.deferring, (self.follower,)))
            for j in group if at < period]

        def likelihood(theta):
            # Sum over the unseen anchor-signal pair, n_high of them high.
            total = ZERO
            for n_high, weight in enumerate(((1 - theta) ** 2,
                                             2 * theta * (1 - theta),
                                             theta ** 2)):
                # Own high signal; then a majority with the anchors, for a
                # deferring agent and for the relay the follower mirrors.
                majority = (ZERO, theta, ONE)[n_high]
                chance = (theta, majority, majority)
                for j, at in watched:
                    tau = times_of(j)
                    weight *= (chance[at] if tau == at else
                               1 - chance[at] if tau >= period else ZERO)
                    if not weight:
                        break
                total += weight
            return total

        num = likelihood(self.q)
        den = likelihood(1 - self.q)
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
    import numpy as np

    from .engine import run_profile

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

    defer = _defer_majority_rule((groups["a1"], groups["a2"]))
    watcher = _ExactWatcherRule(
        q=qf, deferring=groups["B"], isolated=groups["C"],
        follower=groups["d"])
    profile = {groups["a1"]: myopic_rule(model),
               groups["a2"]: myopic_rule(model),
               groups["d"]: FollowRule(tree_neighbors={groups["d"]: (groups["e"],)}),
               groups["e"]: defer,
               groups["f"]: watcher}
    for b in groups["B"]:
        profile[b] = defer
    for c in groups["C"]:
        profile[c] = myopic_rule(model)

    trace = run_profile(network, model, profile, horizon=6,
                        rng=np.random.default_rng(0), state=STATE_HIGH,
                        atoms=atoms)
    times = trace.times
    periods = [None if is_never(t) else t for t in times]

    # Each role's adoption period (None: never); f's is judged in ok below.
    replay = {"a1": 0, "a2": None, "d": None, "e": None, "f": 3, "B": 1,
              "C": None}
    role_times = {}
    for role, want in replay.items():
        members = groups[role] if role in ("B", "C") else (groups[role],)
        for i in members:
            if periods[i] != want and role != "f":
                raise RuntimeError(f"replay inconsistency: {role} agent {i} "
                                   f"adopted at {periods[i]}, expected {want}")
        role_times[role] = periods[members[0]]

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

    f_time = role_times["f"]
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
    ok = (lr2 < 1 and lr3 > 1 and f_time == replay["f"] and period2 == 0
          and not trace.truncated)
    return SpontaneousReport(
        q=qf, delta=df, defer_margin=defer_lhs - 1, lr_period2=lr2,
        lr_period3=lr3, watcher_adopts_at=f_time, period2_adoptions=period2,
        role_times=role_times, ok=ok)
