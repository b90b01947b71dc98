"""The run-list expansion and history tree that solver.py replaced.

enumerate_scenarios_oracle lists every run with Fraction weights, applying
each split's factor p * P(atom in sub | atom in mask) as it is made.
history_tree_oracle then keys every run at every period up to the horizon.
The one-pass expansion in solver.py must give the same trees, runs and
budget errors.  active_agents and record_adoptions are the activity rule
and the adoption update written out here, so that the oracle shares no
helper with the code it checks.
"""

import functools
import math
from fractions import Fraction

from netadopt.common import NEVER, as_fraction
from netadopt.networks import _reachable_within
from netadopt.solver import Scenario, ScenarioBudgetError
from netadopt.strategies import (DecisionContext, NeighborTimes,
                                 _normalize_profile, canonical_history)

ZERO = Fraction(0)
ONE = Fraction(1)


def active_agents(remaining, t, spont, lag, last_cue) -> list:
    """The remaining agents that may still adopt at period t, in order:
    within spontaneous_until, without a reaction lag, or within the lag of
    the latest adoption among the agents they observe (last_cue)."""
    return [i for i in remaining
            if spont[i] >= t or lag[i] is None or last_cue[i] + lag[i] >= t]


def record_adoptions(network, times, last_cue, adopting, t) -> None:
    """Set times[i] = t for each adopter and last_cue[w] = t for each agent
    w that observes one."""
    for i in adopting:
        times[i] = t
        for watcher in network.in_neighbors(i):
            last_cue[watcher] = max(last_cue[watcher], t)


def enumerate_scenarios_oracle(network, model, profile, horizon, frozen=None,
                               max_scenarios=200_000):
    """Every positive-probability run, one Scenario per time vector."""
    strategies = _normalize_profile(network, profile)
    dist = (dict.fromkeys(network.agents, 0) if frozen is None
            else _reachable_within(network, frozen, horizon))
    last = [horizon - dist[i] if i in dist and i != frozen else -1
            for i in network.agents]
    spont = [s.spontaneous_until for s in strategies]
    lag = [s.max_reaction_lag for s in strategies]
    beliefs = model.beliefs

    @functools.cache
    def mass(mask):
        return tuple(sum((lik[k] for a, lik in enumerate(model.atoms)
                          if mask >> a & 1), ZERO) for k in (0, 1))

    def factor(sub, mask, p):
        if sub == mask:
            return p, p
        (sub_high, sub_low), (all_high, all_low) = mass(sub), mass(mask)
        return p * sub_high / all_high, p * sub_low / all_low

    def check_budget(live, t):
        if live > max_scenarios:
            raise ScenarioBudgetError(f"{live} live states at period {t} exceed "
                                      f"the {max_scenarios} scenario budget")

    masks = tuple((1 << model.n_atoms) - 1 if d >= 0 else 0 for d in last)
    states = {((NEVER,) * network.n, masks): [ONE, ONE, [-math.inf] * network.n]}
    finished = {}
    t = 0
    while states:
        following = {}
        for (times, masks), (w_high, w_low, last_cue) in states.items():
            active = active_agents([i for i in network.agents if masks[i]],
                                   t, spont, lag, last_cue)
            if not active:
                total = finished.setdefault(times, [ZERO, ZERO])
                total[0] += w_high
                total[1] += w_low
                continue
            branches = [(w_high, w_low, ())]
            fixed = []
            for i in active:
                view = NeighborTimes(network.out_neighbors(i), times)
                sure = {True: 0, False: 0}
                splits = []
                for a in range(model.n_atoms):
                    if masks[i] >> a & 1:
                        ctx = DecisionContext(
                            agent=i, period=t, atom=a, belief=beliefs[a],
                            times=view, network=network)
                        p = as_fraction(strategies[i].adopt_probability(ctx))
                        if p == 1 or p == 0:
                            sure[p == 1] |= 1 << a
                        else:
                            splits += [(True, 1 << a, p), (False, 1 << a, 1 - p)]
                splits += [(adopt, sub, ONE) for adopt, sub in sure.items() if sub]
                outcomes = {}
                for adopt, sub, p in splits:
                    pick = (i, adopt, 0 if adopt or last[i] == t else sub)
                    f, g = factor(sub, masks[i], p), outcomes.get(pick)
                    outcomes[pick] = f if g is None else (f[0] + g[0], f[1] + g[1])
                if len(outcomes) == 1:
                    fixed += outcomes
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
                new_times, new_cue = list(times), list(last_cue)
                record_adoptions(network, new_times, new_cue,
                                 [i for i, adopt, _ in picks if adopt], t)
                key = (tuple(new_times), tuple(new_masks))
                if key in following:
                    following[key][0] += b_high
                    following[key][1] += b_low
                else:
                    following[key] = [b_high, b_low, new_cue]
                    check_budget(len(following), t + 1)
        states = following
        t += 1
    return [Scenario(weight_high=w_high, weight_low=w_low, times=times)
            for times, (w_high, w_low) in finished.items()]


def history_tree_oracle(network, model, profile, agent, horizon,
                        max_scenarios=200_000,
                        enumerate=enumerate_scenarios_oracle):
    """(tree, runs): every history key (t, pairs), t <= horizon, of the
    frozen agent's runs, with the summed (weight_high, weight_low)."""
    scenarios = enumerate(network, model, profile, horizon, frozen=agent,
                          max_scenarios=max_scenarios)
    neighbors = network.out_neighbors(agent)
    tree = {}
    for s in scenarios:
        for t in range(horizon + 1):
            key = canonical_history(neighbors, s.times, t)
            w_high, w_low = tree.get(key, (ZERO, ZERO))
            tree[key] = (w_high + s.weight_high, w_low + s.weight_low)
    return tree, len(scenarios)
