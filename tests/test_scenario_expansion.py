"""The forward expansion of enumerate_scenarios against a per-assignment replay.

replay_scenarios below is the enumeration the forward expansion replaced:
it replays the profile once for each assignment of signal atoms to the
agents other than the frozen one, splitting on mixing draws.  Merged by time
vector, both must give the same exact weights.  With a frozen agent the
expansion only keeps that agent's view exact, so the two must agree after
projecting each run onto what the frozen agent observes before the horizon.
"""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netadopt import solver
from netadopt.common import NEVER, as_fraction, is_never
from netadopt.networks import Network, build_directed_tree, build_line
from netadopt.signals import binary_model, grid_model
from netadopt.solver import SolveConfig, best_response, enumerate_scenarios
from netadopt.strategies import (DecisionContext, NeighborTimes,
                                 ThresholdRule, _normalize_profile,
                                 canonical_history, follow_tree_neighbors,
                                 myopic_rule)
from solver_oracle import active_agents, history_tree_oracle, record_adoptions

BINARY = binary_model(Fraction(3, 4))
GRID = grid_model(3)
ONE = Fraction(1)


def replay_scenarios(network, model, profile, horizon, frozen=None):
    """(weight_high, weight_low, times) of every run, one replay per
    signal assignment; equal time vectors are not merged."""
    strategies = _normalize_profile(network, profile)
    actors = [i for i in network.agents if i != frozen]
    spont = [s.spontaneous_until for s in strategies]
    lag = [s.max_reaction_lag for s in strategies]
    runs = []

    def run_branch(times, last_cue, remaining, t, factor, atom_of, weights):
        while True:
            active = (active_agents(remaining, t, spont, lag, last_cue)
                      if t <= horizon else [])
            if not active:
                runs.append((weights[0] * factor, weights[1] * factor,
                             tuple(times)))
                return
            sure, mixers = [], []
            for i in active:
                ctx = DecisionContext(
                    agent=i, period=t, atom=atom_of[i],
                    belief=model.beliefs[atom_of[i]],
                    times=NeighborTimes(network.out_neighbors(i), times),
                    network=network)
                p = as_fraction(strategies[i].adopt_probability(ctx))
                if p == 1:
                    sure.append(i)
                elif p != 0:
                    mixers.append((i, p))
            if not mixers:
                record_adoptions(network, times, last_cue, sure, t)
                remaining = [i for i in remaining if is_never(times[i])]
                t += 1
                continue
            for bits in itertools.product((False, True), repeat=len(mixers)):
                sub_factor = factor
                adopting = list(sure)
                for (i, p), adopt in zip(mixers, bits):
                    adopting += [i] if adopt else []
                    sub_factor *= p if adopt else 1 - p
                new_times, new_cue = list(times), list(last_cue)
                record_adoptions(network, new_times, new_cue, adopting, t)
                run_branch(new_times, new_cue,
                           [i for i in remaining if is_never(new_times[i])],
                           t + 1, sub_factor, atom_of, weights)
            return

    for assignment in itertools.product(range(model.n_atoms), repeat=len(actors)):
        weights = [ONE, ONE]
        for a in assignment:
            weights[0] *= model.atoms[a][0]
            weights[1] *= model.atoms[a][1]
        run_branch([NEVER] * network.n, [-math.inf] * network.n, list(actors),
                   0, ONE, dict(zip(actors, assignment)), weights)
    return runs


def merged(runs, project=lambda times: times):
    out = {}
    for w_high, w_low, times in runs:
        total = out.setdefault(project(times), [0, 0])
        total[0] += w_high
        total[1] += w_low
    return {k: tuple(v) for k, v in out.items()}


def expanded(network, model, profile, horizon, frozen=None):
    scenarios = enumerate_scenarios(network, model, profile, horizon,
                                    frozen=frozen)
    return [(s.weight_high, s.weight_low, s.times) for s in scenarios]


@st.composite
def instances(draw):
    n = draw(st.integers(1, 5))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True,
                          max_size=min(len(pairs), 7))) if pairs else []
    network = Network(n=n, edges=frozenset(edges))
    model = draw(st.sampled_from((BINARY, GRID)))
    horizon = draw(st.integers(0, 3))
    thresholds = st.sampled_from(sorted(set(model.beliefs) | {Fraction(1, 2)}))
    mixes = st.sampled_from((Fraction(0), Fraction(1, 3), Fraction(1, 2), ONE))
    profile = {}
    for i in network.agents:
        if draw(st.booleans()):
            profile[i] = myopic_rule(model)
            continue
        entries = {}
        for _ in range(draw(st.integers(0, 4))):
            t = draw(st.integers(0, horizon))
            seen = draw(st.lists(st.sampled_from(network.out_neighbors(i)),
                                 unique=True)) if t and network.out_neighbors(i) else []
            key = (t, tuple(sorted((j, draw(st.integers(0, t - 1))) for j in seen)))
            entries[(i, key)] = (draw(thresholds), draw(mixes))
        profile[i] = ThresholdRule(entries=entries)
    return network, model, profile, horizon


@settings(max_examples=150, deadline=None)
@given(instances())
def test_expansion_equals_replay_merged_by_time_vector(instance):
    network, model, profile, horizon = instance
    runs = expanded(network, model, profile, horizon)
    assert len({times for _, _, times in runs}) == len(runs)
    assert merged(runs) == merged(replay_scenarios(network, model, profile,
                                                   horizon))
    assert sum(w for w, _, _ in runs) == 1 == sum(w for _, w, _ in runs)


@settings(max_examples=150, deadline=None)
@given(instances())
def test_frozen_expansion_equals_replay_on_the_observed_window(instance):
    network, model, profile, horizon = instance
    for frozen in network.agents:
        def seen(times):
            return canonical_history(network.out_neighbors(frozen), times,
                                     horizon)[1]

        new = merged(expanded(network, model, profile, horizon, frozen), seen)
        old = merged(replay_scenarios(network, model, profile, horizon,
                                      frozen), seen)
        assert new == old


def test_light_cone_leaves_far_agents_out():
    # On a directed line agent i observes i - 1; agent 0 adopts on a high
    # signal and every other agent one period after its left neighbour.
    net = build_line(6, directed=True)
    profile = {i: follow_tree_neighbors(net) for i in net.agents}
    profile[0] = myopic_rule(BINARY)
    # Agent 0 is 5 steps from the frozen agent 5: at horizon 4 its signal
    # cannot reach agent 5 in time, so nobody ever adopts.
    (only,) = enumerate_scenarios(net, BINARY, profile, horizon=4, frozen=5)
    assert all(is_never(tau) for tau in only.times)
    assert only.weight_high == only.weight_low == 1
    # At horizon 5 it can, and agent 4's adoption at 4 is observed in time.
    scen = enumerate_scenarios(net, BINARY, profile, horizon=5, frozen=5)
    assert sorted((s.times, s.weight_high) for s in scen) == [
        ((0, 1, 2, 3, 4, NEVER), Fraction(3, 4)),
        ((NEVER,) * 6, Fraction(1, 4))]


def _line_profile(model):
    return {0: myopic_rule(model),
            1: ThresholdRule(entries={
                (1, (0, ())): (Fraction(3, 4), Fraction(1, 2)),
                (1, (1, ((0, 0),))): (Fraction(1, 4), ONE),
                (1, (1, ((2, 0),))): (Fraction(1, 4), Fraction(1, 3))}),
            2: myopic_rule(model),
            3: ThresholdRule(entries={(3, (1, ((2, 0),))): (Fraction(1, 2), ONE)})}


@pytest.mark.parametrize("network, model, profile, horizon", [
    (build_line(3), BINARY, myopic_rule(BINARY), 3),
    (build_line(4), BINARY, _line_profile(BINARY), 3),
    (build_line(4, ring=True), GRID, myopic_rule(GRID), 2),
    (build_directed_tree(2, 2), BINARY, myopic_rule(BINARY), 2),
])
def test_best_response_tables_match_the_replay(network, model, profile,
                                                horizon, monkeypatch):
    cfg = SolveConfig(delta=Fraction(9, 10), horizon=horizon)
    new = [best_response(network, model, profile, i, cfg).entries
           for i in network.agents]

    def replay(network, model, profile, horizon, frozen=None,
               max_scenarios=None):
        return [solver.Scenario(weight_high=h, weight_low=l, times=times)
                for times, (h, l) in merged(replay_scenarios(
                    network, model, profile, horizon, frozen)).items()]

    def replay_tree(network, model, profile, agent, horizon, max_scenarios):
        return history_tree_oracle(network, model, profile, agent, horizon,
                                   max_scenarios, enumerate=replay)

    monkeypatch.setattr(solver, "_history_tree", replay_tree)
    old = [best_response(network, model, profile, i, cfg).entries
           for i in network.agents]
    assert new == old
    assert any(new)
