"""The one-pass history trees against two references.

solver_oracle keeps the expansion that listed every run with Fraction
weights and keyed the runs afterwards.  On random small instances the
one-pass trees must equal it exactly: the same keys, the same weights, the
same number of runs, and a ScenarioBudgetError at the same budget.

The engine gives a second reference that shares no code with either
expansion: with the tree's agent pinned to never adopt, one run_profile per
assignment of signal atoms, weighted by its likelihoods, must add up to the
tree on every key.
"""

import itertools
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from netadopt.common import STATE_HIGH
from netadopt.engine import run_profile
from netadopt.networks import (Network, build_directed_tree, build_line,
                               build_star)
from netadopt.signals import SignalModel, binary_model, grid_model
from netadopt.solver import (ScenarioBudgetError, _history_tree,
                             enumerate_scenarios)
from netadopt.strategies import (FollowRule, Strategy, ThresholdRule,
                                 canonical_history, myopic_rule)
from solver_oracle import enumerate_scenarios_oracle, history_tree_oracle

BINARY = binary_model(Fraction(3, 4))
GRID = grid_model(3)
# Read from floats, its likelihoods under H sum to 1 only within the
# model's tolerance, so weights must be divided by the mass of all atoms.
FLOATS = SignalModel(atoms=((0.1 + 0.2, 0.5), (0.2, 0.3), (0.5, 0.2)))
MIXES = (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1))


def test_float_model_sums_to_one_only_within_tolerance():
    assert FLOATS.sum_high != 1 and abs(FLOATS.sum_high - 1) < Fraction(1, 10**12)


@st.composite
def networks(draw, max_agents=7):
    kind = draw(st.sampled_from(("line", "ring", "tree", "star", "dag")))
    if kind == "line":
        return build_line(draw(st.integers(1, 5)), directed=draw(st.booleans()))
    if kind == "ring":
        return build_line(draw(st.integers(3, 5)), directed=draw(st.booleans()),
                          ring=True)
    if kind == "tree":
        sizes = [(2, 1), (3, 1), (4, 1)] + [(2, 2)] * (max_agents >= 7)
        return build_directed_tree(*draw(st.sampled_from(sizes)))
    if kind == "star":
        return build_star(draw(st.integers(1, 4)), directed=draw(st.booleans()))
    n = draw(st.integers(2, 5))
    edges = draw(st.lists(st.sampled_from(
        [(i, j) for i in range(n) for j in range(i)]), unique=True, max_size=6))
    return Network(n=n, edges=frozenset(edges))


@st.composite
def instances(draw, mixes=MIXES, max_agents=7):
    network = draw(networks(max_agents))
    model = draw(st.sampled_from((BINARY, GRID, FLOATS)))
    horizon = draw(st.integers(0, 3))
    thresholds = st.sampled_from(sorted(set(model.beliefs) | {Fraction(1, 2)}))
    profile = {}
    for i in network.agents:
        seen = network.out_neighbors(i)
        kind = draw(st.sampled_from(("myopic", "table", "follow")))
        if kind == "myopic":
            profile[i] = myopic_rule(model)
        elif kind == "follow":
            profile[i] = FollowRule(tree_neighbors={i: draw(st.lists(
                st.sampled_from(seen), unique=True)) if seen else []})
        else:
            entries = {}
            for _ in range(draw(st.integers(0, 4))):
                t = draw(st.integers(0, horizon))
                adopted = draw(st.lists(st.sampled_from(seen), unique=True)) \
                    if t and seen else []
                key = (t, tuple(sorted((j, draw(st.integers(0, t - 1)))
                                       for j in adopted)))
                entries[(i, key)] = (draw(thresholds),
                                     draw(st.sampled_from(mixes)))
            profile[i] = ThresholdRule(entries=entries)
    return network, model, profile, horizon


class Counted(Strategy):
    """Another strategy's answers, with every question it was asked."""

    def __init__(self, inner, asked):
        self.inner, self.asked = inner, asked
        self.spontaneous_until = inner.spontaneous_until
        self.max_reaction_lag = inner.max_reaction_lag

    def adopt_probability(self, ctx):
        seen = tuple(ctx.times[j] for j in ctx.times.neighbors)
        self.asked.append((ctx.agent, ctx.period, seen, ctx.atom))
        return self.inner.adopt_probability(ctx)


def _outcome(build):
    try:
        return build()
    except ScenarioBudgetError as exc:
        return str(exc)


def _runs(scenarios):
    return sorted((s.times, s.weight_high, s.weight_low) for s in scenarios)


@settings(max_examples=150, deadline=None)
@given(instances())
def test_one_pass_trees_equal_the_oracle(instance):
    network, model, profile, horizon = instance
    for agent in network.agents:
        assert _history_tree(network, model, profile, agent, horizon,
                             200_000) == history_tree_oracle(
            network, model, profile, agent, horizon)
    runs = enumerate_scenarios(network, model, profile, horizon)
    assert len(runs) == len({s.times for s in runs})
    # One build asks each (agent, period, observed times, atom) at most once.
    asked = []
    enumerate_scenarios(network, model, {i: Counted(rule, asked)
                                         for i, rule in profile.items()},
                        horizon)
    assert len(asked) == len(set(asked))
    assert _runs(runs) == _runs(enumerate_scenarios_oracle(
        network, model, profile, horizon))


@settings(max_examples=100, deadline=None)
@given(instances(), st.integers(1, 8))
def test_budget_errors_equal_the_oracle(instance, budget):
    network, model, profile, horizon = instance
    for agent in network.agents:
        assert _outcome(lambda: _history_tree(
            network, model, profile, agent, horizon, budget)) == _outcome(
            lambda: history_tree_oracle(network, model, profile, agent,
                                        horizon, budget))
    assert _outcome(lambda: _runs(enumerate_scenarios(
        network, model, profile, horizon, max_scenarios=budget))) == _outcome(
        lambda: _runs(enumerate_scenarios_oracle(
            network, model, profile, horizon, max_scenarios=budget)))


@settings(max_examples=60, deadline=None)
@given(instances(mixes=(Fraction(0), Fraction(1)), max_agents=5))
def test_trees_equal_weighted_engine_runs(instance):
    network, model, profile, horizon = instance
    for agent in network.agents:
        pinned = {**profile, agent: ThresholdRule()}  # never adopts
        others = [j for j in network.agents if j != agent]
        tree = {}
        for assignment in itertools.product(range(model.n_atoms),
                                            repeat=len(others)):
            atoms = [0] * network.n
            w_high = w_low = Fraction(1)
            for j, a in zip(others, assignment):
                atoms[j] = a
                w_high *= model.atoms[a][0] / model.sum_high
                w_low *= model.atoms[a][1] / model.sum_low
            times = run_profile(network, model, pinned, horizon,
                                np.random.default_rng(0), state=STATE_HIGH,
                                atoms=atoms).times
            for t in range(horizon + 1):
                key = canonical_history(network.out_neighbors(agent), times, t)
                h, l = tree.get(key, (0, 0))
                tree[key] = (h + w_high, l + w_low)
        assert tree == _history_tree(network, model, profile, agent, horizon,
                                     200_000)[0]
