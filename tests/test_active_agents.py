"""The engine asks only agents that can still act, each distinct decision
once; nothing else changes.

An agent can act at period t while t is at most its deadline,
max(spontaneous_until, latest observed adoption + max_reaction_lag), with
no deadline when the lag is None.  run_profile keeps each deadline as
adoptions happen and asks only the agents on its awake list whose deadline
has not passed.  The reference loop below asks every remaining agent in
every period and stops only when none of them can act.  Runs that share
one _RunPlan (estimate's replications) keep one answer dict per strategy
object, shared by the agents that hold it, and reuse what it holds: while
none of an agent's observed agents has adopted, the answer is filed under
(agent, period, atom) packed into one int; after that, under (period,
atom, history part), the history part read through the function that the
strategy's decision_key returns, once per period with an observed adoption.
ProtocolSigma's history part is the earliest side adoption and
CenterBayesRule's is (observed count, adopted count); the other rules are
asked at every such decision.  The second reference below is the loop
that asked every active agent afresh in every run, with the activity rule
above and the adoption update written out in it.  All must give the same
trace, and consume the same random draws, for every replication.
"""

import math
import random
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from netadopt.common import NEVER, STATE_HIGH, STATE_LOW, is_never
from netadopt.engine import (ActionTrace, DecisionContext, NeighborTimes,
                             _RunPlan, _replication_rng, run_profile,
                             sigma_ring_times)
from netadopt.networks import Network, build_line, build_star
from netadopt.signals import binary_model, grid_model, sample_atoms
from netadopt.strategies import (AuxRootRule, CenterBayesRule, FollowRule,
                                 ProtocolSigma, RootStrategySpec,
                                 ThresholdRule, strategy_from_spec)

BINARY = binary_model(Fraction(3, 4))
GRID = grid_model(5)
DELTA = Fraction(1, 2)


def reference_run(network, model, strategies, horizon, rng):
    """run_profile without the activity gate: every remaining agent is
    asked every period until no remaining agent can ever act again."""
    state = STATE_HIGH if rng.integers(0, 2) == 0 else STATE_LOW
    atoms = [int(a) for a in sample_atoms(model, state, network.n, rng)]
    times = [NEVER] * network.n
    views = [NeighborTimes(network.out_neighbors(i), times)
             for i in network.agents]
    remaining = list(network.agents)
    quiescent_at = None

    def can_act(i, t):
        s = strategies[i]
        cues = [times[j] for j in network.out_neighbors(i)
                if not is_never(times[j])]
        last_cue = max(cues, default=-math.inf)
        return (s.spontaneous_until >= t or s.max_reaction_lag is None
                or last_cue + s.max_reaction_lag >= t)

    for t in range(horizon + 1):
        if remaining and not any(can_act(i, t) for i in remaining):
            quiescent_at = t
            break
        adopting = []
        for i in remaining:
            ctx = DecisionContext(agent=i, period=t, atom=atoms[i],
                                  belief=model.beliefs[atoms[i]],
                                  times=views[i], network=network)
            p = strategies[i].adopt_probability(ctx)
            if p == 1 or (p != 0 and rng.random() < float(p)):
                adopting.append(i)
        for i in adopting:
            times[i] = t
        remaining = [i for i in remaining if is_never(times[i])]
    return ActionTrace(
        times=tuple(times), horizon=horizon, state=state, atoms=tuple(atoms),
        beliefs=tuple(float(model.beliefs[a]) for a in atoms),
        truncated=bool(remaining) and quiescent_at is None,
        quiescent_at=quiescent_at)


def ask_active_run(network, model, strategies, horizon, rng):
    """run_profile before the shared table: a fresh view of every agent in
    each run, and every active agent asked in every period."""
    state = STATE_HIGH if rng.integers(0, 2) == 0 else STATE_LOW
    atoms = [int(a) for a in sample_atoms(model, state, network.n, rng)]
    times = [NEVER] * network.n
    views = [NeighborTimes(network.out_neighbors(i), times)
             for i in network.agents]
    spont = [s.spontaneous_until for s in strategies]
    lag = [s.max_reaction_lag for s in strategies]
    last_cue = [-math.inf] * network.n
    remaining = list(network.agents)
    quiescent_at = None
    for t in range(horizon + 1):
        active = [i for i in remaining
                  if spont[i] >= t or lag[i] is None
                  or last_cue[i] + lag[i] >= t]
        if not active:
            if remaining:
                quiescent_at = t
            break
        adopting = []
        for i in active:
            ctx = DecisionContext(agent=i, period=t, atom=atoms[i],
                                  belief=model.beliefs[atoms[i]],
                                  times=views[i], network=network)
            p = strategies[i].adopt_probability(ctx)
            if p == 1:
                adopting.append(i)
            elif p != 0:
                if rng.random() < float(p):
                    adopting.append(i)
        for i in adopting:
            times[i] = t
            for watcher in network.in_neighbors(i):
                last_cue[watcher] = max(last_cue[watcher], t)
        remaining = [i for i in remaining if is_never(times[i])]
    return ActionTrace(
        times=tuple(times), horizon=horizon, state=state, atoms=tuple(atoms),
        beliefs=tuple(float(model.beliefs[a]) for a in atoms),
        truncated=bool(remaining) and quiescent_at is None,
        quiescent_at=quiescent_at)


@st.composite
def networks(draw):
    n = draw(st.integers(3, 7))
    kind = draw(st.sampled_from(("line", "star", "random")))
    if kind == "line":
        return build_line(n, directed=draw(st.booleans()),
                          ring=draw(st.booleans()))
    if kind == "star":
        return build_star(n - 1, directed=draw(st.booleans()))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=3 * n))
    return Network(n=n, edges=frozenset(edges))


def _line_compatible(network, i):
    n = network.n
    ring = (0, n - 1) in network.edges or (n - 1, 0) in network.edges
    sides = {(i - 1) % n, (i + 1) % n} if ring else {i - 1, i + 1}
    return set(network.out_neighbors(i)) <= sides


@st.composite
def threshold_rules(draw, network, model, agent):
    """Tables whose entries can fire, including mixing at the threshold."""
    cuts = sorted(set(model.beliefs) | {Fraction(0), Fraction(1, 2)})
    observed = network.out_neighbors(agent)
    entries = {}
    for _ in range(draw(st.integers(0, 4))):
        t = draw(st.integers(0, 3))
        seen = draw(st.lists(st.sampled_from(observed), unique=True,
                             max_size=2)) if observed and t > 0 else []
        pairs = tuple((j, draw(st.integers(0, t - 1))) for j in seen)
        who = draw(st.sampled_from((agent, None))) if not pairs else agent
        entries[(who, (t, pairs))] = (
            draw(st.sampled_from(cuts)),
            draw(st.sampled_from((Fraction(0), Fraction(1, 3), Fraction(1)))))
    return ThresholdRule(entries=entries)


@st.composite
def profiles(draw):
    network = draw(networks())
    model = draw(st.sampled_from((BINARY, GRID)))
    follow = FollowRule(tree_neighbors={
        i: draw(st.lists(st.sampled_from(network.out_neighbors(i)),
                         unique=True)) if network.out_neighbors(i) else ()
        for i in network.agents})
    strategies = []
    for i in network.agents:
        kinds = ["threshold", "follow", "center"]
        if _line_compatible(network, i):
            kinds.append("sigma")
        if len(network.out_neighbors(i)) == 2:
            kinds.append("aux")
        kind = draw(st.sampled_from(kinds))
        if kind == "threshold":
            strategies.append(draw(threshold_rules(network, model, i)))
        elif kind == "follow":
            strategies.append(follow)
        elif kind == "center":
            strategies.append(CenterBayesRule(
                model=model, period=draw(st.integers(0, 3))))
        elif kind == "sigma":
            strategies.append(ProtocolSigma(
                eta=draw(st.sampled_from((Fraction(1, 4), Fraction(1, 2)))),
                k=draw(st.sampled_from((3, 4))), orientation=draw(st.sampled_from(("both", "ltr", "rtl")))))
        else:
            m = draw(st.integers(0, 4))
            r = Fraction(1) if m == 4 else 1 - DELTA ** m
            strategies.append(AuxRootRule(
                spec=RootStrategySpec(family=draw(st.sampled_from((1, 2))),
                                      r=r),
                delta=DELTA))
    return network, model, strategies


@settings(max_examples=150, deadline=None)
@given(profiles(), st.integers(0, 12), st.integers(0, 2**32 - 1))
def test_run_profile_matches_the_ask_everyone_reference(case, horizon, seed):
    network, model, strategies = case
    for rep in range(4):
        rng = _replication_rng(seed, rep)
        ref_rng = _replication_rng(seed, rep)
        trace = run_profile(network, model, strategies, horizon, rng)
        expected = reference_run(network, model, strategies, horizon, ref_rng)
        assert trace == expected
        # the same draws were consumed from the replication stream
        assert rng.bit_generator.state == ref_rng.bit_generator.state


# Horizons reach k * k + 4 for k = 4, so the relay protocol's decode stage
# (period k * k) and its spread stage are reached too.
@settings(max_examples=150, deadline=None)
@given(profiles(), st.integers(0, 20), st.integers(0, 2**32 - 1))
def test_runs_sharing_one_plan_match_asking_every_run(case, horizon, seed):
    network, model, strategies = case
    plan = _RunPlan(network, model, strategies)
    periods = horizon + 1
    for rep in range(8):
        rng = _replication_rng(seed, rep)
        ref_rng = _replication_rng(seed, rep)
        trace = run_profile(network, model, strategies, horizon, rng,
                            _plan=plan)
        expected = ask_active_run(network, model, strategies, horizon, ref_rng)
        assert trace == expected
        assert rng.bit_generator.state == ref_rng.bit_generator.state
    # One answer dict per strategy object, named for every agent holding it.
    holders = {}
    for i, s in enumerate(strategies):
        holders.setdefault(id(s), []).append(i)
    for agents in holders.values():
        assert all(plan.memos[i] is plan.memos[agents[0]] for i in agents)
    assert len({id(m) for m in plan.memos}) == len(holders)
    quiet = 0
    for agents in holders.values():
        strategy, memo = strategies[agents[0]], plan.memos[agents[0]]
        keyed = [key for key in memo if isinstance(key, tuple)]
        quiet += len(memo) - len(keyed)
        # After a cue, only keyed rules file answers: ProtocolSigma per
        # (period, atom, earliest side adoption or NEVER), CenterBayesRule
        # per (period, atom, (observed count, adopted count)).
        if isinstance(strategy, ProtocolSigma):
            assert len(keyed) <= periods * model.n_atoms * periods
        elif isinstance(strategy, CenterBayesRule):
            assert len(keyed) <= (len(agents) * periods * model.n_atoms
                                  * network.n)
        else:
            assert not keyed
    # At most one quiet answer per (agent, period, atom), all told.
    assert quiet <= network.n * periods * model.n_atoms


@st.composite
def keyed_strategies(draw):
    network = draw(networks())
    model = draw(st.sampled_from((BINARY, GRID)))
    if draw(st.booleans()):
        strategy = ProtocolSigma(
            eta=Fraction(1, 4), k=draw(st.sampled_from((3, 4))),
            orientation=draw(st.sampled_from(("both", "ltr", "rtl"))))
    else:
        strategy = CenterBayesRule(model=model, period=draw(st.integers(0, 3)))
    return network, model, strategy


# Periods and adoption times are kept small, so that many of the drawn
# decisions share a key; decode (period k * k) is still reached for k = 3.
# As in the engine, every adoption the history part reads is before the
# period of the decision.
@settings(max_examples=150, deadline=None)
@given(keyed_strategies(), st.integers(0, 2**32 - 1))
def test_equal_decision_keys_give_equal_answers(case, seed):
    network, model, strategy = case
    rnd = random.Random(seed)
    answers = {}
    for _ in range(200):
        agent = rnd.randrange(network.n)
        t, atom = rnd.randrange(12), rnd.randrange(model.n_atoms)
        times = [rnd.choice((NEVER, rnd.randrange(t))) if t else NEVER
                 for _ in network.agents]
        view = NeighborTimes(network.out_neighbors(agent), times)
        history = strategy.decision_key(network, agent, view)
        if history is None:  # off a line: ProtocolSigma gives no key
            assert isinstance(strategy, ProtocolSigma)
            continue
        p = strategy.adopt_probability(DecisionContext(
            agent=agent, period=t, atom=atom, belief=model.beliefs[atom],
            times=view, network=network))
        assert answers.setdefault((t, atom, history()), p) == p


def _outcome(run, *args, **kwargs):
    try:
        return run(*args, **kwargs)
    except ValueError as exc:
        return str(exc)


def test_relay_protocol_off_a_line_fails_at_the_same_decision():
    # On an undirected star, leaves other than 1 observe the hub, which is
    # not a line neighbor: the first such leaf asked after the hub adopts
    # raises, with or without a shared plan, after the same draws.
    network = build_star(4, directed=False)
    strategies = [ProtocolSigma(eta=Fraction(1, 2), k=3)] * network.n
    plan = _RunPlan(network, BINARY, strategies)
    failures = 0
    for rep in range(12):
        rng, ref_rng = _replication_rng(5, rep), _replication_rng(5, rep)
        got = _outcome(run_profile, network, BINARY, strategies, 6, rng,
                       _plan=plan)
        expected = _outcome(ask_active_run, network, BINARY, strategies, 6,
                            ref_rng)
        assert got == expected
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        if isinstance(got, str):
            assert "labeled line or ring" in got
            failures += 1
    assert 0 < failures < 12


def _product_table(model, atom, max_observed):
    """Direct Fraction products, one factor per neighbor, for every
    (observed, adopted) pair: odds[observed][adopted] per state."""
    p_high, p_low = model.indicator_probs()
    lh, ll = model.atoms[atom]
    rows = [[(lh, ll)]]
    for _ in range(max_observed):
        prev = rows[-1]
        row = []
        for adopted in range(len(prev) + 1):
            # the new neighbor stayed out (from prev[adopted]) or adopted
            # (from prev[adopted - 1])
            if adopted < len(prev):
                h, l = prev[adopted]
                row.append((h * (1 - p_high), l * (1 - p_low)))
            else:
                h, l = prev[adopted - 1]
                row.append((h * p_high, l * p_low))
        rows.append(row)
    return rows


def test_center_bayes_table_equals_the_direct_product():
    # The table of answers over every atom, observed count up to 100 and
    # adopted count: each is the direct product's verdict, and each decision
    # has its own history part.
    for model in (BINARY, GRID):
        rule = CenterBayesRule(model=model, period=1)
        for atom in range(model.n_atoms):
            rows = _product_table(model, atom, 100)
            for observed in range(101):
                for adopted in range(observed + 1):
                    times = [0] * adopted + [NEVER] * (observed - adopted)
                    view = NeighborTimes(tuple(range(observed)), times)
                    h, l = rows[observed][adopted]
                    p = rule.adopt_probability(DecisionContext(
                        agent=observed, period=1, atom=atom,
                        belief=model.beliefs[atom], times=view, network=None))
                    assert p == (1 if h >= l else 0), (atom, observed, adopted)
                    history = rule.decision_key(None, observed, view)
                    assert history() == (observed, adopted)


def test_a_hub_cued_twice_reads_its_second_cue():
    # The leaves of a directed star adopt at period 0 on a high belief and
    # at period 1 on a middling one; the hub decides at period 2 on every
    # adoption before it.  A history part left at its first cue's value
    # would count only the period-0 adopters.
    network = build_star(6)
    leaf = ThresholdRule(entries={
        (None, (0, ())): (Fraction(13, 20), Fraction(1, 2)),
        (None, (1, ())): (Fraction(7, 20), Fraction(1, 3))})
    strategies = [CenterBayesRule(model=GRID, period=2)] + [leaf] * 6
    plan = _RunPlan(network, GRID, strategies)
    twice = 0
    for rep in range(200):
        rng, ref_rng = _replication_rng(11, rep), _replication_rng(11, rep)
        trace = run_profile(network, GRID, strategies, 3, rng, _plan=plan)
        expected = reference_run(network, GRID, strategies, 3, ref_rng)
        assert trace == expected, rep
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        twice += {0, 1} <= set(trace.times[1:])
    assert twice > 50  # most runs cue the hub in both periods


def test_relay_ring_workload_matches_the_references():
    # The shape of perfbench's mc_relay_ring: a ring of 60 under the relay
    # protocol (eta 0.1, k 3) to horizon 30, replications sharing a plan.
    n, k, horizon = 60, 3, 30
    ring = build_line(n, ring=True)
    model = binary_model(Fraction(3, 4))
    proto = strategy_from_spec({"sigma": {"eta": 0.1, "k": k}}, model)
    strategies = [proto] * n
    high_bit = np.array([1 if b >= Fraction(1, 2) else 0 for b in model.beliefs])
    plan = _RunPlan(ring, model, proto)
    for rep in range(40):
        rng, ref_rng = _replication_rng(7, rep), _replication_rng(7, rep)
        trace = run_profile(ring, model, proto, horizon, rng, _plan=plan)
        expected = reference_run(ring, model, strategies, horizon, ref_rng)
        assert trace == expected, rep
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        # sigma_ring_times reads the same stream: state, atoms, seed coins
        closed_rng = _replication_rng(7, rep)
        state = STATE_HIGH if closed_rng.integers(0, 2) == 0 else STATE_LOW
        atoms = sample_atoms(model, state, n, closed_rng)
        closed = sigma_ring_times(closed_rng.random(n) < 0.1, high_bit[atoms], k)
        closed[closed > horizon] = np.inf
        assert trace.times == tuple(closed.tolist()), rep
