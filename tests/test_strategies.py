from fractions import Fraction

import pytest

from netadopt.common import NEVER, is_never
from netadopt.networks import build_line, build_star
from netadopt.signals import binary_model
from netadopt.strategies import (
    AuxRootRule,
    CenterBayesRule,
    DecisionContext,
    FollowRule,
    NeighborTimes,
    ProtocolSigma,
    RootStrategySpec,
    ThresholdRule,
    follow_tree_neighbors,
    grid_index_of_time,
    myopic_rule,
    sigma_eta_k_step,
    strategy_from_spec,
)

Q = Fraction(3, 4)


def ctx_for(network, agent, period, times_list, belief, atom=0):
    view = NeighborTimes(network.out_neighbors(agent), times_list)
    return DecisionContext(
        agent=agent,
        period=period,
        atom=atom,
        belief=belief,
        times=view,
        network=network,
    )


# ---------------------------------------------------------------- thresholds

def test_threshold_lookup_specific_beats_wildcard():
    key = (0, ())
    rule = ThresholdRule(entries={
        (None, key): (Fraction(1, 2), Fraction(0)),
        (3, key): (Fraction(1, 4), Fraction(1)),
    })
    assert rule.lookup(3, key) == (Fraction(1, 4), Fraction(1))
    assert rule.lookup(0, key) == (Fraction(1, 2), Fraction(0))
    assert rule.lookup(0, (1, ())) is None


def test_threshold_adopt_and_mix():
    net = build_line(1)
    rule = ThresholdRule(entries={(None, (0, ())): (Fraction(1, 2), Fraction(1, 3))})
    times = [NEVER]
    above = ctx_for(net, 0, 0, times, Fraction(3, 4))
    at = ctx_for(net, 0, 0, times, Fraction(1, 2))
    below = ctx_for(net, 0, 0, times, Fraction(1, 4))
    assert rule.adopt_probability(above) == 1
    assert rule.adopt_probability(at) == Fraction(1, 3)
    assert rule.adopt_probability(below) == 0
    # unmatched history means stay out
    later = ctx_for(net, 0, 5, times, Fraction(3, 4))
    assert rule.adopt_probability(later) == 0


def test_threshold_text_round_trip():
    rule = ThresholdRule(entries={
        (None, (0, ())): (Fraction(1, 2), Fraction(1)),
        (2, (1, ((0, 0),))): (Fraction(3, 5), Fraction(0)),
    })
    back = ThresholdRule.from_text(rule.to_text())
    assert back.entries == rule.entries


def test_threshold_rejects_bad_mix():
    with pytest.raises(ValueError, match="mix_prob"):
        ThresholdRule(entries={(None, (0, ())): (Fraction(1, 2), Fraction(3, 2))})


def test_myopic_rule_weak_inequality():
    net = build_line(1)
    rule = myopic_rule(binary_model(Q))
    at_half = ctx_for(net, 0, 0, [NEVER], Fraction(1, 2))
    assert rule.adopt_probability(at_half) == 1
    assert rule.spontaneous_until == 0


# -------------------------------------------------------------------- follow

def test_follow_rule_fires_one_period_late():
    net = build_line(3, directed=True)
    rule = FollowRule(tree_neighbors={1: (0,), 2: (1,)})
    times = [2, NEVER, NEVER]
    not_yet = ctx_for(net, 1, 2, times, Q)
    on_time = ctx_for(net, 1, 3, times, Q)
    too_late = ctx_for(net, 1, 4, times, Q)
    assert rule.adopt_probability(not_yet) == 0
    assert rule.adopt_probability(on_time) == 1
    assert rule.adopt_probability(too_late) == 0
    assert rule.spontaneous_until == -1 and rule.max_reaction_lag == 1


def test_follow_tree_neighbors_validates_edges():
    net = build_line(3, directed=True)
    tree = build_line(3)  # undirected edges are not all observation edges
    with pytest.raises(ValueError, match="not an observation edge"):
        follow_tree_neighbors(net, tree)


# ------------------------------------------------------------- line protocol

def test_sigma_step_case_table():
    k = 3
    # encoding region: relay at +k+x
    assert sigma_eta_k_step(0, k, 0) == 3
    assert sigma_eta_k_step(0, k, 1) == 4
    assert sigma_eta_k_step(5, k, 1) == 9
    # decode region [(k-1)k, k^2) = [6, 9): accept iff share > 1/2
    assert sigma_eta_k_step(8, k, 1) == 9      # share 1 > 1/2
    assert is_never(sigma_eta_k_step(6, k, 0))  # share 0
    assert is_never(sigma_eta_k_step(7, k, 0))  # share 1/3
    assert sigma_eta_k_step(7, k, 1) == 9      # share 2/3
    # spread region: unit speed
    assert sigma_eta_k_step(9, k, 0) == 10
    assert sigma_eta_k_step(12, k, 1) == 13
    # never in, never out
    assert is_never(sigma_eta_k_step(NEVER, k, 1))


def test_sigma_step_validation():
    with pytest.raises(ValueError, match="k must be an int >= 3"):
        sigma_eta_k_step(0, 2, 0)
    with pytest.raises(ValueError, match="indicator x"):
        sigma_eta_k_step(0, 3, 2)
    with pytest.raises(ValueError, match="must be >= 0"):
        sigma_eta_k_step(-1, 3, 0)


def test_protocol_sigma_seeds_then_relays():
    proto = ProtocolSigma(eta=Fraction(1, 10), k=3)
    net = build_line(4)
    assert proto.adopt_probability(ctx_for(net, 2, 0, [NEVER] * 4, Q)) == Fraction(1, 10)
    # neighbor 1 adopted at 0, own belief high: relay at 0 + k + 1 = 4
    times = [NEVER, 0, NEVER, NEVER]
    assert proto.adopt_probability(ctx_for(net, 2, 3, times, Q)) == 0
    assert proto.adopt_probability(ctx_for(net, 2, 4, times, Q)) == 1


def test_protocol_sigma_left_tie_break():
    proto = ProtocolSigma(eta=Fraction(1, 10), k=3)
    net = build_line(3)
    # both neighbors adopt at 0; the left one (lower index) wins the race,
    # and a low belief keeps x = 0, so the relay lands at period 3
    times = [0, NEVER, 0]
    assert proto.adopt_probability(ctx_for(net, 1, 3, times, Fraction(1, 4))) == 1


@pytest.mark.parametrize("n,directed,ring", [
    (2, False, False), (2, True, False), (3, False, False), (3, True, False),
    (3, False, True), (3, True, True)])
@pytest.mark.parametrize("orientation", ["both", "ltr", "rtl"])
def test_protocol_sigma_reacts_only_to_its_own_sides(n, directed, ring,
                                                     orientation):
    # A line of 2 is not a ring, even though its one edge joins 0 and n - 1.
    net = build_line(n, directed=directed, ring=ring)
    proto = ProtocolSigma(eta=Fraction(1, 10), k=3, orientation=orientation)
    times = [10 + j for j in range(n)]  # distinct, all before period 20
    for agent in range(n):
        left, right = agent - 1, agent + 1
        if ring:
            left, right = left % n, right % n
        sides = {"both": (left, right), "ltr": (left,), "rtl": (right,)}
        seen = [j for j in sides[orientation]
                if j in net.out_neighbors(agent)]
        expected = min((times[j] for j in seen), default=NEVER)
        view = NeighborTimes(net.out_neighbors(agent), times)
        assert proto.decision_key(net, agent, view)() == expected
    # agent 0 of a line of 2 has no left side: under "ltr" its right-hand
    # neighbor's adoption at 0 does not start its relay at period k + 1
    line = build_line(2)
    ltr = ProtocolSigma(eta=Fraction(1, 10), k=3, orientation="ltr")
    assert ltr.adopt_probability(ctx_for(line, 0, 4, [NEVER, 0], Q)) == 0
    assert ProtocolSigma(eta=Fraction(1, 10), k=3).adopt_probability(
        ctx_for(line, 0, 4, [NEVER, 0], Q)) == 1


def test_protocol_sigma_rejects_non_line():
    proto = ProtocolSigma(eta=Fraction(1, 10), k=3)
    star = build_star(3, directed=False)
    with pytest.raises(ValueError, match="labeled line or ring"):
        proto.adopt_probability(ctx_for(star, 0, 1, [NEVER, 0, NEVER, NEVER], Q))


def test_protocol_sigma_validation():
    with pytest.raises(ValueError, match="eta"):
        ProtocolSigma(eta=Fraction(0), k=3)
    with pytest.raises(ValueError, match="k must be an int >= 3"):
        ProtocolSigma(eta=Fraction(1, 2), k=1)
    with pytest.raises(ValueError, match="orientation"):
        ProtocolSigma(eta=Fraction(1, 2), k=3, orientation="up")


# ------------------------------------------------------------- root families

def test_grid_index_of_time():
    delta = Fraction(1, 2)
    assert grid_index_of_time(Fraction(0), delta) == 0
    assert grid_index_of_time(Fraction(1, 2), delta) == 1
    assert grid_index_of_time(Fraction(3, 4), delta) == 2
    assert is_never(grid_index_of_time(Fraction(1), delta))
    with pytest.warns(UserWarning, match="off the geometric grid"):
        assert grid_index_of_time(Fraction(3, 5), delta) == 1


def test_aux_root_rule_family2_jump():
    rule = AuxRootRule(spec=RootStrategySpec(family=2, r=Fraction(1, 2)),
                       delta=Fraction(1, 2))
    net = build_directed_root()
    # cutoff period m = 1; children: first never (late), second at 0 (early)
    times = [NEVER, NEVER, 0]
    high = ctx_for(net, 0, 2, times, Q)
    low = ctx_for(net, 0, 2, times, Fraction(1, 4))
    assert rule.adopt_probability(high) == 1
    assert rule.adopt_probability(low) == 0
    # shadow route: first child adopted at 3 -> fire at 4
    times = [NEVER, 3, 0]
    assert rule.adopt_probability(ctx_for(net, 0, 4, times, Fraction(1, 4))) == 1


def build_directed_root():
    from netadopt.networks import Network
    return Network(n=3, edges=frozenset({(0, 1), (0, 2)}))


def test_aux_root_rule_needs_two_children():
    rule = AuxRootRule(spec=RootStrategySpec(family=1, r=Fraction(0)),
                       delta=Fraction(1, 2))
    net = build_line(2, directed=True)
    with pytest.raises(ValueError, match="exactly 2 observed children"):
        rule.adopt_probability(ctx_for(net, 1, 1, [0, NEVER], Q))


# ---------------------------------------------------------------- hub pooling

def test_center_bayes_rule_counts_votes():
    model = binary_model(Fraction(3, 5))
    rule = CenterBayesRule(model=model, period=1)
    net = build_star(3)
    # own high atom + 2 of 3 leaves adopted: odds favor high
    times = [NEVER, 0, 0, NEVER]
    assert rule.adopt_probability(ctx_for(net, 0, 1, times, Q, atom=0)) == 1
    # own low atom + 1 of 3 adopted: odds favor low
    times = [NEVER, 0, NEVER, NEVER]
    assert rule.adopt_probability(ctx_for(net, 0, 1, times, Fraction(1, 4), atom=1)) == 0
    # wrong period stays out regardless
    assert rule.adopt_probability(ctx_for(net, 0, 2, [NEVER, 0, 0, 0], Q, atom=0)) == 0


def test_center_bayes_tie_adopts():
    # d = 2 leaves, one adopted, own atom high: odds_h = q*q*(1-q) equals
    # odds_l = (1-q)*(1-q)*q only at q = 1/2, so engineer a tie via period-0
    # style symmetry with one leaf and opposing atom instead
    model = binary_model(Fraction(3, 5))
    rule = CenterBayesRule(model=model, period=1)
    net = build_star(1)
    # own low atom (2/5 vs 3/5), one adopted leaf (3/5 vs 2/5): exact tie
    times = [NEVER, 0]
    assert rule.adopt_probability(ctx_for(net, 0, 1, times, Fraction(2, 5), atom=1)) == 1


# ----------------------------------------------------------------- spec glue

def test_strategy_from_spec_kinds():
    model = binary_model(Q)
    assert strategy_from_spec("myopic", model).label == "myopic"
    sig = strategy_from_spec({"sigma": {"eta": "1/100", "k": 5}}, model)
    assert isinstance(sig, ProtocolSigma) and sig.k == 5
    # mid defaults to the midpoint of the indicator probabilities = 1/2
    assert sig.mid == Fraction(1, 2)
    aux = strategy_from_spec({"aux": {"family": 1, "r": "1/2"}}, model, delta=Fraction(1, 2))
    assert aux.spec.family == 1
    cb = strategy_from_spec({"center_bayes": {"period": 2}}, model)
    assert cb.period == 2
    rule = ThresholdRule(entries={(None, (0, ())): (Fraction(1, 2), 1)})
    back = strategy_from_spec({"threshold_table_text": rule.to_text()}, model)
    assert back.entries == rule.entries


def test_strategy_from_spec_errors():
    model = binary_model(Q)
    with pytest.raises(ValueError, match="needs delta"):
        strategy_from_spec({"aux": {"family": 1, "r": 0}}, model)
    with pytest.raises(ValueError, match="unknown strategy spec"):
        strategy_from_spec({"frontier": {}}, model)
    with pytest.raises(ValueError, match="one-key mapping"):
        strategy_from_spec(42, model)
