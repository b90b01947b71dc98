"""Per-agent never-adopt history trees against the joint enumeration.

joint_verify_structure below is the structure check the history trees
replaced: it reads every joint run of the profile, so its cost grows as
2^k with k agents deciding independently at period 0.  The tree-based
verify_structure must give the same three verdicts and the same set of
violation messages, each once; exact_posterior must equal the sum over the
frozen agent's runs that show the history, at every history it can reach.
"""

from dataclasses import dataclass
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from netadopt.common import as_fraction, is_never
from netadopt.networks import Network, analyze, build_line
from netadopt.signals import binary_model, grid_model
from netadopt.solver import (SolveConfig, StructureChecks, _is_threshold_shape,
                             enumerate_scenarios, exact_posterior,
                             verify_structure)
from netadopt.strategies import (AuxRootRule, CenterBayesRule,
                                 DecisionContext, FollowRule, NeighborTimes,
                                 RootStrategySpec, Strategy, ThresholdRule,
                                 _normalize_profile, canonical_history,
                                 myopic_rule)

BINARY = binary_model(Fraction(3, 4))
GRID = grid_model(3)
ZERO = Fraction(0)
HALF = Fraction(1, 2)


def joint_verify_structure(network, model, profile, config):
    """The structure checks read off the joint, unfrozen enumeration."""
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
                key = canonical_history(network.out_neighbors(i), s.times, t)
                if (i, key) in seen:
                    continue
                seen.add((i, key))
                probs = []
                for a in range(model.n_atoms):
                    ctx = DecisionContext(
                        agent=i, period=t, atom=a, belief=beliefs[a],
                        times=NeighborTimes(network.out_neighbors(i), s.times),
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


@dataclass(frozen=True)
class LowSignalRule(Strategy):
    """Adopts with chance 1/2 at one period, only on the lowest belief:
    never of threshold form on more than one atom."""

    period: int
    low: Fraction

    max_reaction_lag = 0

    @property
    def spontaneous_until(self):
        return self.period

    def adopt_probability(self, ctx):
        return HALF if ctx.period == self.period and ctx.belief == self.low \
            else ZERO


@st.composite
def instances(draw):
    n = draw(st.integers(1, 5))
    if draw(st.booleans()):
        network = build_line(n, directed=draw(st.booleans()))
    else:
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        edges = draw(st.lists(st.sampled_from(pairs), unique=True,
                              max_size=min(len(pairs), 7))) if pairs else []
        network = Network(n=n, edges=frozenset(edges))
    model = draw(st.sampled_from((BINARY, GRID)))
    horizon = draw(st.integers(0, 3))
    thresholds = st.sampled_from(sorted(set(model.beliefs) | {HALF}))
    mixes = st.sampled_from((ZERO, Fraction(1, 3), HALF, Fraction(1)))
    profile = {}
    for i in network.agents:
        seen = network.out_neighbors(i)
        kinds = ["myopic", "table", "follow", "center", "low"]
        kinds += ["aux"] if len(seen) == 2 else []
        kind = draw(st.sampled_from(kinds))
        if kind == "myopic":
            profile[i] = myopic_rule(model)
        elif kind == "follow":
            watched = draw(st.lists(st.sampled_from(seen), unique=True)) \
                if seen else []
            profile[i] = FollowRule(tree_neighbors={i: watched})
        elif kind == "center":
            profile[i] = CenterBayesRule(model=model,
                                         period=draw(st.integers(0, 2)))
        elif kind == "low":
            profile[i] = LowSignalRule(period=draw(st.integers(0, horizon)),
                                       low=min(model.beliefs))
        elif kind == "aux":
            spec = RootStrategySpec(
                family=draw(st.sampled_from((1, 2))),
                r=draw(st.sampled_from((ZERO, HALF, Fraction(3, 4), 1))))
            profile[i] = AuxRootRule(spec=spec, delta=HALF)
        else:
            entries = {}
            for _ in range(draw(st.integers(0, 4))):
                t = draw(st.integers(0, horizon))
                adopted = draw(st.lists(st.sampled_from(seen), unique=True)) \
                    if t and seen else []
                key = (t, tuple(sorted((j, draw(st.integers(0, t - 1)))
                                       for j in adopted)))
                entries[(i, key)] = (draw(thresholds), draw(mixes))
            profile[i] = ThresholdRule(entries=entries)
    return network, model, profile, horizon


def filtered_weights(network, model, profile, agent, horizon):
    """{key: (weight_high, weight_low)}: for each history the frozen agent
    reaches, the summed weights of the runs that show it."""
    scenarios = enumerate_scenarios(network, model, profile, horizon,
                                    frozen=agent)
    neighbors = network.out_neighbors(agent)
    keys = {canonical_history(neighbors, s.times, t)
            for s in scenarios for t in range(horizon + 1)}
    return {(t, pairs): (
        sum(s.weight_high for s in scenarios
            if canonical_history(neighbors, s.times, t)[1] == pairs),
        sum(s.weight_low for s in scenarios
            if canonical_history(neighbors, s.times, t)[1] == pairs))
        for t, pairs in keys}


@settings(max_examples=150, deadline=None)
@given(instances())
def test_tree_checks_equal_the_joint_oracle(instance):
    network, model, profile, horizon = instance
    cfg = SolveConfig(delta=HALF, horizon=horizon)
    new = verify_structure(network, model, profile, cfg)
    old = joint_verify_structure(network, model, profile, cfg)
    assert (new.threshold_form_ok, new.state_monotone_ok,
            new.no_spontaneous_ok) == (old.threshold_form_ok,
                                       old.state_monotone_ok,
                                       old.no_spontaneous_ok)
    assert set(new.violations) == set(old.violations)
    assert len(set(new.violations)) == len(new.violations)
    assert new.scenario_count == sum(
        len(enumerate_scenarios(network, model, profile, horizon, frozen=i))
        for i in network.agents)
    for agent in network.agents:
        weights = filtered_weights(network, model, profile, agent, horizon)
        for n, (key, (w_high, w_low)) in enumerate(sorted(weights.items())):
            lh, ll = model.atoms[n % model.n_atoms]
            assert exact_posterior(
                network, model, profile, agent, key,
                model.beliefs[n % model.n_atoms], cfg) == \
                lh * w_high / (lh * w_high + ll * w_low)
