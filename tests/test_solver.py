import ast
import itertools
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netadopt.common import NEVER, STATE_HIGH, ImpossibleHistoryError, is_never
from netadopt.engine import run_profile
from netadopt.networks import build_line
from netadopt.signals import binary_model
from netadopt import solver
from netadopt.solver import (
    SolveConfig,
    _profile_fingerprint,
    best_response,
    enumerate_scenarios,
    exact_posterior,
    is_equilibrium,
    solve_equilibrium,
    verify_structure,
)
from netadopt.strategies import Strategy, ThresholdRule, myopic_rule

Q = Fraction(3, 4)
MODEL = binary_model(Q)


def test_solve_config_validation():
    with pytest.raises(ValueError, match="delta"):
        SolveConfig(delta=Fraction(1), horizon=2)
    with pytest.raises(ValueError, match="horizon"):
        SolveConfig(delta=Fraction(1, 2), horizon=-1)
    with pytest.raises(ValueError, match="max_sweeps must be >= 1, got 0"):
        SolveConfig(delta=Fraction(1, 2), horizon=2, max_sweeps=0)
    with pytest.raises(ValueError, match="max_horizon"):
        SolveConfig(delta=Fraction(1, 2), horizon=5, raise_horizon=True,
                    max_horizon=3)
    SolveConfig(delta=Fraction(1, 2), horizon=5, max_horizon=3)


def test_enumerate_scenarios_weights_sum_to_one():
    net = build_line(2, directed=True)
    scen = enumerate_scenarios(net, MODEL, myopic_rule(MODEL), horizon=2)
    assert sum(s.weight_high for s in scen) == 1
    assert sum(s.weight_low for s in scen) == 1


def test_exact_posterior_isolated_is_own_belief():
    net = build_line(1)
    cfg = SolveConfig(delta=Fraction(1, 2), horizon=2)
    post = exact_posterior(net, MODEL, myopic_rule(MODEL), 0, (0, ()), Q, cfg)
    assert post == Q


def test_exact_posterior_opposing_evidence_cancels():
    # agent 1 observes a myopic agent 0; one adoption carries exactly the
    # weight of one high signal, so a low own signal brings it back to 1/2
    net = build_line(2, directed=True)
    cfg = SolveConfig(delta=Fraction(1, 2), horizon=2)
    adopted = exact_posterior(net, MODEL, myopic_rule(MODEL), 1,
                              (1, ((0, 0),)), 1 - Q, cfg)
    assert adopted == Fraction(1, 2)
    silent = exact_posterior(net, MODEL, myopic_rule(MODEL), 1, (1, ()), Q, cfg)
    assert silent == Fraction(1, 2)


def test_exact_posterior_impossible_history():
    net = build_line(2, directed=True)
    cfg = SolveConfig(delta=Fraction(1, 2), horizon=3)
    # the myopic neighbor can only adopt at period 0
    with pytest.raises(ImpossibleHistoryError):
        exact_posterior(net, MODEL, myopic_rule(MODEL), 1, (2, ((0, 1),)), Q, cfg)


def test_best_response_two_line_thresholds():
    net = build_line(2, directed=True)
    cfg = SolveConfig(delta=Fraction(1, 2), horizon=2)
    table = best_response(net, MODEL, myopic_rule(MODEL), 1, cfg)
    # period 0: adopting on the high atom beats waiting (1/2 > delta/2 + 0)
    assert table.lookup(1, (0, ())) == (Q, Fraction(1))
    # after seeing an adoption, a low own signal is exactly indifferent and
    # ties resolve toward adopting, so both atoms adopt
    assert table.lookup(1, (1, ((0, 0),))) == (1 - Q, Fraction(1))


def test_best_response_size_guard():
    net = build_line(13)
    cfg = SolveConfig(delta=Fraction(1, 2), horizon=2, max_scenarios=4)
    with pytest.raises(ValueError, match="scenario budget"):
        best_response(net, MODEL, myopic_rule(MODEL), 6, cfg)


def test_solve_line_of_thirteen():
    net = build_line(13)
    cfg = SolveConfig(delta=Fraction(1, 2), horizon=2)
    report = solve_equilibrium(net, MODEL, cfg)
    assert report.converged
    assert report.checks.ok
    # The checks read each agent's never-adopt runs, not the 2 ** 13 joint ones
    assert report.checks.scenario_count == sum(
        len(enumerate_scenarios(net, MODEL, report.profile, cfg.horizon,
                                frozen=i))
        for i in net.agents)


def test_solve_line_of_sixteen_at_horizon_three():
    # 2 ** 16 joint runs; each agent's never-adopt tree stays small.
    cfg = SolveConfig(delta=Fraction(1, 2), horizon=3)
    report = solve_equilibrium(build_line(16), MODEL, cfg)
    assert report.converged
    assert report.checks.ok


def _doubled_value(net, profile, horizon):
    """Exact doubled utility of agent 1 by forward simulation over all atoms."""
    total = Fraction(0)
    rng = np.random.default_rng(0)  # never consulted: all decisions are pure
    for a0, a1 in itertools.product(range(2), range(2)):
        trace = run_profile(net, MODEL, profile, horizon, rng,
                            state=STATE_HIGH, atoms=[a0, a1])
        tau = trace.times[1]
        if is_never(tau):
            continue
        w_high = MODEL.atoms[a0][0] * MODEL.atoms[a1][0]
        w_low = MODEL.atoms[a0][1] * MODEL.atoms[a1][1]
        total += Fraction(1, 2) ** tau * (w_high - w_low)
    return total


def test_best_response_matches_exhaustive_policy_search():
    # Independent oracle: enumerate every deterministic threshold policy of
    # agent 1 over its reachable histories and score it by exact forward
    # simulation; backward induction must attain the maximum.
    net = build_line(2, directed=True)
    cfg = SolveConfig(delta=Fraction(1, 2), horizon=2)
    keys = [(0, ()), (1, ()), (1, ((0, 0),)), (2, ()), (2, ((0, 0),))]
    choices = [
        None,                        # never adopt here
        (Q, Fraction(1)),            # adopt on the high atom only
        (1 - Q, Fraction(1)),        # adopt on both atoms
    ]
    best_val = None
    for combo in itertools.product(choices, repeat=len(keys)):
        entries = {(1, k): c for k, c in zip(keys, combo) if c is not None}
        policy = ThresholdRule(entries=entries)
        val = _doubled_value(net, {0: myopic_rule(MODEL), 1: policy}, cfg.horizon)
        if best_val is None or val > best_val:
            best_val = val
    br = best_response(net, MODEL, myopic_rule(MODEL), 1, cfg)
    br_val = _doubled_value(net, {0: myopic_rule(MODEL), 1: br}, cfg.horizon)
    assert br_val == best_val


def test_solve_single_agent_behaves_myopically():
    net = build_line(1)
    cfg = SolveConfig(delta=Fraction(9, 10), horizon=3)
    report = solve_equilibrium(net, MODEL, cfg)
    assert report.converged
    assert is_equilibrium(net, MODEL, report.profile, cfg)
    table = report.profile[0]
    hit = table.lookup(0, (0, ()))
    assert hit is not None and hit[0] <= Q  # the high atom adopts at once
    assert hit[0] > 1 - Q                   # the low atom never does


def test_solve_two_line_fixed_point_and_idempotence():
    net = build_line(2, directed=True)
    cfg = SolveConfig(delta=Fraction(1, 2), horizon=3)
    report = solve_equilibrium(net, MODEL, cfg)
    assert report.converged
    assert report.checks is not None and report.checks.threshold_form_ok
    assert is_equilibrium(net, MODEL, report.profile, cfg)
    again = solve_equilibrium(net, MODEL, cfg, initial=report.profile)
    assert again.converged and again.sweeps == 1
    for i in net.agents:
        assert again.profile[i].entries == report.profile[i].entries


def test_solve_three_path_structural_checks():
    net = build_line(3)
    cfg = SolveConfig(delta=Fraction(9, 10), horizon=3, raise_horizon=True,
                      max_horizon=10)
    report = solve_equilibrium(net, MODEL, cfg)
    assert report.converged
    assert report.horizon_stabilized
    checks = report.checks
    assert checks.threshold_form_ok
    assert checks.state_monotone_ok
    assert checks.no_spontaneous_ok
    assert checks.violations == ()


def test_stabilised_checks_read_the_horizon_used():
    net = build_line(4)
    cfg = SolveConfig(delta=Fraction(9, 10), horizon=1, raise_horizon=True,
                      max_horizon=8)
    report = solve_equilibrium(net, MODEL, cfg)
    assert report.horizon_stabilized
    assert report.horizon_used == 3
    used = SolveConfig(delta=cfg.delta, horizon=report.horizon_used)
    assert report.checks == verify_structure(net, MODEL, report.profile, used)
    assert report.checks.scenario_count == 18
    assert verify_structure(net, MODEL, report.profile,
                            replace(used, horizon=1)).scenario_count == 6


def test_stabilisation_without_room_to_raise_reports_max_horizon():
    net = build_line(3)
    cfg = SolveConfig(delta=Fraction(9, 10), horizon=3, raise_horizon=True,
                      max_horizon=3)
    report = solve_equilibrium(net, MODEL, cfg)
    assert report.converged
    assert report.horizon_stabilized is False
    assert report.horizon_used == 3
    fixed = solve_equilibrium(net, MODEL, SolveConfig(delta=cfg.delta, horizon=3))
    assert fixed.horizon_stabilized is None
    assert report.checks == fixed.checks
    for i in net.agents:
        assert report.profile[i].entries == fixed.profile[i].entries


def test_a_horizon_that_does_not_converge_breaks_stabilisation():
    # On a line of 3 the myopic start converges in 2 sweeps at horizon 0
    # and needs 3 at every later horizon, so with 2 sweeps allowed only
    # horizon 0 converges and no two horizons in a row agree.
    net = build_line(3)
    cfg = SolveConfig(delta=Fraction(9, 10), horizon=0, max_sweeps=2,
                      raise_horizon=True, max_horizon=2)
    assert solve_equilibrium(net, MODEL, replace(
        cfg, raise_horizon=False)).converged
    report = solve_equilibrium(net, MODEL, cfg)
    assert not report.converged
    assert report.horizon_stabilized is False
    assert report.horizon_used == 2
    assert report.sweeps == 2
    assert report.checks is None


def test_non_equilibrium_detected():
    net = build_line(2, directed=True)
    cfg = SolveConfig(delta=Fraction(1, 2), horizon=2)
    # an agent that never adopts forgoes the immediate gain on a high signal
    lazy = {0: myopic_rule(MODEL), 1: ThresholdRule(entries={})}
    assert not is_equilibrium(net, MODEL, lazy, cfg)


def test_verify_structure_flags_contrarian_rule():
    class Contrarian(Strategy):
        # adopts at period 0 exactly on the low atom
        def adopt_probability(self, ctx):
            return Fraction(1) if ctx.period == 0 and ctx.atom == 1 else Fraction(0)

    net = build_line(2, directed=True)
    cfg = SolveConfig(delta=Fraction(1, 2), horizon=2)
    checks = verify_structure(net, MODEL, {0: myopic_rule(MODEL), 1: Contrarian()}, cfg)
    assert not checks.threshold_form_ok
    assert not checks.state_monotone_ok
    assert any("threshold-form" in v for v in checks.violations)


def test_verify_structure_flags_spontaneous_adoption():
    spooky = ThresholdRule(entries={(None, (1, ())): (1 - Q, Fraction(1))})
    net = build_line(2, directed=True)
    cfg = SolveConfig(delta=Fraction(1, 2), horizon=2)
    checks = verify_structure(net, MODEL, {0: myopic_rule(MODEL), 1: spooky}, cfg)
    # adopting at period 1 after pure silence has no observed cue
    assert checks.no_spontaneous_ok is False
    assert any("spontaneous" in v for v in checks.violations)


def test_solved_tables_round_trip_as_text():
    net = build_line(2, directed=True)
    cfg = SolveConfig(delta=Fraction(1, 2), horizon=3)
    report = solve_equilibrium(net, MODEL, cfg)
    for i in net.agents:
        table = report.profile[i]
        back = ThresholdRule.from_text(table.to_text())
        assert back.entries == table.entries


def tuple_fingerprint(profile):
    """The cycle check's fingerprint as tuples: per agent in id order, its
    sorted (history key, (threshold, mix)) entries, whoever they name."""
    return tuple((i, tuple(sorted((key, value) for (_, key), value
                                  in profile[i].entries.items())))
                 for i in sorted(profile))


ENTRY = st.tuples(
    st.booleans(),                                   # wildcard agent
    st.integers(0, 2),                               # period
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 1)), max_size=2,
             unique_by=lambda pair: pair[0]),        # observed adoptions
    st.sampled_from((Fraction(1, 4), Fraction(2, 4), 0.5, Fraction(3, 4),
                     Fraction(1))),                  # threshold
    st.sampled_from((Fraction(0), Fraction(1, 3), Fraction(1))))  # mix
SPEC = st.dictionaries(st.integers(0, 3), st.lists(ENTRY, max_size=3),
                       max_size=3)


def _profile(spec):
    return {i: ThresholdRule(entries={
        (None if wild else i, (t, tuple(pairs))): (thr, mix)
        for wild, t, pairs, thr, mix in rows}) for i, rows in spec.items()}


@st.composite
def profile_pairs(draw):
    """Two profiles, the second often the first with one small edit."""
    first = draw(SPEC)
    second = {i: list(rows) for i, rows in first.items()}
    edit = draw(st.sampled_from(("same", "row", "drop", "agent", "fresh")))
    agents = sorted(second)
    if edit == "row" and agents:
        rows = second[draw(st.sampled_from(agents))]
        if rows:
            rows[draw(st.integers(0, len(rows) - 1))] = draw(ENTRY)
    elif edit == "drop" and agents:
        rows = second[draw(st.sampled_from(agents))]
        if rows:
            rows.pop()
    elif edit == "agent":
        second.setdefault(draw(st.integers(0, 4)), [])
    elif edit == "fresh":
        second = draw(SPEC)
    return _profile(first), _profile(second)


@settings(max_examples=400, deadline=None)
@given(profile_pairs())
def test_fingerprint_text_is_equal_exactly_when_the_tuples_are(pair):
    a, b = pair
    assert isinstance(_profile_fingerprint(a), str)
    assert ((_profile_fingerprint(a) == _profile_fingerprint(b))
            == (tuple_fingerprint(a) == tuple_fingerprint(b)))


def test_solver_imports_no_engine_bounds_or_numpy_at_module_level():
    # The solver and the engine are peers over the protocol in strategies.
    tree = ast.parse(Path(solver.__file__).read_text())
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("." * node.level + (node.module or ""))
    assert names, "no module-level imports found"
    assert not names & {".engine", ".bounds", "numpy", "netadopt.engine",
                        "netadopt.bounds"}, sorted(names)
