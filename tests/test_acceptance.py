"""Acceptance suite: one test per release gate, with a printed verdict.

Each test finishes by printing a single "ACCEPTANCE <n> PASS" line, so a
run with `pytest tests/test_acceptance.py -s` reads as a checklist.  A
failed assertion is the corresponding FAIL line.  The gates combine
exact rational-arithmetic checks, property sweeps with zero tolerated
violations, and seeded Monte Carlo estimates compared against closed
forms.  Wall-clock limits are asserted where the gate includes one.
"""

import json
import math
import time
from fractions import Fraction
from itertools import combinations, product
from math import comb

import numpy as np
import pytest

from netadopt.auxmodel import (
    Mu,
    RootStrategySpec,
    default_sampler,
    eta_of_mu,
    psi,
    u_of_mu,
    w_mu,
)
from netadopt.bounds import (
    BinaryFamily,
    ck_recursion,
    empirical_info,
    pbar_from_info,
    power_inequality_check,
    product_kl_exact,
    product_signal_bound,
)
from netadopt.cli import run as cli_run
from netadopt.common import STATE_HIGH, STATE_LOW, is_never
from netadopt.engine import estimate, run_profile, sigma_ring_estimate
from netadopt.networks import Network, build_directed_tree, build_line, build_star
from netadopt.signals import binary_model
from netadopt.solver import SolveConfig, solve_equilibrium, verify_spontaneous_example
from netadopt.strategies import (
    AuxRootRule,
    CenterBayesRule,
    ThresholdRule,
    myopic_rule,
)

SEED = 20250816


# ------------------------------------------------------------ gate 1 helpers

def _majority_of_three_rule() -> ThresholdRule:
    """Adopt in period 1 iff at least two of the children adopted at 0.

    Threshold zero makes the rule ignore the root's own signal, which is
    the point of the copy-the-majority benchmark.
    """
    entries = {}
    for size in (2, 3):
        for children in combinations((1, 2, 3), size):
            key = (1, tuple((child, 0) for child in children))
            entries[(None, key)] = (Fraction(0), Fraction(1))
    return ThresholdRule(entries=entries, label="copy-majority-of-three")


def _root_adoption_mass(net, model, profile, horizon=2):
    """Prior-weighted probability that the root ever adopts, per state.

    Exact: every signal combination is enumerated with its rational
    likelihood and replayed through the engine with pinned atoms.
    """
    rng = np.random.default_rng(0)
    mass = {}
    for state in (STATE_HIGH, STATE_LOW):
        likes = model.likelihoods(state)
        total = Fraction(0)
        for atoms in product(range(len(model.beliefs)), repeat=net.n):
            weight = Fraction(1, 2)
            for atom in atoms:
                weight *= likes[atom]
            trace = run_profile(net, model, profile, horizon, rng,
                                state=state, atoms=atoms)
            if not is_never(trace.times[0]):
                total += weight
        mass[state] = total
    return mass


def _wait_and_act_utilities(net, q: Fraction):
    """Undiscounted root utilities of copy-majority versus act-on-signal."""
    model = binary_model(q)
    children = {i: myopic_rule(model) for i in net.agents}
    wait_profile = dict(children)
    wait_profile[0] = _majority_of_three_rule()
    wait = _root_adoption_mass(net, model, wait_profile)
    act = _root_adoption_mass(net, model, children)
    u_wait = wait[STATE_HIGH] - wait[STATE_LOW]
    u_act = act[STATE_HIGH] - act[STATE_LOW]
    correctness = wait[STATE_HIGH] + (Fraction(1, 2) - wait[STATE_LOW])
    return correctness, u_wait, u_act


def test_acceptance_1_two_layer_tree_exact_values():
    started = time.perf_counter()
    net = build_directed_tree(d=3, depth=1)

    q = Fraction(99, 100)
    p3 = q**3 + 3 * q**2 * (1 - q)
    correctness, u_wait, u_act = _wait_and_act_utilities(net, q)
    assert correctness == p3
    assert abs(float(correctness) - 0.999702) <= 5e-5
    indifference = u_act / u_wait
    assert indifference == Fraction(5000, 5099)
    assert Fraction(980, 1000) <= indifference <= Fraction(981, 1000)

    _, u_wait51, u_act51 = _wait_and_act_utilities(net, Fraction(51, 100))
    ratio = u_wait51 / u_act51
    assert ratio == Fraction(7499, 5000)
    assert abs(float(ratio) - 1.50) <= 0.01

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"ACCEPTANCE 1 PASS: majority-of-three correctness "
          f"{float(correctness):.6f}, utility ratio {float(ratio):.4f}, "
          f"indifference discount {float(indifference):.6f} in "
          f"[0.980, 0.981], {elapsed:.2f}s")


def test_acceptance_2_spontaneous_adoption_counterexample():
    started = time.perf_counter()
    result = verify_spontaneous_example(Fraction(9, 10), Fraction(99, 100))
    elapsed = time.perf_counter() - started
    assert result.ok
    lr2 = float(result.lr_period2)
    assert 0.0 < lr2 < 1.0
    assert 1e-9 < lr2 < 1e-8
    assert result.watcher_adopts_at == 3
    assert result.period2_adoptions == 0
    assert elapsed < 1.0
    print(f"ACCEPTANCE 2 PASS: period-2 likelihood ratio {lr2:.3e} < 1, "
          f"watcher adopts in period 3 with zero period-2 adoptions, "
          f"{elapsed:.2f}s")


def test_acceptance_3_structural_equilibrium_suite():
    model = binary_model(Fraction(3, 4))
    instances = [
        ("path-3", build_line(3)),
        ("path-4", build_line(4)),
        ("path-5", build_line(5)),
        ("star-2", build_star(2, directed=False)),
        ("star-3", build_star(3, directed=False)),
        ("star-4", build_star(4, directed=False)),
    ]
    timings = []
    for label, net in instances:
        config = SolveConfig(delta=Fraction(9, 10), horizon=3,
                             raise_horizon=True, max_horizon=10)
        started = time.perf_counter()
        report = solve_equilibrium(net, model, config)
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, label
        assert report.converged, label
        assert report.horizon_stabilized, label
        checks = report.checks
        assert checks.threshold_form_ok, label
        assert checks.state_monotone_ok, label
        assert checks.no_spontaneous_ok, label
        assert checks.violations == (), label
        timings.append(elapsed)
    print(f"ACCEPTANCE 3 PASS: {len(instances)} path/star equilibria pass "
          f"threshold-form, state-monotonicity, and no-spontaneous-adoption "
          f"checks, slowest {max(timings):.2f}s")


def test_acceptance_4_product_divergence_and_power_inequality():
    started = time.perf_counter()
    assert product_signal_bound(0.25) == pytest.approx(
        2 * math.log(0.25) / math.log(0.75), rel=1e-12)

    rng = np.random.default_rng(SEED)
    family_violations = 0
    for _ in range(10_000):
        n = int(rng.integers(1, 9))
        eps = rng.uniform(0.05, 0.45)
        beliefs = rng.uniform(eps, 1.0 - eps, n)
        pairs = []
        for belief in beliefs:
            scale = rng.uniform(0.05, 1.0 / max(belief, 1.0 - belief))
            pairs.append((belief * scale, (1.0 - belief) * scale))
        family = BinaryFamily(tuple(pairs))
        bound = product_signal_bound(family.belief_margin())
        if product_kl_exact(family) > bound + 1e-9:
            family_violations += 1
    assert family_violations == 0

    assert power_inequality_check(3.0, 0.75, 0.25) is True
    power_violations = 0
    applicable = 0
    for i in range(10_000):
        alpha = 1.0 + float(np.exp(rng.uniform(np.log(1e-3), np.log(50.0))))
        x = float(rng.uniform(1e-6, 1.0 - 1e-6))
        if i % 2 == 0:
            # Half the draws are placed inside the hypothesis region so the
            # conclusion is actually exercised, not vacuously skipped.
            low = max(x / alpha, 1.0 - alpha * (1.0 - x))
            y = min(max(float(rng.uniform(low, 1.0)), 1e-12), 1.0 - 1e-12)
        else:
            y = float(rng.uniform(1e-6, 1.0 - 1e-6))
        verdict = power_inequality_check(alpha, x, y)
        if verdict is not None:
            applicable += 1
            if verdict is False:
                power_violations += 1
    assert power_violations == 0
    assert applicable >= 5_000

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(f"ACCEPTANCE 4 PASS: 10^4 random families within the product "
          f"divergence bound and 10^4 power-inequality draws "
          f"({applicable} applicable) with zero violations, {elapsed:.2f}s")


def test_acceptance_5_relay_protocol_ring():
    started = time.perf_counter()
    report = sigma_ring_estimate(5000, 50, 1e-3, 0.75, 2000, SEED)
    elapsed = time.perf_counter() - started
    assert report.n_reps == 2000
    assert report.n_agents == 5000
    assert report.agent == 2500
    assert report.p_hat - report.ci >= 0.9
    assert elapsed < 600.0
    print(f"ACCEPTANCE 5 PASS: central agent correctness "
          f"{report.p_hat:.4f} +/- {report.ci:.4f} >= 0.9 on a 5000-agent "
          f"ring over 2000 replications, {elapsed:.1f}s")


# ------------------------------------------------------------ gate 6 helpers

_ADVERSARIAL_ATOMS = np.array([0.0, 1.0, 1e-9, 1.0 - 1e-9])


def _draw_probabilities(rng, size):
    """Mix boundary values with uniform draws, half and half."""
    picked = _ADVERSARIAL_ATOMS[rng.integers(0, _ADVERSARIAL_ATOMS.size, size)]
    return np.where(rng.random(size) < 0.5, picked, rng.random(size))


def _simulate_chain_times(rng, n, q, adopt0_hi, adopt0_lo, follow_hi,
                          follow_lo, reps, high_state):
    """Adoption times on a rooted path where vertex v observes vertex v+1.

    Vertex v adopts at 0 with its signal-dependent chance, else copies its
    child one period late with its signal-dependent chance, else never.
    """
    p_signal = q if high_state else 1.0 - q
    signal = rng.random((reps, n)) < p_signal
    adopt0 = rng.random((reps, n)) < np.where(signal, adopt0_hi, adopt0_lo)
    follow = rng.random((reps, n)) < np.where(signal, follow_hi, follow_lo)
    times = np.full((reps, n), np.inf)
    times[:, n - 1] = np.where(adopt0[:, n - 1], 0.0, np.inf)
    for v in range(n - 2, -1, -1):
        child = times[:, v + 1]
        times[:, v] = np.where(
            adopt0[:, v], 0.0,
            np.where(follow[:, v] & np.isfinite(child), child + 1.0, np.inf))
    return times


def test_acceptance_6_information_ceiling_on_rooted_paths():
    rng = np.random.default_rng(SEED)
    ceiling = ck_recursion(1, 0.25).c0
    reps = 1000
    max_info = 0.0
    min_slack = np.inf
    for _ in range(200):
        depth = int(rng.integers(1, 31))
        n = depth + 1
        q = rng.uniform(0.55, 0.75, n)
        adopt0_hi = _draw_probabilities(rng, n)
        adopt0_lo = _draw_probabilities(rng, n)
        adopt0_hi, adopt0_lo = (np.maximum(adopt0_hi, adopt0_lo),
                                np.minimum(adopt0_hi, adopt0_lo))
        follow_hi = _draw_probabilities(rng, n)
        follow_lo = _draw_probabilities(rng, n)
        follow_hi, follow_lo = (np.maximum(follow_hi, follow_lo),
                                np.minimum(follow_hi, follow_lo))
        times_high = _simulate_chain_times(
            rng, n, q, adopt0_hi, adopt0_lo, follow_hi, follow_lo, reps, True)
        times_low = _simulate_chain_times(
            rng, n, q, adopt0_hi, adopt0_lo, follow_hi, follow_lo, reps, False)

        info = empirical_info(times_high, times_low, 0, horizon=depth,
                              n_boot=100, rng=rng)
        assert info.value <= ceiling + 3 * info.ci
        max_info = max(max_info, info.value)

        adopt_high = float(np.isfinite(times_high[:, 0]).mean())
        never_low = float(np.isinf(times_low[:, 0]).mean())
        p_root = (adopt_high + never_low) / 2
        variance = (adopt_high * (1 - adopt_high)
                    + never_low * (1 - never_low)) / (4 * reps)
        ci_root = 1.96 * math.sqrt(variance)
        slack = pbar_from_info(info.value + info.ci) + ci_root - p_root
        assert slack >= 0.0
        min_slack = min(min_slack, float(slack))
    print(f"ACCEPTANCE 6 PASS: 200 adversarial monotone processes on rooted "
          f"paths, max root informativeness {max_info:.3f} <= ceiling "
          f"{ceiling:.1f}, correctness slack >= {min_slack:.3f}")


def _two_layer_value(model, family: int, r: Fraction, delta: Fraction):
    """Exact H-minus-L discounted value of the root's imitation strategy."""
    net = Network(n=3, edges=frozenset({(0, 1), (0, 2)}))
    root = AuxRootRule(spec=RootStrategySpec(family=family, r=r), delta=delta)
    profile = {0: root, 1: myopic_rule(model), 2: myopic_rule(model)}
    total = Fraction(0)
    for atoms in product(range(2), repeat=3):
        trace = run_profile(net, model, profile, horizon=6,
                            rng=np.random.default_rng(0),
                            state=STATE_HIGH, atoms=list(atoms))
        tau = trace.times[0]
        if is_never(tau):
            continue
        weight_high = Fraction(1)
        weight_low = Fraction(1)
        for atom in atoms:
            lh, ll = model.atoms[atom]
            weight_high *= lh
            weight_low *= ll
        total += delta**tau * (weight_high - weight_low)
    return total


def test_acceptance_7_strict_improvement_over_sampled_children():
    model = binary_model(Fraction(3, 4))
    sampler = default_sampler(delta=0.5)
    rng = np.random.default_rng(SEED)
    accepted = 0
    attempts = 0
    min_margin = np.inf
    max_identity_error = 0.0
    while accepted < 1000:
        attempts += 1
        assert attempts < 20_000, "sampler acceptance rate collapsed"
        mu = sampler(rng)
        value = u_of_mu(mu)
        if eta_of_mu(mu) < 0.05 or value <= 0:
            continue
        accepted += 1
        best = psi(mu, model)
        assert float(best.value) > float(value)
        min_margin = min(min_margin, float(best.value) - float(value))
        copy_forever = w_mu(mu, model, RootStrategySpec(family=2, r=1))
        never_switch = w_mu(mu, model, RootStrategySpec(family=1, r=1))
        error = max(abs(float(copy_forever - value)), abs(float(never_switch)))
        assert error <= 1e-12
        max_identity_error = max(max_identity_error, error)

    delta = Fraction(1, 2)
    q = Fraction(3, 4)
    child = Mu(grid=(Fraction(0), Fraction(1, 2), Fraction(1)),
               mass_high=(q, Fraction(0), 1 - q),
               mass_low=(1 - q, Fraction(0), q))
    for family in (1, 2):
        continuous = w_mu(child, model, RootStrategySpec(family=family,
                                                         r=Fraction(1, 2)))
        discrete = _two_layer_value(model, family, Fraction(1, 2), delta)
        assert abs(float(discrete) - float(delta * continuous)) <= 1e-9
    print(f"ACCEPTANCE 7 PASS: strict improvement over {accepted} sampled "
          f"children (min margin {min_margin:.2e}), boundary identities to "
          f"{max_identity_error:.1e}, discrete/continuous values agree")


def _exact_center_correctness(d: int, q: Fraction) -> Fraction:
    """Closed-form correctness of a center that tallies leaves plus itself."""
    def adopt_mass(p_high_signal: Fraction) -> Fraction:
        total = Fraction(0)
        for own_high in (True, False):
            own_weight = p_high_signal if own_high else 1 - p_high_signal
            vote_bias = 1 if own_high else -1
            for a in range(d + 1):
                if 2 * a - d + vote_bias >= 0:
                    total += own_weight * comb(d, a) * \
                        p_high_signal**a * (1 - p_high_signal)**(d - a)
        return total

    return (adopt_mass(q) + 1 - adopt_mass(1 - q)) / 2


def test_acceptance_8_center_correctness_grows_with_degree():
    q = Fraction(3, 5)
    exact = {d: _exact_center_correctness(d, q) for d in (5, 25, 100)}
    assert float(exact[5]) == pytest.approx(0.68256, abs=1e-12)
    assert float(exact[25]) == pytest.approx(0.8462322310242371, abs=1e-12)
    assert float(exact[100]) == pytest.approx(0.9791033089952995, abs=1e-12)

    model = binary_model(q)
    started = time.perf_counter()
    estimates = {}
    for d in (5, 25, 100):
        net = build_star(d)
        profile = {0: CenterBayesRule(model=model, period=1)}
        leaf_rule = myopic_rule(model)
        for leaf in range(1, d + 1):
            profile[leaf] = leaf_rule
        report = estimate(net, model, profile, 2, 0.33, 10_000, SEED)
        estimates[d] = (report.p_hat[0], report.ci[0])
        assert abs(report.p_hat[0] - float(exact[d])) <= 3 * report.ci[0]
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0

    p5, ci5 = estimates[5]
    p25, ci25 = estimates[25]
    p100, ci100 = estimates[100]
    assert p25 >= p5 - (ci5 + ci25)
    assert p100 >= p25 - (ci25 + ci100)
    assert p100 >= 0.9
    print(f"ACCEPTANCE 8 PASS: center correctness rises with degree "
          f"({p5:.4f} -> {p25:.4f} -> {p100:.4f}, each within 3 CI of its "
          f"closed form) and exceeds 0.9 at degree 100, {elapsed:.1f}s")


def test_acceptance_9_cli_runs_are_byte_deterministic(tmp_path):
    payload = {
        "kind": "simulate",
        "seed": SEED,
        "network": {"line": {"n": 4}},
        "signal": {"binary": 0.75},
        "strategy": "myopic",
        "delta": 0.9,
        "horizon": 6,
        "replications": 400,
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps(payload))
    out1 = tmp_path / "first"
    out2 = tmp_path / "second"
    assert cli_run(config, out=out1) == 0
    assert cli_run(config, out=out2) == 0
    for name in ("results.csv", "plotdata.csv"):
        first = (out1 / name).read_bytes()
        assert first == (out2 / name).read_bytes()
        assert first
    print("ACCEPTANCE 9 PASS: repeated CLI runs with one config and seed "
          "produce byte-identical CSV artifacts")
