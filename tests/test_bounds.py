import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netadopt.bounds import (
    BinaryFamily,
    adopt_forced,
    bound_report,
    chi_stats,
    ck_recursion,
    delta_bar,
    empirical_info,
    impatience_bound,
    kl_bernoulli,
    myopic_binary_info,
    pbar_from_info,
    power_inequality_check,
    product_kl_exact,
    product_signal_bound,
)
from netadopt.common import NEVER, STATE_HIGH, STATE_LOW, TruncationError
from netadopt.engine import run_profile
from netadopt.networks import build_line, build_star
from netadopt.signals import binary_model
from netadopt.strategies import myopic_rule


# ------------------------------------------------------------ bernoulli kl

def test_kl_bernoulli_frozen_value():
    assert math.isclose(kl_bernoulli(0.36, 0.16), 0.11789729992834772, rel_tol=1e-14)


def test_kl_bernoulli_conventions():
    assert kl_bernoulli(0.3, 0.3) == 0.0
    assert kl_bernoulli(0.0, 0.5) == math.log(2.0)
    assert kl_bernoulli(0.5, 0.0) == math.inf
    assert kl_bernoulli(0.5, 1.0) == math.inf
    assert kl_bernoulli(1.0, 1.0) == 0.0
    with pytest.raises(ValueError):
        kl_bernoulli(1.2, 0.5)
    with pytest.raises(ValueError):
        kl_bernoulli(0.5, -0.1)


@given(st.floats(0.0, 1.0), st.floats(1e-9, 1.0 - 1e-9))
def test_kl_bernoulli_nonnegative(p, q):
    assert kl_bernoulli(p, q) >= 0.0


def test_kl_bernoulli_asymmetric():
    assert kl_bernoulli(0.5, 0.9) != kl_bernoulli(0.9, 0.5)
    # complementing both arguments is the symmetry that does hold
    assert math.isclose(kl_bernoulli(0.8, 0.3), kl_bernoulli(0.2, 0.7), rel_tol=1e-14)


# --------------------------------------------------------- product bound

def test_product_signal_bound_frozen_values():
    assert math.isclose(product_signal_bound(0.25), 9.637683358612836, rel_tol=1e-14)
    assert math.isclose(product_signal_bound(0.1), 43.70869065356567, rel_tol=1e-14)
    assert math.isclose(product_signal_bound(0.499), 2.0115749405808905, rel_tol=1e-14)


def test_product_signal_bound_domain():
    for bad in (0.0, 0.5, 0.7, -0.1):
        with pytest.raises(ValueError):
            product_signal_bound(bad)


@given(st.floats(1e-6, 0.499), st.floats(1e-6, 0.499))
def test_product_signal_bound_monotone(e1, e2):
    lo, hi = min(e1, e2), max(e1, e2)
    assert product_signal_bound(lo) >= product_signal_bound(hi) - 1e-12


def test_binary_family_validation():
    with pytest.raises(ValueError, match="at least one"):
        BinaryFamily(pairs=())
    with pytest.raises(ValueError, match="in \\(0, 1\\)"):
        BinaryFamily(pairs=((1.0, 0.5),))
    fam = BinaryFamily(pairs=((0.6, 0.4), (0.7, 0.2)))
    assert fam.n_signals == 2
    assert fam.beliefs()[0] == 0.6
    assert math.isclose(fam.beliefs()[1], 0.7 / 0.9, rel_tol=1e-15)
    assert math.isclose(fam.belief_margin(), 1.0 - 0.7 / 0.9, rel_tol=1e-12)


def test_product_kl_exact_frozen_values():
    sym = BinaryFamily(pairs=((0.6, 0.4), (0.6, 0.4)))
    assert math.isclose(product_kl_exact(sym), 0.1178972999283476, rel_tol=1e-13)
    # same quantity through the direct route, up to float association
    assert abs(product_kl_exact(sym) - kl_bernoulli(0.36, 0.16)) < 1e-12
    mixed = BinaryFamily(pairs=((0.7, 0.3), (0.6, 0.4)))
    assert math.isclose(product_kl_exact(mixed), 0.28436204048761804, rel_tol=1e-13)


def test_product_kl_exact_size_guard():
    fam = BinaryFamily(pairs=((0.6, 0.4),) * 65)
    with pytest.raises(ValueError, match="64"):
        product_kl_exact(fam)


def test_product_bound_dominates_exact_kl_sampled():
    # thousand-family spot check of the bounded-informativeness inequality;
    # the acceptance suite runs the full-size version
    rng = np.random.default_rng(42)
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        qs = rng.uniform(0.05, 0.45, size=n)
        ps = np.minimum(qs + rng.uniform(0.01, 0.5, size=n), 0.95)
        fam = BinaryFamily(pairs=tuple(zip(ps, qs)))
        eps = fam.belief_margin()
        assert 0.0 < eps < 0.5
        assert product_kl_exact(fam) <= product_signal_bound(eps) + 1e-9


# ------------------------------------------------------- power inequality

def test_power_inequality_equality_point():
    alpha = 3.0
    x = alpha / (1.0 + alpha)
    y = x / alpha
    assert power_inequality_check(alpha, x, y) is True


def test_power_inequality_cases():
    # hypotheses violated: not applicable rather than a verdict
    assert power_inequality_check(2.0, 0.8, 0.1) is None
    assert power_inequality_check(2.0, 0.1, 0.9) is True
    with pytest.raises(ValueError, match="alpha"):
        power_inequality_check(1.0, 0.5, 0.5)
    with pytest.raises(ValueError, match="in \\(0, 1\\)"):
        power_inequality_check(2.0, 0.0, 0.5)


@settings(max_examples=300)
@given(st.floats(1.0 + 1e-6, 50.0), st.floats(1e-6, 1.0 - 1e-6),
       st.floats(1e-6, 1.0 - 1e-6))
def test_power_inequality_never_false(alpha, x, y):
    assert power_inequality_check(alpha, x, y) is not False


# ---------------------------------------------------------- end recursion

def test_ck_recursion_base_constants():
    table = ck_recursion(1, 0.25)
    # alpha = 3: D = 36 ln 10 and c_0 = ln 3 + D exactly
    assert table.alpha == 3.0
    assert table.d == 36.0 * math.log(10.0)
    assert table.c0 == math.log(3.0) + 36.0 * math.log(10.0)
    assert math.isclose(table.c0, 83.99167563645376, rel_tol=1e-14)
    # the literal max(c_0, ln alpha, D) must collapse to c_0
    assert table.little[1] == table.c0


def test_ck_recursion_structure():
    table = ck_recursion(1, 0.25)
    assert sorted(table.little) == [0, 1, 2, 3, 4]
    assert sorted(table.big) == [1, 2, 3, 4]
    for k in range(2, 5):
        assert table.little[k] == (k + 1) * table.big[k - 1]
        assert table.big[k] == table.little[k] + math.log(table.alpha) + table.d
    assert math.isclose(table.big[4], 7223.284104735024, rel_tol=1e-13)


def test_ck_recursion_pbar_gap():
    table = ck_recursion(1, 0.25)
    # the cap is astronomically close to one: the float rounds up while the
    # log-space gap stays finite and exact
    assert table.pbar == 1.0
    assert math.isclose(table.pbar_log_gap, -7226.977251915584, rel_tol=1e-13)
    assert table.pbar_log_gap == -table.big[4] - 3.0 - math.log(2.0)


def test_ck_recursion_log_space_survives_the_overflow():
    table = ck_recursion(200, 0.2)
    ks = sorted(table.ln_big)
    assert ks == sorted(table.big)
    logs = [table.ln_big[k] for k in ks]
    assert all(math.isfinite(v) for v in logs)
    assert all(a < b for a, b in zip(logs, logs[1:]))
    finite = [k for k in ks if math.isfinite(table.big[k])]
    assert finite and len(finite) < len(ks)  # the plain table overflows
    for k in finite:
        assert math.isclose(table.ln_big[k], math.log(table.big[k]),
                            rel_tol=1e-14)
    assert table.pbar_log_gap == -math.inf
    assert math.isfinite(table.ln_neg_pbar_log_gap)
    small = ck_recursion(1, 0.25)
    assert math.isclose(small.ln_neg_pbar_log_gap,
                        math.log(-small.pbar_log_gap), rel_tol=1e-14)


def test_ck_recursion_validation():
    with pytest.raises(ValueError, match="at least 1"):
        ck_recursion(0, 0.25)
    with pytest.raises(ValueError, match="eps"):
        ck_recursion(1, 0.5)


def test_pbar_from_info_values():
    assert math.isclose(pbar_from_info(0.0), 0.9751064658160681, rel_tol=1e-14)
    assert math.isclose(pbar_from_info(math.log(2.0)), 0.987553232908034, rel_tol=1e-14)
    assert pbar_from_info(math.inf) == 1.0
    with pytest.raises(ValueError):
        pbar_from_info(-0.1)
    with pytest.raises(ValueError):
        pbar_from_info(math.nan)


# ------------------------------------------------------ info estimation

def test_myopic_binary_info_exact():
    est = myopic_binary_info(0.75)
    assert est.method == "exact"
    assert est.bins == (0, NEVER)
    assert math.isclose(est.value, 0.5493061443340548, rel_tol=1e-14)
    assert math.isclose(est.value, 0.5 * math.log(3.0), rel_tol=1e-14)
    with pytest.raises(ValueError):
        myopic_binary_info(0.5)
    with pytest.raises(ValueError):
        myopic_binary_info(1.0)


def _myopic_traces(state, n_runs, seed):
    net = build_line(1)
    model = binary_model(Fraction(3, 4))
    rule = myopic_rule(model)
    out = []
    for rep in range(n_runs):
        rng = np.random.default_rng(np.random.SeedSequence((seed, rep)))
        out.append(run_profile(net, model, rule, 0, rng, state=state))
    return out


def test_empirical_info_recovers_exact_value():
    highs = _myopic_traces(STATE_HIGH, 1500, 1)
    lows = _myopic_traces(STATE_LOW, 1500, 2)
    est = empirical_info(highs, lows, agent=0, horizon=0)
    exact = myopic_binary_info(0.75).value
    assert est.method == "empirical"
    assert not est.degenerate
    assert abs(est.value - exact) < 3 * est.ci + 0.01
    assert sum(est.counts_high) == 1500


def test_empirical_info_degenerate_and_smoothed_flags():
    always = [[0]] * 1200
    est = empirical_info(always, always, agent=0)
    assert est.degenerate and est.value == 0.0
    mixed = [[0]] * 600 + [[NEVER]] * 600
    est2 = empirical_info(always, mixed, agent=0)
    assert est2.smoothed
    assert math.isfinite(est2.value)


def test_empirical_info_requires_enough_traces():
    few = [[0]] * 10
    with pytest.raises(ValueError, match="at least 1000"):
        empirical_info(few, few, agent=0)
    est = empirical_info(few, few, agent=0, min_traces=10)
    assert est.degenerate


# --------------------------------------------------------- concentration

def test_chi_stats_frozen_single_pair():
    rep = chi_stats([(0.6, 0.4)], 0.3)
    assert rep.applicable
    assert abs(rep.mean_high - 0.2 * math.log(1.5)) < 1e-14
    assert math.isclose(rep.mean_high, 0.08109302162163282, rel_tol=1e-13)
    assert math.isclose(rep.mean_low, -0.08109302162163287, rel_tol=1e-13)
    assert math.isclose(rep.rho, 0.017625685172986086, rel_tol=1e-10)
    assert math.isclose(rep.rho_prime, 0.6030474779420559, rel_tol=1e-10)
    assert rep.m_min == 19661


def test_chi_stats_flags_violations():
    rep = chi_stats([(0.6, 0.4), (0.5, 0.45)], 0.3)
    assert not rep.applicable
    assert rep.violations == ((0.5, 0.45),)
    assert rep.m_min is None


def test_chi_stats_domain():
    with pytest.raises(ValueError, match="eps"):
        chi_stats([(0.6, 0.4)], 0.5)
    with pytest.raises(ValueError, match="empty"):
        chi_stats([(0.6, 0.4)], 0.45)
    with pytest.raises(ValueError, match="target"):
        chi_stats([(0.6, 0.4)], 0.3, target=0.5)


@pytest.mark.parametrize("pair", [(0.6, 0.4), (0.39, 0.3)])
def test_chi_m_min_concentrates_in_simulation(pair):
    # Monte Carlo cross-check of the Chebyshev count: summing m_min i.i.d.
    # log-likelihood-ratio increments must push the posterior past the
    # target state with at least the target frequency, in both states.
    eps, target = 0.3, 0.9
    rep = chi_stats([pair], eps, target=target)
    assert rep.applicable
    m = rep.m_min
    p, q = pair
    lr1 = math.log(p / q)
    lr0 = math.log((1.0 - p) / (1.0 - q))
    t = math.log(target / (1.0 - target))
    rng = np.random.default_rng(7)
    n_mc = 2000
    ci = 1.96 * math.sqrt(target * (1.0 - target) / n_mc)

    k_high = rng.binomial(m, p, size=n_mc)
    s_high = k_high * lr1 + (m - k_high) * lr0
    assert float(np.mean(s_high > t)) >= target - 2 * ci

    k_low = rng.binomial(m, q, size=n_mc)
    s_low = k_low * lr1 + (m - k_low) * lr0
    assert float(np.mean(s_low < -t)) >= target - 2 * ci


# ------------------------------------------------------ impatient agents

def test_impatience_bound_isolated_frozen():
    net = build_line(1)
    model = binary_model(Fraction(3, 4))
    rep = impatience_bound(net, model, delta=0.4, delta_bar_target=0.5, agent=0)
    assert rep.myopic_value == 0.25
    assert rep.radius == 3
    assert rep.n_reachable == 1
    # one signal of odds 3 caps correctness at 1 - u0 / 3 = 11/12
    assert math.isclose(rep.bound, 11.0 / 12.0, rel_tol=1e-12)
    assert not rep.vacuous


def test_impatience_bound_truncation():
    net = build_line(6, mark_infinite=True)
    model = binary_model(Fraction(3, 4))
    with pytest.raises(TruncationError, match="truncation boundary"):
        impatience_bound(net, model, delta=0.4, delta_bar_target=0.5, agent=2)


def test_impatience_bound_vacuous_on_big_ball():
    net = build_star(32)
    model = binary_model(Fraction(3, 4))
    rep = impatience_bound(net, model, delta=0.4, delta_bar_target=0.5, agent=0)
    assert rep.n_reachable == 33
    assert rep.vacuous


def test_impatience_bound_validation():
    net = build_line(1)
    model = binary_model(Fraction(3, 4))
    with pytest.raises(ValueError, match="delta"):
        impatience_bound(net, model, delta=0.6, delta_bar_target=0.5, agent=0)
    with pytest.raises(ValueError, match="agent"):
        impatience_bound(net, model, delta=0.4, delta_bar_target=0.5, agent=5)


# ----------------------------------------------------- forced adoption

def test_delta_bar_exact_and_float():
    assert delta_bar(Fraction(3, 5)) == Fraction(1, 3)
    assert math.isclose(delta_bar(0.6), 1.0 / 3.0, rel_tol=1e-12)
    with pytest.raises(ValueError):
        delta_bar(Fraction(1, 2))
    with pytest.raises(ValueError):
        delta_bar(1)


def test_adopt_forced():
    assert adopt_forced(Fraction(2, 3), Fraction(1, 2))
    assert not adopt_forced(Fraction(2, 3) - Fraction(1, 10**9), Fraction(1, 2))
    assert adopt_forced(Fraction(1, 2), 0)
    with pytest.raises(ValueError):
        adopt_forced(Fraction(2, 3), 1)


def test_delta_bar_adopt_forced_consistency():
    # right below the cutoff discount, the cutoff belief is forced
    b = Fraction(3, 5)
    bar = delta_bar(b)
    assert adopt_forced(b, bar)
    assert not adopt_forced(b - Fraction(1, 1000), bar)


# ------------------------------------------------------------ reporting

def test_bound_report_shape():
    rep = bound_report(0.25, 1)
    assert rep["inputs"] == {"eps": 0.25, "m": 1, "target": 0.9}
    assert set(rep["c_k"]) == {"0", "1", "2", "3", "4"}
    assert set(rep["C_k"]) == {"1", "2", "3", "4"}
    assert rep["chi"] is None
    assert math.isclose(rep["product_signal_bound"], 9.637683358612836, rel_tol=1e-13)


def test_bound_report_with_chi():
    rep = bound_report(0.3, 1, adopt_probs=[(0.6, 0.4)], target=0.9)
    assert rep["chi"]["applicable"] is True
    assert rep["chi"]["m_min"] == 19661
    assert rep["inputs"]["adopt_probs"] == [[0.6, 0.4]]
