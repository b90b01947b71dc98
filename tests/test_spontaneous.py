import json
import math
from fractions import Fraction

import numpy as np
import pytest

from netadopt.common import (NEVER, ImpossibleHistoryError, RegimeError,
                             as_fraction, is_never)
from netadopt.solver import _ExactWatcherRule, verify_spontaneous_example

Q = Fraction(9, 10)
DELTA = Fraction(99, 100)


def closed_form_period2_odds(q: Fraction) -> Fraction:
    # own low signal, ten isolated low holdouts, then the anchor-pair sum
    # with the hundred deferring adoptions folded in
    ratio = (1 - q) / q
    return ratio ** 11 * (
        (q ** 2 + 2 * q * (1 - q) * q ** 100)
        / ((1 - q) ** 2 + 2 * q * (1 - q) * (1 - q) ** 100))


def test_designated_run_replays_exactly():
    report = verify_spontaneous_example(Q, DELTA)
    assert report.ok
    assert report.watcher_adopts_at == 3
    assert report.period2_adoptions == 0
    assert report.role_times == {
        "a1": 0, "a2": None, "e": None, "d": None, "f": 3, "B": 1, "C": None,
    }


def test_period2_odds_match_closed_form_exactly():
    report = verify_spontaneous_example(Q, DELTA)
    assert report.lr_period2 == closed_form_period2_odds(Q)
    # the observed silence is overwhelming but not zero-probability evidence
    assert 0 < report.lr_period2 < 1
    assert 1e-9 < float(report.lr_period2) < 1e-8
    assert math.isclose(float(report.lr_period2), 2.5811900271828062e-09,
                        rel_tol=1e-12)


def test_period3_odds_are_pure_silence_inference():
    # entering period 3 the watcher has pinned every unseen signal: the
    # count is 101 high against 13 low, an odds ratio of (q/(1-q))**88
    report = verify_spontaneous_example(Q, DELTA)
    assert report.lr_period3 == (Q / (1 - Q)) ** 88
    assert report.lr_period3 == Fraction(9) ** 88


def test_defer_margin_exact():
    report = verify_spontaneous_example(Q, DELTA)
    assert report.defer_margin == DELTA * (1 + Q * (1 - Q)) - 1
    assert report.defer_margin == Fraction(791, 10000)


def test_regime_error_when_deferral_unprofitable():
    with pytest.raises(RegimeError, match="delta \\* \\(1 \\+ q\\*\\(1-q\\)\\) > 1"):
        verify_spontaneous_example(Fraction(9, 10), Fraction(9, 10))


def test_input_validation():
    with pytest.raises(ValueError, match="accuracy q"):
        verify_spontaneous_example(Fraction(1, 2), DELTA)
    with pytest.raises(ValueError, match="accuracy q"):
        verify_spontaneous_example(Fraction(1), DELTA)
    with pytest.raises(ValueError, match="delta"):
        verify_spontaneous_example(Q, Fraction(1))


def test_other_accuracies_in_regime():
    # the construction is not tied to one accuracy value
    report = verify_spontaneous_example(Fraction(3, 5), Fraction(9, 10))
    assert report.ok
    assert report.lr_period2 == closed_form_period2_odds(Fraction(3, 5))


def test_deterministic_and_serializable():
    r1 = verify_spontaneous_example(Q, DELTA)
    r2 = verify_spontaneous_example(Q, DELTA)
    assert r1 == r2
    blob = json.dumps(r1.as_json_dict())
    parsed = json.loads(blob)
    assert parsed["ok"] is True
    assert parsed["watcher_adopts_at"] == 3
    assert parsed["role_times"]["B"] == 1


def test_deferring_rule_adopts_at_period_one_on_a_majority():
    # Own signal and the two anchors' period-0 actions: adopt at period 1
    # exactly when at least two of the three are high, and never at any
    # other period, for every anchor outcome and every atom.
    from netadopt.common import NEVER
    from netadopt.strategies import DecisionContext, NeighborTimes
    from netadopt.signals import binary_model
    from netadopt.solver import _defer_majority_rule

    model = binary_model(Q)
    rule = _defer_majority_rule((3, 5))
    for t1 in (0, NEVER):
        for t2 in (0, NEVER):
            times = [NEVER] * 6
            times[3], times[5] = t1, t2
            view = NeighborTimes((3, 5), times)
            for atom, belief in enumerate(model.beliefs):
                high = (t1 == 0) + (t2 == 0) + (belief >= Fraction(1, 2))
                for t in range(4):
                    p = rule.adopt_probability(DecisionContext(
                        agent=0, period=t, atom=atom, belief=belief,
                        times=view, network=None))
                    assert p == (t == 1 and high >= 2), (t1, t2, atom, t)


def _ladder_odds(rule, times_of, period, own_belief):
    """The watcher's odds as the two case ladders wrote them before the
    factor was folded into one rule; the reference for the test below."""
    q = rule.q
    zero, one = Fraction(0), Fraction(1)

    def seen(agent):
        tau = times_of(agent)
        return tau if not is_never(tau) and tau < period else NEVER

    def anchor_sum(theta_q, iso_factor):
        total = zero
        for n_high, weight in ((2, theta_q ** 2),
                               (1, 2 * theta_q * (1 - theta_q)),
                               (0, (1 - theta_q) ** 2)):
            acc = weight * iso_factor
            for b in rule.deferring:
                if period < 2:
                    continue
                tau = seen(b)
                if tau == 1:
                    f = (one if n_high == 2
                         else theta_q if n_high == 1 else zero)
                elif is_never(tau):
                    f = (zero if n_high == 2
                         else 1 - theta_q if n_high == 1 else one)
                else:
                    f = zero
                acc *= f
                if acc == 0:
                    break
            if period >= 3 and acc != 0:
                tau = seen(rule.follower)
                relay_adopts = (one if n_high == 2
                                else theta_q if n_high == 1 else zero)
                if tau == 2:
                    acc *= relay_adopts
                elif is_never(tau):
                    acc *= 1 - relay_adopts
                else:
                    acc = zero
            total += acc
        return total

    def iso_product(theta_q):
        acc = one
        if period >= 1:
            for c in rule.isolated:
                acc *= theta_q if seen(c) == 0 else 1 - theta_q
        return acc

    num = anchor_sum(q, iso_product(q))
    den = anchor_sum(1 - q, iso_product(1 - q))
    if num == 0 and den == 0:
        raise ImpossibleHistoryError(
            "watcher observed a history with probability zero")
    belief = as_fraction(own_belief)
    return (belief / (1 - belief)) * num / den if den != 0 else NEVER


@pytest.mark.parametrize("q", [Q, Fraction(3, 5)])
def test_watcher_odds_match_the_case_ladders(q):
    # Random histories of a small watcher instance: each agent mostly takes
    # a time its role allows (isolated 0, deferring 1, follower 2, or
    # never), otherwise any time.  The folded factor equals the ladders,
    # and both refuse the same histories, except where an isolated agent
    # is seen adopting after period 0: the ladders read it as silent, the
    # folded factor as the zero-probability history it is (an isolated
    # agent adopts at 0 or never).
    rule = _ExactWatcherRule(q=q, deferring=(1, 2, 3), isolated=(4, 5, 6),
                             follower=7)
    allowed = {**{j: 0 for j in rule.isolated},
               **{j: 1 for j in rule.deferring}, rule.follower: 2}
    rng = np.random.default_rng(2)
    outcomes = {"equal": 0, "both impossible": 0, "isolated late": 0}
    for _ in range(3000):
        times = {j: ((at, NEVER)[rng.integers(2)] if rng.random() < 0.85
                     else (0, 1, 2, 3, NEVER)[rng.integers(5)])
                 for j, at in allowed.items()}
        period = int(rng.integers(0, 5))
        belief = q if rng.random() < 0.5 else 1 - q
        try:
            want = _ladder_odds(rule, times.get, period, belief)
        except ImpossibleHistoryError:
            want = None
        late = any(0 < times[c] < period for c in rule.isolated)
        try:
            got = rule.factored_odds(times.get, period, belief)
        except ImpossibleHistoryError:
            got = None
        if want is None:
            assert got is None, (times, period)
            outcomes["both impossible"] += 1
        elif late:
            assert got is None, (times, period)
            outcomes["isolated late"] += 1
        else:
            assert got == want, (times, period)
            outcomes["equal"] += 1
    assert min(outcomes.values()) > 50, outcomes
