import json
import math
from fractions import Fraction

import pytest

from netadopt.common import RegimeError
from netadopt.solver import verify_spontaneous_example

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
    from netadopt.engine import DecisionContext, NeighborTimes
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
