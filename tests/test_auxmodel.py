import itertools
import json
from fractions import Fraction

import numpy as np
import pytest

from netadopt.auxmodel import (
    Mu,
    RootStrategySpec,
    default_grid,
    default_sampler,
    estimate_C_eps,
    eta_of_mu,
    min_delta_for,
    psi,
    reparam,
    u_of_mu,
    w_mu,
)
from netadopt.common import NEVER, STATE_HIGH, is_never
from netadopt.engine import run_profile
from netadopt.networks import Network
from netadopt.signals import binary_model
from netadopt.strategies import AuxRootRule, myopic_rule

Q = Fraction(3, 4)
MODEL = binary_model(Q)

# child that mirrors a myopic binary-signal agent of accuracy 4/5 on the
# rescaled clock: adopt at once or never
CHILD = Mu(
    grid=(Fraction(0), Fraction(1)),
    mass_high=(Fraction(4, 5), Fraction(1, 5)),
    mass_low=(Fraction(1, 5), Fraction(4, 5)),
)


# -------------------------------------------------------------- validation

def test_mu_validation():
    one = Fraction(1)
    with pytest.raises(ValueError, match="at least one"):
        Mu(grid=(), mass_high=(), mass_low=())
    with pytest.raises(ValueError, match="match the grid"):
        Mu(grid=(one,), mass_high=(one, one), mass_low=(one,))
    with pytest.raises(ValueError, match="exactly 1"):
        Mu(grid=(Fraction(1, 2),), mass_high=(one,), mass_low=(one,))
    with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
        Mu(grid=(0.0, float("nan"), 1.0), mass_high=(1.0, 0.0, 0.0),
           mass_low=(1.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="ascending"):
        Mu(grid=(Fraction(1, 2), Fraction(1, 2), one),
           mass_high=(one, 0, 0), mass_low=(one, 0, 0))
    with pytest.raises(ValueError, match="nonnegative"):
        Mu(grid=(Fraction(1, 2), one),
           mass_high=(Fraction(3, 2), Fraction(-1, 2)), mass_low=(one, 0))
    with pytest.raises(ValueError, match="sum to one"):
        Mu(grid=(Fraction(1, 2), one),
           mass_high=(Fraction(1, 3), Fraction(1, 3)), mass_low=(one, 0))
    with pytest.raises(ValueError, match="sum to one"):
        Mu(grid=(0.0, 0.5, 1.0), mass_high=(float("nan"), 0.5, 0.5),
           mass_low=(0.25, 0.25, 0.5))


def test_mu_dominance_rule():
    # below 1 the high mass may not fall short of the low mass
    with pytest.raises(ValueError, match="dominate"):
        Mu(grid=(Fraction(0), Fraction(1)),
           mass_high=(Fraction(1, 4), Fraction(3, 4)),
           mass_low=(Fraction(1, 2), Fraction(1, 2)))
    # at the never point the low mass exceeding the high mass is expected
    Mu(grid=(Fraction(0), Fraction(1)),
       mass_high=(Fraction(3, 4), Fraction(1, 4)),
       mass_low=(Fraction(1, 4), Fraction(3, 4)))


def test_mu_json_round_trip_exact():
    back = Mu.from_json_dict(CHILD.to_json_dict())
    assert back == CHILD
    assert isinstance(back.grid[0], Fraction)


def test_mu_json_round_trip_float():
    mu = Mu(grid=(0.0, 1.0), mass_high=(0.8, 0.2), mass_low=(0.2, 0.8))
    blob = json.dumps(mu.to_json_dict())
    back = Mu.from_json_dict(json.loads(blob))
    assert back == mu
    with pytest.raises(ValueError, match="malformed"):
        Mu.from_json_dict({"grid": [0, 1]})


def test_root_strategy_spec_validation():
    with pytest.raises(ValueError, match="family"):
        RootStrategySpec(family=3, r=Fraction(1, 2))
    with pytest.raises(ValueError, match="switch time"):
        RootStrategySpec(family=1, r=Fraction(3, 2))


# ----------------------------------------------------------- worked example

def test_child_utility_and_error_weight():
    assert u_of_mu(CHILD) == Fraction(3, 5)
    assert eta_of_mu(CHILD) == Fraction(1, 5)


def test_w_mu_worked_example():
    # family 2 at r = 0: copy the first child, except adopt immediately on a
    # high own signal when the children split; evaluates to 17/25 here
    val = w_mu(CHILD, MODEL, RootStrategySpec(family=2, r=Fraction(0)))
    assert val == Fraction(17, 25)


def test_w_mu_boundary_identities_exact():
    # switching at 1 makes family 2 a pure copy of child 1 (worth u) and
    # family 1 a never-adopter (worth 0)
    assert w_mu(CHILD, MODEL, RootStrategySpec(family=2, r=Fraction(1))) == u_of_mu(CHILD)
    assert w_mu(CHILD, MODEL, RootStrategySpec(family=1, r=Fraction(1))) == 0


def test_w_mu_boundary_identities_sampled_floats():
    sampler = default_sampler(delta=0.5, n_powers=5)
    rng = np.random.default_rng(8)
    for _ in range(50):
        mu = sampler(rng)
        u = float(u_of_mu(mu))
        assert abs(float(w_mu(mu, MODEL, RootStrategySpec(family=2, r=1.0))) - u) <= 1e-12
        assert abs(float(w_mu(mu, MODEL, RootStrategySpec(family=1, r=1.0)))) <= 1e-12


def test_w_mu_snaps_off_grid_switch_time():
    with pytest.warns(UserWarning, match="off the support grid"):
        val = w_mu(CHILD, MODEL, RootStrategySpec(family=2, r=Fraction(1, 3)))
    assert val == w_mu(CHILD, MODEL, RootStrategySpec(family=2, r=Fraction(0)))


# ------------------------------------------------------------------- psi

def test_psi_picks_signal_injection():
    result = psi(CHILD, MODEL)
    assert result.value == Fraction(17, 25)
    assert result.argmax == RootStrategySpec(family=2, r=Fraction(0))
    # a coarser switch grid can only do worse
    restricted = psi(CHILD, MODEL, r_grid=(Fraction(1),))
    assert restricted.value == Fraction(3, 5)
    assert restricted.value <= result.value


def test_psi_rejects_off_support_grid():
    with pytest.raises(ValueError, match="not on the support grid"):
        psi(CHILD, MODEL, r_grid=(Fraction(1, 3),))


def test_psi_point_mass_children_cannot_be_improved():
    # both states adopt at the same moment: no rule beats copying
    point = Mu(grid=(Fraction(1, 2), Fraction(1)),
               mass_high=(Fraction(1), Fraction(0)),
               mass_low=(Fraction(1), Fraction(0)))
    assert u_of_mu(point) == 0
    assert psi(point, MODEL).value == 0


def test_psi_straddle_children_improved_by_own_signal():
    # equal state masses make the children worthless (u = 0), yet the root's
    # signal tips the split cases: psi = (2q - 1)/4 = 1/8 at q = 3/4
    straddle = Mu(grid=(Fraction(0), Fraction(1)),
                  mass_high=(Fraction(1, 2), Fraction(1, 2)),
                  mass_low=(Fraction(1, 2), Fraction(1, 2)))
    assert u_of_mu(straddle) == 0
    result = psi(straddle, MODEL)
    assert result.value == Fraction(1, 8)
    assert result.argmax.family == 2


# ----------------------------------------------------- clock and discounts

def test_reparam():
    d = Fraction(1, 2)
    assert reparam(d, 0) == 0
    assert reparam(d, 2) == Fraction(3, 4)
    assert reparam(d, NEVER) == 1
    assert isinstance(reparam(0.5, 2), float)
    with pytest.raises(ValueError, match="period"):
        reparam(d, Fraction(1, 2))
    with pytest.raises(ValueError, match="period"):
        reparam(d, -1)
    with pytest.raises(ValueError, match="discount"):
        reparam(1, 3)


def test_default_grid():
    grid = default_grid(Fraction(1, 2), n_powers=3)
    assert grid == (0, Fraction(1, 2), Fraction(3, 4), Fraction(7, 8), Fraction(1))
    assert default_grid(Fraction(1, 2), n_powers=0) == (0, Fraction(1))
    with pytest.raises(ValueError):
        default_grid(Fraction(1, 2), n_powers=-1)


def test_min_delta_for():
    assert min_delta_for(Fraction(5, 4)) == Fraction(4, 5)
    assert min_delta_for(2) == Fraction(1, 2)
    with pytest.raises(ValueError):
        min_delta_for(1)


# ----------------------------------------- discrete versus continuous clock

def _two_layer_value(family: int, r, delta: Fraction) -> Fraction:
    """H-minus-L expectation of delta**(root adoption period), exactly.

    The root observes two myopic children; every signal combination is
    enumerated with its exact joint likelihood under each state.
    """
    net = Network(n=3, edges=frozenset({(0, 1), (0, 2)}))
    root = AuxRootRule(spec=RootStrategySpec(family=family, r=r), delta=delta)
    profile = {0: root, 1: myopic_rule(MODEL), 2: myopic_rule(MODEL)}
    total = Fraction(0)
    for combo in itertools.product(range(2), repeat=3):
        trace = run_profile(net, MODEL, profile, horizon=6,
                            rng=np.random.default_rng(0),
                            state=STATE_HIGH, atoms=list(combo))
        tau = trace.times[0]
        if is_never(tau):
            continue
        w_high = Fraction(1)
        w_low = Fraction(1)
        for atom in combo:
            lh, ll = MODEL.atoms[atom]
            w_high *= lh
            w_low *= ll
        total += delta ** tau * (w_high - w_low)
    return total


@pytest.mark.parametrize("family", [1, 2])
@pytest.mark.parametrize("r", [Fraction(0), Fraction(1, 2), Fraction(1)])
def test_discrete_matches_continuous_exactly(family, r):
    # the one-period reaction lag costs exactly one discount factor: the
    # discrete tree value equals delta times the rescaled-clock value
    delta = Fraction(1, 2)
    # the child adopts at 0 or never; the zero-mass point at 1/2 = 1 - delta
    # puts the root's switch moment on the support grid
    mu = Mu(grid=(Fraction(0), Fraction(1, 2), Fraction(1)),
            mass_high=(Q, Fraction(0), 1 - Q),
            mass_low=(1 - Q, Fraction(0), Q))
    continuous = w_mu(mu, MODEL, RootStrategySpec(family=family, r=r))
    discrete = _two_layer_value(family, r, delta)
    assert discrete == delta * continuous


# ------------------------------------------------------- sampled estimates

def test_default_sampler_produces_valid_children():
    sampler = default_sampler(delta=0.5, n_powers=6)
    rng = np.random.default_rng(3)
    for _ in range(200):
        mu = sampler(rng)
        assert mu.n_points == 8
        assert mu.grid[-1] == 1.0


def test_estimate_C_eps_contract():
    sampler = default_sampler(delta=0.5, n_powers=4)
    est = estimate_C_eps(0.05, MODEL, sampler, n=150,
                         rng=np.random.default_rng(12))
    assert est.value > 1.0
    assert est.n_below_one == 0
    assert est.n_accepted + est.n_rejected == est.n_samples == 150
    assert est.descent_improvement >= 0.0
    assert eta_of_mu(est.minimizer) >= Fraction(1, 20)
    again = estimate_C_eps(0.05, MODEL, sampler, n=150,
                           rng=np.random.default_rng(12))
    assert again.value == est.value


def test_estimate_C_eps_validation():
    sampler = default_sampler()
    with pytest.raises(ValueError, match="eps"):
        estimate_C_eps(0.0, MODEL, sampler, n=10)
    with pytest.raises(ValueError, match="sample"):
        estimate_C_eps(0.05, MODEL, sampler, n=0)
    with pytest.raises(ValueError, match="no acceptable"):
        estimate_C_eps(0.999, MODEL, sampler, n=5,
                       rng=np.random.default_rng(0))
