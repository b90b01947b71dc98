"""psi and w_mu against the double loop over grid pairs they replaced.

_w_on_grid_loop below is how w_mu used to be evaluated: one call of the
root's action rule per pair of the children's grid points, for every
family, switch time and signal branch, adding m1 * m2 * (1 - act) in
row-major order.  psi now forms the pair products once per call and
adds the same terms in the same order, so float values must agree to
the last bit (same repr and same type) and exact values must be equal.
"""

import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netadopt.auxmodel import (Mu, PsiResult, RootStrategySpec,
                               _mass_transfer, _signal_split, default_sampler,
                               psi, w_mu)
from netadopt.common import as_fraction
from netadopt.signals import SignalModel, binary_model

# Three atoms, the middle one uninformative: its belief is exactly 1/2,
# which does not count as a high own signal.
THREE_ATOMS = SignalModel(atoms=(
    (Fraction(1, 2), Fraction(1, 4)),
    (Fraction(1, 4), Fraction(1, 4)),
    (Fraction(1, 4), Fraction(1, 2)),
))
MODELS = (binary_model(Fraction(3, 4)), binary_model(0.6), THREE_ATOMS)


def _aux_action_raw(family: int, r, t1, t2, belief_high: bool):
    """The family rules' continuous-time adoption score, without coercion,
    read by the double loop below once per grid pair."""
    if family == 1:
        return t1 if t1 > r else max(t2, r)
    if family == 2:
        return r if (t1 > r and t2 <= r and belief_high) else t1
    raise ValueError(f"family must be 1 or 2, got {family!r}")


def test_aux_family_action_cases():
    r = Fraction(1, 2)
    late, early = Fraction(3, 4), Fraction(1, 4)
    # family 1: copy a late first child, else wait for max(t2, r)
    assert _aux_action_raw(1, r, late, early, True) == late
    assert _aux_action_raw(1, r, early, late, True) == late
    assert _aux_action_raw(1, r, early, early, True) == r
    # family 2: jump at r only on (late, early, high belief)
    assert _aux_action_raw(2, r, late, early, True) == r
    assert _aux_action_raw(2, r, late, early, False) == late
    assert _aux_action_raw(2, r, late, late, True) == late
    assert _aux_action_raw(2, r, early, early, True) == early
    with pytest.raises(ValueError, match="family"):
        _aux_action_raw(3, r, early, late, True)


def _w_on_grid_loop(mu, family, r, signal_split):
    """w_mu for a switch time r that is one of mu's own grid points."""
    def mean_one_minus_action(masses, belief_high):
        total = 0
        for t1, m1 in zip(mu.grid, masses):
            if not m1:
                continue
            for t2, m2 in zip(mu.grid, masses):
                if not m2:
                    continue
                act = _aux_action_raw(family, r, t1, t2, belief_high)
                total += m1 * m2 * (1 - act)
        return total

    high_branch = mean_one_minus_action(mu.mass_high, True)
    low_branch = mean_one_minus_action(mu.mass_low, True)
    if family == 1:
        return high_branch - low_branch
    p_high, p_low = signal_split
    high_other = mean_one_minus_action(mu.mass_high, False)
    low_other = mean_one_minus_action(mu.mass_low, False)
    value_high = p_high * high_branch + (1 - p_high) * high_other
    value_low = p_low * low_branch + (1 - p_low) * low_other
    return value_high - value_low


def psi_loop(mu, model, r_grid=None):
    """psi over _w_on_grid_loop, candidates matched to the grid exactly."""
    on_grid = {}
    for g in mu.grid:
        on_grid.setdefault(as_fraction(g), g)
    split = _signal_split(model)
    best = None
    for family in (1, 2):
        for r in mu.grid if r_grid is None else r_grid:
            value = _w_on_grid_loop(mu, family, on_grid[as_fraction(r)], split)
            if best is None or value > best.value:
                best = PsiResult(value=value,
                                 argmax=RootStrategySpec(family=family, r=r))
    return best


def _snapped(mu, r):
    """Largest grid point at or below r, else the first grid point."""
    below = [g for g in mu.grid if g <= r]
    return below[-1] if below else mu.grid[0]


def _same_bits(got, want):
    assert repr(got) == repr(want)
    assert type(got) is type(want)


def _float_laws():
    """(law, transferred): default_sampler draws on three embeddings, each
    followed by a mass transfer that empties one support point when the
    result stays a valid law."""
    for delta, n_powers, seed in ((0.5, 8, 1), (0.9, 5, 2), (0.3, 3, 3)):
        sampler = default_sampler(delta=delta, n_powers=n_powers)
        rng = np.random.default_rng(seed)
        for _ in range(60):
            mu = sampler(rng)
            yield mu, False
            which = "high" if rng.random() < 0.5 else "low"
            src, dst = (int(x) for x in rng.integers(0, mu.n_points, size=2))
            if src == dst:
                continue
            try:
                # amount is capped at the source's whole mass
                yield _mass_transfer(mu, which, src, dst, 1.0), True
            except ValueError:
                continue


def test_psi_float_values_are_bit_identical_to_the_double_loop():
    n_laws = n_emptied = 0
    for mu, transferred in _float_laws():
        n_laws += 1
        n_emptied += transferred
        for model in MODELS:
            got, want = psi(mu, model), psi_loop(mu, model)
            _same_bits(got.value, want.value)
            assert got.argmax == want.argmax
        model = MODELS[0]
        split = _signal_split(model)
        for family in (1, 2):
            for r in mu.grid:
                _same_bits(w_mu(mu, model, RootStrategySpec(family, r)),
                           _w_on_grid_loop(mu, family, r, split))
        subset = mu.grid[1::2]
        got, want = psi(mu, model, subset), psi_loop(mu, model, subset)
        _same_bits(got.value, want.value)
        assert got.argmax == want.argmax
    assert n_laws > 200 and n_emptied > 20


def test_w_mu_snaps_off_grid_float_switch_times_like_the_double_loop():
    sampler = default_sampler(delta=0.5, n_powers=4)
    rng = np.random.default_rng(5)
    model = MODELS[0]
    split = _signal_split(model)
    for _ in range(30):
        mu = sampler(rng)
        for lo, hi in zip(mu.grid, mu.grid[1:]):
            r = (lo + hi) / 2
            for family in (1, 2):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    got = w_mu(mu, model, RootStrategySpec(family, r))
                assert any("off the support grid" in str(w.message)
                           for w in caught)
                _same_bits(got, _w_on_grid_loop(mu, family, lo, split))


DENOMINATOR = 24


@st.composite
def exact_laws(draw):
    """Exact child laws on 1 to 8 grid points, zero masses allowed."""
    n = draw(st.integers(1, 8))
    inner = draw(st.sets(st.integers(0, DENOMINATOR - 1),
                         min_size=n - 1, max_size=n - 1))
    grid = tuple(Fraction(k, DENOMINATOR) for k in sorted(inner)) + (Fraction(1),)
    weights = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)
                   .filter(any))
    high = [Fraction(w, sum(weights)) for w in weights]
    keep = draw(st.lists(
        st.sampled_from((Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1))),
        min_size=n - 1, max_size=n - 1))
    low = [h * c for h, c in zip(high, keep)]
    low.append(1 - sum(low))
    return Mu(grid=grid, mass_high=tuple(high), mass_low=tuple(low))


@settings(max_examples=100, deadline=None)
@given(exact_laws(), st.sampled_from((MODELS[0], THREE_ATOMS)), st.data())
def test_psi_exact_values_equal_the_double_loop(mu, model, data):
    got, want = psi(mu, model), psi_loop(mu, model)
    assert got == want and type(got.value) is type(want.value)
    ks = data.draw(st.lists(st.integers(0, mu.n_points - 1), min_size=1,
                            unique=True))
    r_grid = [mu.grid[k] for k in ks]
    assert psi(mu, model, r_grid) == psi_loop(mu, model, r_grid)
    split = _signal_split(model)
    for family in (1, 2):
        for r in mu.grid:
            assert w_mu(mu, model, RootStrategySpec(family, r)) \
                == _w_on_grid_loop(mu, family, r, split)
        # An odd multiple of 1 / (2 * DENOMINATOR) is never a grid point.
        r = Fraction(2 * data.draw(st.integers(0, DENOMINATOR - 1)) + 1,
                     2 * DENOMINATOR)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = w_mu(mu, model, RootStrategySpec(family, r))
        assert got == _w_on_grid_loop(mu, family, _snapped(mu, r), split)
