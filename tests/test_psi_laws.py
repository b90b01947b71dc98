"""psi on every kind of law a caller can build, against the double loop.

tests/test_psi_pairs.py holds the oracle, psi_loop, which evaluates each
switch time with a double loop over the grid.  Here it is compared with
psi on laws read from JSON (ints next to floats), on laws that mix
Fractions and floats, on one-point grids, on laws built from numpy
scalars, on r_grid subsets, and on grids large enough to need several
blocks of switch times.  Every value must have the same repr and type as
the oracle's, and the same argmax.
"""

import json
import tracemalloc
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from netadopt import auxmodel
from netadopt.auxmodel import Mu, default_grid, default_sampler, psi
from test_psi_pairs import MODELS, psi_loop


def _check(mu, model, r_grid=None):
    got, want = psi(mu, model, r_grid), psi_loop(mu, model, r_grid)
    assert repr(got.value) == repr(want.value)
    assert type(got.value) is type(want.value)
    assert got.argmax == want.argmax
    assert type(got.argmax.r) is type(want.argmax.r)


def _check_all_models(mu, r_grid=None):
    for model in MODELS:
        _check(mu, model, r_grid)


@st.composite
def json_laws(draw):
    """Laws as params.mu reads them: 0 and 1 parse as ints, the rest as
    floats, and an emptied point has the int mass 0."""
    n = draw(st.integers(1, 7))
    inner = sorted(draw(st.sets(st.integers(1, 99), min_size=n - 1,
                                max_size=n - 1)))
    grid = [k / 100 for k in inner] + [1]
    if grid[0] != 1 and draw(st.booleans()):
        grid[0] = 0
    weights = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)
                   .filter(any))
    high = [w / sum(weights) if w else 0 for w in weights]
    keep = draw(st.lists(st.sampled_from((0, 1 / 3, 0.5, 1)),
                         min_size=n - 1, max_size=n - 1))
    low = [h * c if c and h else 0 for h, c in zip(high, keep)]
    low.append(1 - sum(low))
    text = json.dumps({"grid": grid, "mass_high": high, "mass_low": low})
    return Mu.from_json_dict(json.loads(text))


@settings(max_examples=60, deadline=None)
@given(json_laws(), st.data())
def test_json_typed_laws_match_the_double_loop(mu, data):
    assert any(isinstance(x, int) for x in mu.grid + mu.mass_high + mu.mass_low)
    _check_all_models(mu)
    ks = data.draw(st.lists(st.integers(0, mu.n_points - 1), min_size=1))
    _check_all_models(mu, [mu.grid[k] for k in ks])


def _float_laws(n_laws, delta=0.5, n_powers=4, seed=7):
    sampler = default_sampler(delta=delta, n_powers=n_powers)
    rng = np.random.default_rng(seed)
    return [sampler(rng) for _ in range(n_laws)]


def test_mixed_fraction_and_float_laws_match_the_double_loop():
    for mu in _float_laws(25):
        exact = [[Fraction(x).limit_denominator(1000) for x in masses]
                 for masses in (mu.mass_high, mu.mass_low)]
        for masses in exact:
            masses[-1] = 1 - sum(masses[:-1])
        if min(exact[1]) < 0 or any(
                h < l for h, l in zip(exact[0][:-1], exact[1][:-1])):
            continue
        # Fraction masses on a float grid, and float masses on an exact grid.
        _check_all_models(Mu(grid=mu.grid, mass_high=tuple(exact[0]),
                             mass_low=tuple(exact[1])))
        grid = tuple(Fraction(1) - Fraction(1, 2) ** k
                     for k in range(mu.n_points - 1)) + (Fraction(1),)
        _check_all_models(Mu(grid=grid, mass_high=mu.mass_high,
                             mass_low=mu.mass_low))


def test_one_point_laws_match_the_double_loop():
    for one in (1, Fraction(1), 1.0):
        mu = Mu(grid=(one,), mass_high=(one,), mass_low=(one,))
        _check_all_models(mu)
        _check_all_models(mu, [one])


def test_numpy_scalars_are_stored_as_python_floats():
    rng = np.random.default_rng(11)
    for _ in range(20):
        grid = np.array([0.0, 0.5, 0.75, 1.0])
        high = rng.dirichlet(np.ones(4))
        low = np.append(high[:-1] / 2, 1 - high[:-1].sum() / 2)
        mu = Mu(grid=tuple(grid), mass_high=tuple(high), mass_low=tuple(low))
        stored = mu.grid + mu.mass_high + mu.mass_low
        assert all(type(x) is float for x in stored)
        assert stored == tuple(grid) + tuple(high) + tuple(low)
        _check_all_models(mu)
        _check_all_models(mu, [0.5, 1.0, 0.5])


def test_float_laws_keep_their_bits_on_r_grid_subsets():
    for mu in _float_laws(20, delta=0.7, n_powers=6, seed=3):
        for r_grid in (mu.grid[::3], mu.grid[-2:], mu.grid[:1], mu.grid[::-1]):
            _check_all_models(mu, r_grid)


def test_blocks_of_switch_times_do_not_change_a_bit(monkeypatch):
    laws = _float_laws(30, delta=0.8, n_powers=7, seed=5)
    whole = [psi(mu, model) for mu in laws for model in MODELS]
    # One switch-time row per block, however few pairs a law has.
    monkeypatch.setattr(auxmodel, "_BLOCK_ELEMENTS", 1)
    assert [psi(mu, model) for mu in laws for model in MODELS] == whole


def _dense_law(n_points, delta, seed):
    """A float law with positive mass on every grid point."""
    rng = np.random.default_rng(seed)
    high = rng.dirichlet(np.ones(n_points))
    low = high * rng.random(n_points)
    low[-1] = 1 - low[:-1].sum()
    return Mu(grid=default_grid(delta, n_points - 2), mass_high=tuple(high),
              mass_low=tuple(low))


def test_a_forty_point_law_matches_the_double_loop():
    # 1600 pairs: fewer switch-time rows per block than the law's 41, so
    # the rows take several blocks.
    mu = _dense_law(40, 0.95, seed=9)
    assert auxmodel._BLOCK_ELEMENTS // 1600 < mu.n_points + 1
    _check(mu, MODELS[0])


def test_a_two_hundred_point_law_stays_within_a_few_mib():
    # Unblocked, each (switch time x pair) table would hold 200 * 40000
    # elements, 64 MB apiece.
    mu = _dense_law(200, 0.99, seed=13)
    tracemalloc.start()
    try:
        psi(mu, MODELS[0])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak
