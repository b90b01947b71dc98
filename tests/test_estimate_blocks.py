"""estimate_C_eps's blocks of draws against the one-law-at-a-time loop.

estimate_loop below is how estimate_C_eps used to run: draw a law, test it,
score it with psi, keep the first smallest ratio, then descend.  The
function now draws a block of laws first and scores the block's accepted
float laws on one grid in one evaluator call, so every ratio, and with
them the whole CUpperEstimate, must keep its repr.
"""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from netadopt import auxmodel
from netadopt.auxmodel import (CUpperEstimate, Mu, _mass_transfer,
                               default_grid, default_sampler, estimate_C_eps,
                               eta_of_mu, psi, u_of_mu)
from netadopt.signals import binary_model
from test_psi_pairs import THREE_ATOMS

BINARY = binary_model(0.75)


def estimate_loop(eps, model, sampler, n, *, rng, descent_steps=120):
    """estimate_C_eps as one sampler, test and psi call per law."""
    def ratio_of(mu):
        util = u_of_mu(mu)
        if eta_of_mu(mu) < eps or util <= 0:
            return None, None
        result = psi(mu, model)
        return float(result.value) / float(util), result.argmax

    best_ratio = best_mu = best_arg = None
    n_accepted = n_rejected = n_below_one = 0
    for _ in range(n):
        try:
            mu = sampler(rng)
        except ValueError:
            n_rejected += 1
            continue
        ratio, argmax = ratio_of(mu)
        if ratio is None:
            n_rejected += 1
            continue
        n_accepted += 1
        if ratio <= 1.0:
            n_below_one += 1
        if best_ratio is None or ratio < best_ratio:
            best_ratio, best_mu, best_arg = ratio, mu, argmax
    if best_mu is None:
        raise ValueError("sampler produced no acceptable child distribution")
    before_descent = best_ratio
    step = 0.25
    for k in range(descent_steps):
        which = "high" if rng.random() < 0.5 else "low"
        src = int(rng.integers(0, best_mu.n_points))
        dst = int(rng.integers(0, best_mu.n_points))
        if src == dst:
            continue
        amount = step * float(rng.random())
        try:
            trial = _mass_transfer(best_mu, which, src, dst, amount)
        except ValueError:
            continue
        ratio, argmax = ratio_of(trial)
        if ratio is not None and ratio < best_ratio:
            best_ratio, best_mu, best_arg = ratio, trial, argmax
            if ratio <= 1.0:
                n_below_one += 1
        if (k + 1) % 40 == 0:
            step /= 4.0
    return CUpperEstimate(
        eps=float(eps), value=best_ratio, minimizer=best_mu, argmax=best_arg,
        n_samples=n, n_accepted=n_accepted, n_rejected=n_rejected,
        n_below_one=n_below_one, descent_improvement=before_descent - best_ratio)


def _outcome(estimate, eps, model, sampler, n, seed):
    try:
        return repr(estimate(eps, model, sampler, n,
                             rng=np.random.default_rng(seed)))
    except ValueError as exc:
        return f"ValueError: {exc}"


def _same_estimate(eps, model, sampler, n, seed):
    got = _outcome(estimate_C_eps, eps, model, sampler, n, seed)
    assert got == _outcome(estimate_loop, eps, model, sampler, n, seed)
    return got


@pytest.mark.parametrize("model", [BINARY, binary_model(0.6), THREE_ATOMS],
                         ids=["binary-0.75", "binary-0.6", "three-atoms"])
@pytest.mark.parametrize("delta", [0.5, 0.8])
def test_default_sampler_estimates_keep_their_repr(model, delta):
    sampler = default_sampler(delta)
    for seed, eps in ((1, 0.05), (2, 0.2), (3, 0.05), (4, 0.2)):
        _same_estimate(eps, model, sampler, 300, seed)


GRID_A = default_grid(0.5, 8)
GRID_B = default_grid(0.8, 5)
# Equal to GRID_A as a tuple, so its laws share GRID_A's pass, but an
# argmax at its first point must keep the -0.0.
GRID_A_SIGNED = (-0.0,) + GRID_A[1:]
# Dyadic laws whose best value is reached at two (family, r) entries
# exactly, so psi's first-maximum rule decides the argmax.
TIED = [Mu(grid=(0.0, 0.5, 1.0), mass_high=high, mass_low=low)
        for high, low in (((0.25, 0.25, 0.5), (0.25, 0.0, 0.75)),
                          ((0.25, 0.75, 0.0), (0.25, 0.0, 0.75)),
                          ((0.5, 0.5, 0.0), (0.5, 0.0, 0.5)))]


def mixed_sampler(rng):
    """Laws of every kind the pass must sort out, and failing draws."""
    recipe = int(rng.integers(0, 9))
    if recipe == 0:
        raise ValueError("the sampler gave up")
    if recipe == 1:  # masses that do not sum to one: Mu raises
        return Mu(grid=GRID_B, mass_high=(0.5,) * len(GRID_B),
                  mass_low=(0.5,) * len(GRID_B))
    if recipe == 2:  # an exact law
        w = [Fraction(int(x)) for x in rng.integers(1, 9, size=3)]
        high = (w[0] / sum(w), w[1] / sum(w), w[2] / sum(w))
        keep = Fraction(int(rng.integers(0, 5)), 4)
        low = (high[0] * keep, high[1] * keep, 1 - (high[0] + high[1]) * keep)
        return Mu(grid=(Fraction(0), Fraction(1, 2), Fraction(1)),
                  mass_high=high, mass_low=low)
    if recipe == 3:  # one nonzero high-state mass, -0.0 elsewhere
        n = len(GRID_A)
        k = int(rng.integers(0, n - 1))
        c = float(rng.random())
        high, low = [-0.0] * n, [-0.0] * n
        high[k], low[k], low[-1] = 1.0, c, 1.0 - c
        return Mu(grid=GRID_A, mass_high=tuple(high), mass_low=tuple(low))
    if recipe == 4:  # a one-point law, never accepted
        return Mu(grid=(1.0,), mass_high=(1.0,), mass_low=(1.0,))
    if recipe == 8:
        return TIED[int(rng.integers(0, len(TIED)))]
    grid = {5: GRID_A, 6: GRID_B, 7: GRID_A_SIGNED}[recipe]
    mu = default_sampler(0.5, len(grid) - 2)(rng)
    # Every zero mass as -0.0, on this recipe's grid.
    signed = [tuple(-0.0 if x == 0 else x for x in masses)
              for masses in (mu.mass_high, mu.mass_low)]
    return Mu(grid=grid, mass_high=signed[0], mass_low=signed[1])


def _ratio_loop(draws, model, eps):
    out = []
    for mu in draws:
        util = None if mu is None else u_of_mu(mu)
        if util is None or eta_of_mu(mu) < eps or util <= 0:
            out.append((None, None))
            continue
        result = psi(mu, model)
        out.append((float(result.value) / float(util), result.argmax))
    return out


@pytest.mark.parametrize("model", [BINARY, THREE_ATOMS],
                         ids=["binary", "three-atoms"])
def test_each_ratio_of_a_mixed_block_keeps_its_repr(model):
    rng = np.random.default_rng(17)
    draws = []
    for _ in range(400):
        try:
            draws.append(mixed_sampler(rng))
        except ValueError:
            draws.append(None)
    kinds = {None if mu is None else (mu.grid, auxmodel._is_float(mu))
             for mu in draws}
    assert len(kinds) >= 5  # failed draws, three float grids, exact laws
    for eps in (0.05, 0.2):
        got = auxmodel._block_ratios(draws, model, eps)
        want = _ratio_loop(draws, model, eps)
        assert repr(got) == repr(want)
    assert any(repr(argmax.r) == "-0.0" for _, argmax in got
               if argmax is not None)


def test_ties_keep_the_first_maximum_and_the_first_minimum():
    for mu in TIED:
        values = [v[0].tolist() for v in auxmodel._values_on_grid(
            [mu], BINARY, range(mu.n_points))]
        flat = values[0] + values[1]
        assert flat.count(max(flat)) == 2
    # Equal laws on grids that differ only in the sign of their first point:
    # every ratio ties, and the first draw must stay the minimizer.
    rng = np.random.default_rng(4)
    masses = next(mu for mu in iter(lambda: default_sampler(0.5)(rng), None)
                  if auxmodel._accepted_utility(mu, 0.05) is not None)
    twins = [Mu(grid=grid, mass_high=masses.mass_high,
                mass_low=masses.mass_low) for grid in (GRID_A, GRID_A_SIGNED)]
    for first in (0, 1):
        def alternate(rng, count=iter(range(10**6))):
            return twins[(next(count) + first) % 2]
        got = estimate_C_eps(0.05, BINARY, alternate, 10,
                             rng=np.random.default_rng(1), descent_steps=0)
        assert repr(got.minimizer.grid[0]) == repr(twins[first].grid[0])
        assert got.n_accepted == 10


def _law_on_support(rng, grid, signed):
    """A float law on grid whose masses sit on a random subset of points."""
    n = len(grid)
    if rng.random() < 0.25:  # one nonzero high-state mass
        k = int(rng.integers(0, n))
        high = np.zeros(n)
        high[k] = 1.0
    else:
        support = rng.random(n) < rng.uniform(0.2, 1.0)
        support[int(rng.integers(0, n))] = True
        high = np.zeros(n)
        high[support] = rng.dirichlet(np.ones(support.sum()))
    low = high * rng.random(n) * (rng.random(n) < 0.7)
    low[-1] = 1.0 - low[:-1].sum()
    zero = -0.0 if signed else 0.0
    return Mu(grid=grid, **{name: tuple(zero if x == 0 else float(x)
                                        for x in masses)
                            for name, masses in (("mass_high", high),
                                                 ("mass_low", low))})


@pytest.mark.parametrize("model", [BINARY, THREE_ATOMS],
                         ids=["binary", "three-atoms"])
def test_a_batch_gives_each_law_its_own_bits(model):
    rng = np.random.default_rng(29)
    laws = [_law_on_support(rng, GRID_A, signed=b % 2 == 1)
            for b in range(60)]
    supports = {tuple(x != 0 for x in mu.mass_high + mu.mass_low)
                for mu in laws}
    assert len(supports) > 40
    assert any(sum(x != 0 for x in mu.mass_high) == 1 for mu in laws)
    n = len(GRID_A)
    for ks in (range(n), [3, 0, n - 1, 3]):
        batch = auxmodel._values_on_grid(laws, model, ks)
        for b, mu in enumerate(laws):
            alone = auxmodel._values_on_grid([mu], model, ks)
            for family in (0, 1):
                assert ([x.hex() for x in batch[family][b].tolist()]
                        == [x.hex() for x in alone[family][0].tolist()])


def test_only_float_laws_are_scored_together():
    dyadic, other = TIED[:2]
    exact = Mu(grid=tuple(map(Fraction, dyadic.grid)),
               mass_high=tuple(map(Fraction, dyadic.mass_high)),
               mass_low=tuple(map(Fraction, dyadic.mass_low)))
    mixed = Mu(grid=other.grid,
               mass_high=(Fraction(1, 4),) + other.mass_high[1:],
               mass_low=other.mass_low)
    for laws in ([exact, exact], [exact, mixed], [dyadic, exact],
                 [mixed, other]):
        with pytest.raises(ValueError, match="only float laws"):
            auxmodel._values_on_grid(laws, BINARY, range(3))
    # Alone, the exact law keeps Python's arithmetic and stays exact.
    alone = auxmodel._values_on_grid([exact], BINARY, range(3))
    assert all(type(x) is Fraction for v in alone for x in v[0].tolist())
    assert auxmodel._values_on_grid([mixed], BINARY, range(3))[0].shape == (1, 3)


@pytest.mark.parametrize("block", [1, 7, None])
def test_mixed_estimates_keep_their_repr_around_the_block_size(block,
                                                               monkeypatch):
    if block is not None:
        monkeypatch.setattr(auxmodel, "_DRAW_BLOCK", block)
    size = auxmodel._DRAW_BLOCK
    outcomes = [_same_estimate(eps, BINARY, mixed_sampler, n, seed)
                for n in sorted({max(1, size - 1), size, size + 1, 2 * size + 3})
                for seed in (5, 6) for eps in (0.05, 0.2)]
    assert any(o.startswith("CUpperEstimate(") for o in outcomes)


def test_a_block_with_no_accepted_law_still_raises():
    with pytest.raises(ValueError, match="no acceptable"):
        estimate_C_eps(0.999, BINARY, default_sampler(), n=5,
                       rng=np.random.default_rng(0))


def test_fifteen_hundred_draws_stay_within_a_mib():
    # Scoring all 1500 draws in one pass would hold them and their
    # (laws x pairs) products at once, about 4 MiB.
    sampler = default_sampler(0.5)
    tracemalloc.start()
    try:
        estimate_C_eps(0.05, BINARY, sampler, 1500,
                       rng=np.random.default_rng(3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
