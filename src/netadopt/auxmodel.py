"""Continuous-time auxiliary model of a root imitating two children.

Time is rescaled to [0, 1] with 1 meaning never.  A child's behavior is
summarized by the joint distribution of its adoption time and the state; the
root can wait and copy a child, or inject its own signal at a chosen moment.
The quantities here measure how much either move improves on the children's
own utility, which is what drives the patient-agent learning results.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .common import as_fraction, is_never
from .signals import SignalModel
from .strategies import HALF, RootStrategySpec, _aux_action_raw

_SUM_TOL = 1e-12


@dataclass(frozen=True)
class Mu:
    """Atomic adoption-time distribution of one child, per state.

    grid holds the support, ascending in [0, 1] with the last point exactly
    1 (never adopts); mass_high and mass_low are the probabilities of each
    support point under the high and low states.  Below 1 the high state
    must dominate pointwise: an optimizing child is never more eager to
    adopt when the state is low.

    Exact inputs (ints, Fractions) are kept exact; floats stay floats, with
    sums checked to 1e-12.
    """

    grid: tuple
    mass_high: tuple
    mass_low: tuple

    def __post_init__(self):
        grid = tuple(self.grid)
        high = tuple(self.mass_high)
        low = tuple(self.mass_low)
        if not grid:
            raise ValueError("grid needs at least one point")
        if len(high) != len(grid) or len(low) != len(grid):
            raise ValueError("mass vectors must match the grid length")
        if grid[-1] != 1:
            raise ValueError("last grid point must be exactly 1")
        if grid[0] < 0:
            raise ValueError("grid points must lie in [0, 1]")
        if any(a >= b for a, b in zip(grid, grid[1:])):
            raise ValueError("grid must be strictly ascending")
        for masses in (high, low):
            if any(m < 0 for m in masses):
                raise ValueError("masses must be nonnegative")
            if abs(float(sum(masses)) - 1.0) > _SUM_TOL:
                raise ValueError("masses must sum to one")
        if any(h < l for g, h, l in zip(grid, high, low) if g != 1):
            raise ValueError("high-state mass must dominate below 1")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "mass_high", high)
        object.__setattr__(self, "mass_low", low)

    @property
    def n_points(self) -> int:
        return len(self.grid)

    def never_mass(self, state_high: bool):
        """Mass sitting at 1, the never-adopts point."""
        return self.mass_high[-1] if state_high else self.mass_low[-1]

    def to_json_dict(self) -> dict:
        # Exact entries serialize as fraction strings so they survive the
        # round trip exactly; floats stay JSON numbers.
        def enc(x):
            return x if isinstance(x, float) else str(Fraction(x))
        return {
            "grid": [enc(g) for g in self.grid],
            "mass_high": [enc(m) for m in self.mass_high],
            "mass_low": [enc(m) for m in self.mass_low],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "Mu":
        def dec(x):
            return as_fraction(x) if isinstance(x, str) else x
        try:
            grid = tuple(dec(g) for g in data["grid"])
            high = tuple(dec(m) for m in data["mass_high"])
            low = tuple(dec(m) for m in data["mass_low"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed child-distribution data: {exc}") from exc
        return Mu(grid=grid, mass_high=high, mass_low=low)


def u_of_mu(mu: Mu):
    """Utility difference a child's own adoption time earns across states.

    Adopting at time t is worth 1 - t in the high state and -(1 - t) in the
    low state, so this is the mean of 1 - t under the high masses minus the
    same mean under the low masses.  Exact for exact inputs.
    """
    gain = sum((1 - t) * m for t, m in zip(mu.grid, mu.mass_high))
    loss = sum((1 - t) * m for t, m in zip(mu.grid, mu.mass_low))
    return gain - loss


def eta_of_mu(mu: Mu):
    """Probability weight on the child being eventually wrong.

    The child errs by never adopting in the high state or adopting in the
    low state; the usable error level is capped by the utility, hence the
    minimum.
    """
    err = Fraction(1, 2) * mu.never_mass(True) + Fraction(1, 2) * (1 - mu.never_mass(False))
    return min(u_of_mu(mu), err)


def _signal_split(model: SignalModel):
    """Likelihood of a strictly-high private belief, under each state."""
    p_high = Fraction(0)
    p_low = Fraction(0)
    for (lh, ll), belief in zip(model.atoms, model.beliefs):
        if belief > HALF:
            p_high += lh
            p_low += ll
    return p_high, p_low


def _snap_r(mu: Mu, r):
    grid_exact = [as_fraction(g) for g in mu.grid]
    r_exact = as_fraction(r)
    for g, g_exact in zip(mu.grid, grid_exact):
        if g_exact == r_exact:
            return g
    below = [g for g, g_exact in zip(mu.grid, grid_exact) if g_exact <= r_exact]
    snapped = below[-1] if below else mu.grid[0]
    warnings.warn(
        f"switch time {float(r)} is off the support grid; snapped to {float(snapped)}",
        stacklevel=3,
    )
    return snapped


def w_mu(mu: Mu, model: SignalModel, a: RootStrategySpec):
    """Utility difference across states for a root playing a family rule.

    The children's times are independent given the state with marginal mu,
    and the root's signal is independent of them given the state.  The sum
    runs over both children's support points; the private signal enters
    only through whether its belief strictly favors the high state, so the
    signal atoms collapse into that event's likelihoods.  Exact for exact
    inputs.

    The discrete counterpart (a two-layer tree where the root reacts one
    period late) earns exactly delta times this value, measured as the
    high-state minus low-state expectation of delta**(adoption period):
    waiting one period to see a child costs a factor delta, and the
    state-difference removes the utility scale.  That identity is what the
    consistency tests check.
    """
    return _w_on_grid(mu, a.family, _snap_r(mu, a.r), _signal_split(model))


def _w_on_grid(mu: Mu, family: int, r, signal_split):
    """w_mu for a switch time r that is one of mu's own grid points.

    signal_split is _signal_split of the root's signal model.
    """
    def mean_one_minus_action(masses, belief_high: bool):
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
        # Family 1 never consults the signal; a single branch suffices.
        return high_branch - low_branch
    p_high, p_low = signal_split
    high_other = mean_one_minus_action(mu.mass_high, False)
    low_other = mean_one_minus_action(mu.mass_low, False)
    value_high = p_high * high_branch + (1 - p_high) * high_other
    value_low = p_low * low_branch + (1 - p_low) * low_other
    return value_high - value_low


@dataclass(frozen=True)
class PsiResult:
    """Best imitation value found and the strategy attaining it."""

    value: "float | Fraction"
    argmax: RootStrategySpec


def psi(mu: Mu, model: SignalModel, r_grid: Optional[Sequence] = None) -> PsiResult:
    """Best utility difference over both families and all grid switch times.

    r_grid defaults to the full support grid and must be a subset of it;
    restricting the search to the support loses nothing for atomic
    distributions because the family rules only compare times against r.
    """
    # Each candidate is matched to the grid's own point once, by exact value.
    on_grid = {}
    for g in mu.grid:
        on_grid.setdefault(as_fraction(g), g)
    if r_grid is None:
        r_grid = mu.grid
    points = [(r, on_grid.get(as_fraction(r))) for r in r_grid]
    missing = [r for r, g in points if g is None]
    if missing:
        raise ValueError(f"switch times {missing} are not on the support grid")
    split = _signal_split(model)
    best = None
    for family in (1, 2):
        for r, g in points:
            value = _w_on_grid(mu, family, g, split)
            if best is None or value > best.value:
                best = PsiResult(value=value,
                                 argmax=RootStrategySpec(family=family, r=r))
    return best


def default_grid(delta, n_powers: int = 8) -> tuple:
    """Support grid left by discounting: 1 - delta**k for k = 0..n, plus 1."""
    delta = _checked_delta(delta)
    if n_powers < 0:
        raise ValueError("n_powers must be nonnegative")
    return tuple(1 - delta**k for k in range(n_powers + 1)) + (_one_like(delta),)


def _one_like(delta):
    return Fraction(1) if isinstance(delta, (Fraction, int)) else 1.0


def _checked_delta(delta):
    if not 0 < delta < 1:
        raise ValueError("discount must lie strictly between 0 and 1")
    return delta


def reparam(delta, tau):
    """Map a discrete adoption period to the [0, 1] time scale.

    Period t lands at 1 - delta**t; never adopting lands at 1.  Exact for
    exact discounts.
    """
    delta = _checked_delta(delta)
    if is_never(tau):
        return _one_like(delta)
    if tau != int(tau) or tau < 0:
        raise ValueError(f"period must be a nonnegative integer or NEVER, got {tau!r}")
    return 1 - delta ** int(tau)


def min_delta_for(improvement: float):
    """Smallest discount at which a guaranteed improvement factor pays off.

    A root that improves on its children by the factor C only profits from
    the one-period imitation lag when delta > 1 / C, so that is the cutoff.
    """
    if improvement <= 1:
        raise ValueError("improvement factor must exceed 1")
    return 1 / improvement


@dataclass(frozen=True)
class CUpperEstimate:
    """Sampled upper estimate of the guaranteed improvement factor.

    value is the smallest psi/u ratio seen over the accepted sample, after
    local refinement; it upper-bounds the true infimum because sampling
    cannot certify the minimizer.  n_below_one counts accepted ratios at or
    below 1 and should stay zero.
    """

    eps: float
    value: float
    minimizer: Mu
    argmax: RootStrategySpec
    n_samples: int
    n_accepted: int
    n_rejected: int
    n_below_one: int
    descent_improvement: float


def default_sampler(delta: float = 0.5, n_powers: int = 8) -> Callable:
    """Sampler of child distributions on the discounting grid.

    Mixes three recipes: fully random dominated masses, near-degenerate
    single-atom profiles, and profiles blended toward uninformativeness so
    the error weight sits near its floor.  Draws may fail the error-level
    or positive-utility requirements; estimate_C_eps rejects and counts
    those.
    """
    grid = default_grid(float(delta), n_powers)
    n = len(grid)

    def sample(rng: np.random.Generator) -> Mu:
        recipe = rng.integers(0, 3)
        if recipe == 2:
            k = int(rng.integers(0, n - 1))
            c = float(rng.random())
            high = [0.0] * n
            low = [0.0] * n
            high[k] = 1.0
            low[k] = c
            low[-1] = 1.0 - c
            return Mu(grid=grid, mass_high=tuple(high), mass_low=tuple(low))
        high = rng.dirichlet(np.ones(n))
        cut = rng.random(n - 1) * high[:-1]
        low = np.append(cut, 1.0 - cut.sum())
        if recipe == 1:
            lam = rng.uniform(0.5, 0.95)
            low = (1.0 - lam) * low + lam * high
        return Mu(grid=grid, mass_high=tuple(high), mass_low=tuple(low.tolist()))

    return sample


def _mass_transfer(mu: Mu, which: str, src: int, dst: int, amount: float) -> Mu:
    masses = list(mu.mass_high if which == "high" else mu.mass_low)
    amount = min(amount, masses[src])
    masses[src] -= amount
    masses[dst] += amount
    high = tuple(masses) if which == "high" else mu.mass_high
    low = mu.mass_low if which == "high" else tuple(masses)
    return Mu(grid=mu.grid, mass_high=high, mass_low=low)


def estimate_C_eps(
    eps: float,
    model: SignalModel,
    sampler: Callable,
    n: int,
    *,
    rng: Optional[np.random.Generator] = None,
    descent_steps: int = 120,
) -> CUpperEstimate:
    """Search sampled child distributions for the worst improvement ratio.

    Accepts only distributions whose error weight reaches eps and whose own
    utility is positive, then minimizes psi/u over the accepted draws and
    runs a local mass-transfer descent from the incumbent.  The result is
    an upper estimate of the true guaranteed factor: the sampler is not
    adversarial, so the real infimum could be lower (it provably stays
    above 1).
    """
    if not 0 < eps < 1:
        raise ValueError("error level eps must lie in (0, 1)")
    if n < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(0) if rng is None else rng

    def ratio_of(mu: Mu):
        util = u_of_mu(mu)
        if eta_of_mu(mu) < eps or util <= 0:
            return None, None
        result = psi(mu, model)
        return float(result.value) / float(util), result.argmax

    best_ratio = None
    best_mu = None
    best_arg = None
    n_accepted = 0
    n_rejected = 0
    n_below_one = 0
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
        eps=float(eps),
        value=best_ratio,
        minimizer=best_mu,
        argmax=best_arg,
        n_samples=n,
        n_accepted=n_accepted,
        n_rejected=n_rejected,
        n_below_one=n_below_one,
        descent_improvement=before_descent - best_ratio,
    )
