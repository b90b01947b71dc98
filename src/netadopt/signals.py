"""Finite conditional signal structures and belief arithmetic.

A signal model is a finite list of atoms, each carrying the likelihood of
that atom under the high and low states.  The belief attached to an atom is
the posterior probability of the high state after observing it under a
uniform prior.  All likelihoods are kept as exact rationals; float views are
cached for sampling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .common import STATE_HIGH, STATE_LOW, as_fraction, as_int, spec_value

_SUM_TOL = Fraction(1, 10**12)


@dataclass(frozen=True)
class SignalModel:
    """Finite signal structure given by per-atom state likelihoods.

    atoms[i] = (likelihood under H, likelihood under L).  Likelihoods under
    each state must sum to one, every atom must have positive likelihood
    under both states (beliefs stay strictly inside (0, 1)), and at least
    one atom must be informative.
    """

    atoms: tuple[tuple[Fraction, Fraction], ...]
    _floats: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.atoms:
            raise ValueError("signal model needs at least one atom")
        norm = []
        for pair in self.atoms:
            if len(pair) != 2:
                raise ValueError("each atom is a (likelihood_H, likelihood_L) pair")
            lh, ll = (as_fraction(v) for v in pair)
            if lh <= 0 or ll <= 0:
                raise ValueError(
                    "atom likelihoods must be positive under both states; "
                    "degenerate beliefs 0 and 1 are not allowed"
                )
            norm.append((lh, ll))
        object.__setattr__(self, "atoms", tuple(norm))
        object.__setattr__(self, "_floats", {})
        for idx, total in enumerate((self.sum_high, self.sum_low)):
            if abs(total - 1) > _SUM_TOL:
                state = ("H", "L")[idx]
                raise ValueError(f"likelihoods under {state} sum to {total}, not 1")
        if all(lh == ll for lh, ll in self.atoms):
            raise ValueError("signal model is uninformative: every belief is 1/2")

    @property
    def sum_high(self) -> Fraction:
        return sum((lh for lh, _ in self.atoms), Fraction(0))

    @property
    def sum_low(self) -> Fraction:
        return sum((ll for _, ll in self.atoms), Fraction(0))

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    @property
    def beliefs(self) -> tuple[Fraction, ...]:
        """Posterior P(H | atom) under a uniform prior, one per atom."""
        return tuple(lh / (lh + ll) for lh, ll in self.atoms)

    def likelihoods(self, state: str) -> tuple[Fraction, ...]:
        if state == STATE_HIGH:
            return tuple(lh for lh, _ in self.atoms)
        if state == STATE_LOW:
            return tuple(ll for _, ll in self.atoms)
        raise ValueError(f"unknown state {state!r}")

    def _float_probs(self, state: str) -> np.ndarray:
        key = ("p", state)
        if key not in self._floats:
            probs = np.array([float(v) for v in self.likelihoods(state)])
            self._floats[key] = probs / probs.sum()
        return self._floats[key]

    def _cdf(self, state: str) -> np.ndarray:
        if ("cdf", state) not in self._floats:
            cdf = self._float_probs(state).cumsum()
            self._floats["cdf", state] = cdf / cdf[-1]
        return self._floats["cdf", state]

    def float_beliefs(self) -> np.ndarray:
        if "beliefs" not in self._floats:
            self._floats["beliefs"] = np.array([float(b) for b in self.beliefs])
        return self._floats["beliefs"]

    def atom_for_belief(self, belief) -> int:
        """Index of the atom whose belief matches, within 1e-12."""
        target = float(belief)
        for i, b in enumerate(self.float_beliefs()):
            if abs(b - target) <= 1e-12:
                return i
        raise ValueError(f"belief {belief!r} does not match any atom of the model")

    def indicator_probs(self, threshold=Fraction(1, 2)) -> tuple[Fraction, Fraction]:
        """P(belief >= threshold | H) and the same under L (weak inequality)."""
        thr = as_fraction(threshold)
        ph = sum((lh for (lh, ll) in self.atoms if lh / (lh + ll) >= thr), Fraction(0))
        pl = sum((ll for (lh, ll) in self.atoms if lh / (lh + ll) >= thr), Fraction(0))
        return ph, pl


def binary_model(q) -> SignalModel:
    """Two-atom symmetric model: the signal matches the state with chance q."""
    qf = as_fraction(q)
    if not Fraction(1, 2) < qf < 1:
        raise ValueError(f"binary accuracy q must lie in (1/2, 1), got {q}")
    return SignalModel(atoms=((qf, 1 - qf), (1 - qf, qf)))


def grid_model(n_atoms: int = 101, lo=Fraction(1, 5), hi=Fraction(4, 5)) -> SignalModel:
    """Evenly spaced belief grid with uniform average likelihood.

    Approximates a nonatomic belief distribution on [lo, hi]; the atom
    likelihoods are chosen so that beliefs are consistent, i.e. each atom
    with belief b has likelihood ratio b/(1-b).
    """
    if n_atoms < 2:
        raise ValueError("grid model needs at least two atoms")
    lo, hi = as_fraction(lo), as_fraction(hi)
    if not (0 < lo < hi < 1):
        raise ValueError("belief bounds must satisfy 0 < lo < hi < 1")
    beliefs = [lo + (hi - lo) * i / (n_atoms - 1) for i in range(n_atoms)]
    # Unnormalized marginal mass m per atom gives likelihoods (2 m b, 2 m (1-b)).
    weight = Fraction(1, n_atoms)
    atoms = [(2 * weight * b, 2 * weight * (1 - b)) for b in beliefs]
    # Consistency requires the average belief to be 1/2; rescale the two
    # halves of the grid so both state-sums are exactly one.
    sum_h = sum(a[0] for a in atoms)
    sum_l = sum(a[1] for a in atoms)
    atoms = [(lh / sum_h, ll / sum_l) for lh, ll in atoms]
    return SignalModel(atoms=tuple(atoms))


def sample_atoms(model: SignalModel, state: str, size: int, rng: np.random.Generator) -> np.ndarray:
    """Draw atom indices i.i.d. conditional on the state.  This is
    Generator.choice's algorithm for a given p (a uniform per draw looked up
    in the CDF) over the model's cached CDF, so indices and stream match."""
    return model._cdf(state).searchsorted(rng.random(size), side="right")


def signal_model_from_spec(spec) -> SignalModel:
    """Build a model from a config fragment.

    Accepts {"binary": q} or {"atoms": [[lh, ll], ...]} or
    {"grid": {"n": ..., "lo": ..., "hi": ...}}.
    """
    if not isinstance(spec, dict) or len(spec) != 1:
        raise ValueError(f"signal spec must be a one-key mapping, got {spec!r}")
    kind, body = next(iter(spec.items()))
    if kind == "binary":
        return binary_model(spec_value(spec, "binary", "signal", as_fraction))
    if kind == "atoms":
        if not isinstance(body, (list, tuple)) or not all(
                isinstance(pair, (list, tuple)) and len(pair) == 2 for pair in body):
            raise ValueError("signal atoms must be a list of [likelihood_H, "
                             f"likelihood_L] pairs, got {body!r}")
        return SignalModel(atoms=tuple((as_fraction(a), as_fraction(b)) for a, b in body))
    if kind == "grid":
        where = "signal.grid"
        return grid_model(spec_value(body, "n", where, as_int, 101),
                          spec_value(body, "lo", where, as_fraction, Fraction(1, 5)),
                          spec_value(body, "hi", where, as_fraction, Fraction(4, 5)))
    raise ValueError(f"unknown signal spec kind {kind!r}")
