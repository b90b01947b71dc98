from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from netadopt.common import STATE_HIGH, STATE_LOW
from netadopt.signals import (
    SignalModel,
    binary_model,
    grid_model,
    sample_atoms,
    signal_model_from_spec,
)


def test_binary_model_atom_order():
    m = binary_model(Fraction(3, 4))
    # atom 0 carries the high-state belief q, atom 1 the low-state belief 1-q
    assert m.beliefs == (Fraction(3, 4), Fraction(1, 4))
    assert m.likelihoods(STATE_HIGH) == (Fraction(3, 4), Fraction(1, 4))
    assert m.likelihoods(STATE_LOW) == (Fraction(1, 4), Fraction(3, 4))


def test_binary_model_rejects_out_of_range():
    with pytest.raises(ValueError):
        binary_model(Fraction(1, 2))
    with pytest.raises(ValueError):
        binary_model(1)


def test_likelihoods_sum_to_one_per_state():
    m = grid_model(n_atoms=7)
    assert m.sum_high == 1
    assert m.sum_low == 1


def test_grid_model_belief_consistency():
    # belief of atom i must equal P(atom|H) / (P(atom|H) + P(atom|L))
    m = grid_model(n_atoms=5, lo=Fraction(1, 10), hi=Fraction(9, 10))
    for b, (lh, ll) in zip(m.beliefs, m.atoms):
        assert b == lh / (lh + ll)
    assert min(m.beliefs) == Fraction(1, 10)
    assert max(m.beliefs) == Fraction(9, 10)


def test_model_rejects_degenerate_atoms():
    with pytest.raises(ValueError, match="positive under both states"):
        SignalModel(atoms=((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))))
    with pytest.raises(ValueError, match="sum to"):
        SignalModel(atoms=((Fraction(1, 2), Fraction(1, 3)),))
    with pytest.raises(ValueError, match="uninformative"):
        SignalModel(atoms=((Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 2))))


def test_indicator_probs():
    m = binary_model(Fraction(7, 10))
    assert m.indicator_probs() == (Fraction(7, 10), Fraction(3, 10))
    # weak inequality: a belief exactly at the threshold counts as adopting
    assert m.indicator_probs(Fraction(7, 10)) == (Fraction(7, 10), Fraction(3, 10))
    assert m.indicator_probs(Fraction(71, 100)) == (0, 0)


def test_atom_for_belief():
    m = binary_model(Fraction(3, 4))
    assert m.atom_for_belief(Fraction(3, 4)) == 0
    assert m.atom_for_belief(0.25) == 1
    with pytest.raises(ValueError, match="does not match any atom"):
        m.atom_for_belief(0.6)


def test_sample_atoms_deterministic():
    m = binary_model(Fraction(3, 5))
    a1 = sample_atoms(m, STATE_HIGH, 50, np.random.default_rng(11))
    a2 = sample_atoms(m, STATE_HIGH, 50, np.random.default_rng(11))
    assert np.array_equal(a1, a2)
    assert set(a1.tolist()) <= {0, 1}


@pytest.mark.parametrize("model", [
    binary_model(Fraction(3, 5)),
    SignalModel(atoms=((Fraction(1, 2), Fraction(1, 6)),
                       (Fraction(1, 3), Fraction(1, 3)),
                       (Fraction(1, 6), Fraction(1, 2)))),
    grid_model(101),
], ids=["2 atoms", "3 atoms", "101 atoms"])
@pytest.mark.parametrize("size", [0, 1, 101])
@pytest.mark.parametrize("state", [STATE_HIGH, STATE_LOW])
def test_sample_atoms_equals_generator_choice(model, size, state):
    for seed in range(200):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        atoms = sample_atoms(model, state, size, rng)
        expected = ref.choice(model.n_atoms, size, p=model._float_probs(state))
        assert atoms.dtype == expected.dtype
        assert atoms.tolist() == expected.tolist()
        assert rng.random() == ref.random()  # the same stream position


@pytest.mark.parametrize("state", [STATE_HIGH, STATE_LOW])
def test_replaced_atoms_give_new_float_views(state):
    old = binary_model(Fraction(3, 4))
    old.float_beliefs(), old._cdf(state)  # fill the old model's views
    sample_atoms(old, state, 10, np.random.default_rng(0))
    q = Fraction(99, 100)
    new = replace(old, atoms=((q, 1 - q), (1 - q, q)))
    assert new.float_beliefs().tolist() == [0.99, 0.01]
    probs = np.array([float(lik) for lik in new.likelihoods(state)])
    cdf = (probs / probs.sum()).cumsum()
    assert new._cdf(state).tolist() == (cdf / cdf[-1]).tolist()
    rng, ref = np.random.default_rng(7), np.random.default_rng(7)
    atoms = sample_atoms(new, state, 1000, rng)
    assert atoms.tolist() == ref.choice(2, 1000, p=probs / probs.sum()).tolist()
    assert old.float_beliefs().tolist() == [0.75, 0.25]


def test_sample_atoms_matches_likelihood():
    m = binary_model(Fraction(9, 10))
    atoms = sample_atoms(m, STATE_LOW, 20000, np.random.default_rng(5))
    freq_high_atom = float(np.mean(atoms == 0))
    # under L the high atom appears with probability 1-q = 0.1
    assert abs(freq_high_atom - 0.1) < 0.01


def test_signal_model_from_spec():
    m = signal_model_from_spec({"binary": "3/4"})
    assert m.beliefs[0] == Fraction(3, 4)
    a = signal_model_from_spec({"atoms": [["3/4", "1/4"], ["1/4", "3/4"]]})
    assert a.beliefs == (Fraction(3, 4), Fraction(1, 4))
    g = signal_model_from_spec({"grid": {"n": 11, "lo": "1/5", "hi": "4/5"}})
    assert g.n_atoms == 11
    with pytest.raises(ValueError, match="unknown signal spec"):
        signal_model_from_spec({"gaussian": {}})
    with pytest.raises(ValueError, match="one-key mapping"):
        signal_model_from_spec({"binary": 0.6, "grid": {}})
