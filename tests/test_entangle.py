"""Entangled pairs: construction, projection collapse, shifts, joint measurement."""

import itertools

import numpy as np
import pytest

from mubqkd import entangle
from mubqkd.gf import FieldSpec
from mubqkd.hilbert import basis_state, inner, project_first, tensor
from mubqkd.mub import basis_matrix, mub_state
from mubqkd.entangle import (entangled_mub, exponent_additivity_check,
                             joint_c_measure, measure_first, shift_remote)

GF3 = FieldSpec(3, 1)
GF5 = FieldSpec(5, 1)
GF9 = FieldSpec(3, 2)
OMEGA = np.exp(2j * np.pi / 3)


def test_epr_analog():
    pair = entangled_mub(GF3, 0, 0)
    expect = np.zeros(9, complex)
    expect[[0, 4, 8]] = 1 / np.sqrt(3)
    assert np.max(np.abs(pair - expect)) < 1e-12


def test_pair_rejects_the_computational_basis():
    with pytest.raises(ValueError):
        entangled_mub(GF3, 3, 0)


def test_d3_pair_phases():
    state = entangled_mub(GF3, 1, 0)
    diag = state[[0, 4, 8]]
    assert np.allclose(diag * np.sqrt(3), [1, OMEGA, OMEGA], atol=1e-12)
    off = np.delete(state, [0, 4, 8])
    assert np.max(np.abs(off)) == 0.0


def test_pair_norm_and_marginals():
    for b, c in itertools.product(range(3), repeat=2):
        state = entangled_mub(GF3, b, c)
        assert np.vdot(state, state).real == pytest.approx(1.0, abs=1e-12)
        marg = np.abs(state.reshape(3, 3)) ** 2
        assert np.allclose(marg.sum(axis=1), 1 / 3, atol=1e-12)
        assert np.allclose(marg.sum(axis=0), 1 / 3, atol=1e-12)


def test_measure_first_collapse_rule():
    rng = np.random.default_rng(0)
    for b, c, b1 in itertools.product(range(3), repeat=3):
        pair = entangled_mub(GF3, b, c)
        c1, remote = measure_first(GF3, pair, b1, rng)
        expect = mub_state(GF3, (b - b1) % 3, (c - c1) % 3)
        assert np.max(np.abs(remote - expect)) < 1e-12


def test_measure_first_same_basis_lands_in_b2_zero():
    rng = np.random.default_rng(1)
    pair = entangled_mub(GF3, 2, 1)
    c1, remote = measure_first(GF3, pair, 2, rng)
    expect = mub_state(GF3, 0, (1 - c1) % 3)
    assert np.max(np.abs(remote - expect)) < 1e-12


def test_measure_first_outcomes_uniform():
    rng = np.random.default_rng(2)
    pair = entangled_mub(GF3, 2, 1)
    n = 10_000
    counts = np.zeros(3)
    for _ in range(n):
        c1, _ = measure_first(GF3, pair, 1, rng)
        counts[c1] += 1
    sigma = np.sqrt((1 / 3) * (2 / 3) / n)
    assert np.all(np.abs(counts / n - 1 / 3) < 3 * sigma)


def test_measure_first_computational_basis():
    rng = np.random.default_rng(3)
    pair = entangled_mub(GF3, 1, 2)
    c1, remote = measure_first(GF3, pair, 3, rng)
    assert np.allclose(remote, basis_state(3, c1), atol=1e-12)


class _FixedDraw:
    """An rng whose every random() is u."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


@pytest.mark.parametrize("spec", [GF3, GF5, GF9])
def test_measure_first_matches_project_first_on_random_states(spec):
    # each outcome k is drawn from a cumulative interval of width
    # ||project_first(state, row k)||^2; a draw inside it must give k and
    # that projection, normalized, as the remote state
    rng = np.random.default_rng(20 + spec.d)
    d = spec.d
    for _ in range(5):
        state = rng.normal(size=d * d) + 1j * rng.normal(size=d * d)
        state /= np.linalg.norm(state)
        for b1 in range(d + 1):
            branches = [project_first(state, row) for row in basis_matrix(spec, b1)]
            probs = [float(np.vdot(w, w).real) for w in branches]
            assert sum(probs) == pytest.approx(1.0, abs=1e-12)
            lo = 0.0
            for k, (w, prob) in enumerate(zip(branches, probs)):
                for u in (lo + 1e-9, lo + prob / 2, lo + prob - 1e-9):
                    c1, remote = measure_first(spec, state, b1, _FixedDraw(u))
                    assert c1 == k
                    assert np.max(np.abs(remote - w / np.linalg.norm(w))) < 1e-12
                lo += prob


def test_shift_identity_and_frozen_example():
    lam0 = GF3.zero()
    state = mub_state(GF3, 1, 0)
    assert np.allclose(shift_remote(state, lam0), state)
    shifted = shift_remote(state, GF3.one())
    assert np.max(np.abs(shifted - mub_state(GF3, 1, 1))) < 1e-12


def test_shift_transitive_over_all_labels():
    for b, c, lam in itertools.product(range(3), repeat=3):
        shifted = shift_remote(mub_state(GF3, b, c), GF3.from_index(lam))
        assert np.max(np.abs(shifted - mub_state(GF3, b, (c + lam) % 3))) < 1e-12


def test_shifts_compose_additively():
    rng = np.random.default_rng(4)
    for _ in range(20):
        state = rng.normal(size=9) + 1j * rng.normal(size=9)
        state /= np.linalg.norm(state)
        lam = GF9.from_index(int(rng.integers(9)))
        mu = GF9.from_index(int(rng.integers(9)))
        two_step = shift_remote(shift_remote(state, lam), mu)
        one_step = shift_remote(state, lam + mu)
        assert np.max(np.abs(two_step - one_step)) < 1e-12


@pytest.mark.parametrize("spec", [GF3, GF9, FieldSpec(3, 2, (2, 1, 1)), FieldSpec(5, 2),
                                  FieldSpec(3, 3)])
def test_shift_phases_are_trace_characters(spec):
    elems = spec.elements()
    for lam in elems:
        expo = np.array([(lam * n).trace() for n in elems])
        assert np.array_equal(shift_remote(np.ones(spec.d, dtype=complex), lam),
                              np.exp(2j * np.pi * expo / spec.p))


def test_shift_is_unitary():
    state = mub_state(GF9, 4, 7)
    shifted = shift_remote(state, GF9.from_index(5))
    assert np.vdot(shifted, shifted).real == pytest.approx(1.0, abs=1e-12)


def test_joint_c_measure_eigenstate_nondestructive():
    rng = np.random.default_rng(5)
    pair = entangled_mub(GF3, 2, 1)
    out1, post1 = joint_c_measure(GF3, pair, 2, rng)
    assert out1 == 1
    assert np.max(np.abs(post1 - pair)) < 1e-12
    out2, post2 = joint_c_measure(GF3, post1, 2, rng)
    assert out2 == out1
    assert np.max(np.abs(post2 - post1)) < 1e-12


def test_joint_c_measure_refuses_the_computational_basis():
    rng = np.random.default_rng(5)
    with pytest.raises(ValueError) as pair_exc:
        entangled_mub(GF3, 3, 0)
    with pytest.raises(ValueError) as measure_exc:
        joint_c_measure(GF3, entangled_mub(GF3, 0, 0), 3, rng)
    assert str(measure_exc.value) == str(pair_exc.value)


def test_joint_c_measure_cross_basis_uniform():
    rng = np.random.default_rng(6)
    pair = entangled_mub(GF3, 1, 0)
    other = 2
    # analytic route: all d cross-basis overlaps have squared magnitude 1/d
    for cp in range(3):
        target = entangled_mub(GF3, 2, cp)
        assert abs(inner(target, pair)) ** 2 == pytest.approx(1 / 3, abs=1e-12)
    n = 2000
    counts = np.zeros(3)
    for _ in range(n):
        out, _ = joint_c_measure(GF3, pair, other, rng)
        assert out is not None
        counts[out] += 1
    sigma = np.sqrt((1 / 3) * (2 / 3) / n)
    assert np.all(np.abs(counts / n - 1 / 3) < 3 * sigma)


def test_joint_c_measure_product_state_hits_complement():
    rng = np.random.default_rng(7)
    product = tensor(basis_state(3, 0), basis_state(3, 1))
    for _ in range(20):
        out, post = joint_c_measure(GF3, product, 1, rng)
        assert out is None
        assert np.max(np.abs(post - product)) < 1e-12


def test_exponent_additivity_trivial_and_exhaustive():
    assert exponent_additivity_check(GF3, 2, 1, 0, 0)
    for spec in (GF3, GF5):
        for i1, j1, i2, j2 in itertools.product(range(spec.d), repeat=4):
            assert exponent_additivity_check(spec, i1, j1, i2, j2)


def test_exponent_additivity_random_d9():
    rng = np.random.default_rng(8)
    for _ in range(100):
        i1, j1, i2, j2 = (int(k) for k in rng.integers(0, 9, 4))
        assert exponent_additivity_check(GF9, i1, j1, i2, j2)


def test_exponent_additivity_compares_integers_without_phases(monkeypatch):
    def unreachable(*args):
        raise AssertionError("the additivity check read a phase")

    monkeypatch.setattr(entangle, "phases", unreachable)
    for labels in itertools.product(range(GF9.d), repeat=4):
        assert exponent_additivity_check(GF9, *labels) is True
