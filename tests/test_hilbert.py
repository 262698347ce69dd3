"""State-vector operations, checked against brute-force matrix oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mubqkd.gf import FieldSpec
from mubqkd.hilbert import (apply_diag_phase, as_state, basis_state, born_sample, inner,
                            project_first, swap_test, tensor)
from mubqkd.mub import basis_matrix, mub_state
from mubqkd.entangle import entangled_mub, exponent_additivity_check, joint_c_measure, measure_first
from mubqkd.phasespace import dwigner2_support, run_cv_round

GF3 = FieldSpec(3, 1)
OMEGA = np.exp(2j * np.pi / 3)


def _random_state(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _swap_matrix(d):
    s = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            s[i * d + j, j * d + i] = 1.0
    return s


def _antisymmetric_prob(u, v):
    """Brute-force projector onto the antisymmetric subspace of u (x) v."""
    d = len(u)
    proj = (np.eye(d * d) - _swap_matrix(d)) / 2.0
    w = proj @ np.kron(u, v)
    return float(np.vdot(w, w).real)


def test_inner_identity_and_orthogonality():
    e0, e1 = basis_state(3, 0), basis_state(3, 1)
    assert inner(e0, e0) == pytest.approx(1.0)
    assert inner(e0, e1) == pytest.approx(0.0)


def test_inner_mub_cross_magnitude():
    val = inner(mub_state(GF3, 0, 0), mub_state(GF3, 1, 0))
    assert abs(val) == pytest.approx(0.5773502691896258, abs=1e-9)
    assert val == pytest.approx((1 + 2 * OMEGA) / 3, abs=1e-12)


def test_inner_dim_mismatch():
    with pytest.raises(ValueError):
        inner(basis_state(2, 0), basis_state(3, 0))


def test_tensor_basis_states():
    assert np.allclose(tensor(basis_state(2, 0), basis_state(2, 0)), basis_state(4, 0))
    assert np.allclose(tensor(basis_state(2, 1), basis_state(2, 0)), basis_state(4, 2))


@given(st.integers(0, 10**6))
def test_tensor_norm_multiplies(seed):
    rng = np.random.default_rng(seed)
    u = rng.normal(size=3) + 1j * rng.normal(size=3)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    assert np.linalg.norm(tensor(u, v)) == pytest.approx(
        np.linalg.norm(u) * np.linalg.norm(v), abs=1e-12)


def test_tensor_of_mub_states_normalized():
    t = tensor(mub_state(GF3, 1, 2), mub_state(GF3, 2, 0))
    assert np.vdot(t, t).real == pytest.approx(1.0, abs=1e-12)


@given(st.integers(0, 10**6))
def test_inner_conjugate_symmetry(seed):
    rng = np.random.default_rng(seed)
    u, v = _random_state(rng, 5), _random_state(rng, 5)
    assert inner(u, v) == pytest.approx(np.conj(inner(v, u)), abs=1e-12)


def test_born_sample_eigenstate():
    rng = np.random.default_rng(1)
    basis = basis_matrix(GF3, 2)
    for _ in range(50):
        k, collapsed = born_sample(basis[2], basis, rng)
        assert k == 2
        assert np.allclose(collapsed, basis[2])


def test_born_sample_uniform_over_computational():
    rng = np.random.default_rng(2)
    state = mub_state(GF3, 1, 0)
    basis = [basis_state(3, k) for k in range(3)]
    counts = np.zeros(3)
    n = 10_000
    for _ in range(n):
        k, _ = born_sample(state, basis, rng)
        counts[k] += 1
    sigma = np.sqrt((1 / 3) * (2 / 3) / n)
    assert np.all(np.abs(counts / n - 1 / 3) < 3 * sigma)


def test_born_probabilities_sum_to_one():
    rng = np.random.default_rng(3)
    for b in range(3):
        basis = basis_matrix(GF3, b)
        state = _random_state(rng, 3)
        total = sum(abs(inner(v, state)) ** 2 for v in basis)
        assert total == pytest.approx(1.0, abs=1e-10)


def test_born_sample_rejects_bad_basis():
    rng = np.random.default_rng(0)
    skewed = [basis_state(3, 0), basis_state(3, 0), basis_state(3, 2)]
    with pytest.raises(ValueError):
        born_sample(basis_state(3, 1), skewed, rng)


def test_project_first_product_state():
    e0, e1 = basis_state(3, 0), basis_state(3, 1)
    pair = tensor(e0, e0)
    assert np.allclose(project_first(pair, e0), e0)
    assert np.allclose(project_first(pair, e1), np.zeros(3))


def test_project_first_entangled_example():
    pair = entangled_mub(GF3, 2, 1)
    bra = mub_state(GF3, 1, 2)
    w = project_first(pair, bra)
    # remote label: b2 = 2 - 1 = 1, c2 = 1 - 2 = 2 mod 3
    expect = mub_state(GF3, 1, (1 - 2) % 3) / np.sqrt(3)
    assert np.max(np.abs(w - expect)) < 1e-12
    assert np.vdot(w, w).real == pytest.approx(1 / 3, abs=1e-12)


@given(st.integers(0, 10**6), st.sampled_from([2, 3, 5, 9]))
@settings(max_examples=40)
def test_project_first_matches_matrix_projector(seed, d):
    rng = np.random.default_rng(seed)
    pair = _random_state(rng, d * d)
    bra = _random_state(rng, d)
    w = project_first(pair, bra)
    full = np.kron(np.outer(bra, bra.conj()), np.eye(d)) @ pair
    assert np.vdot(full, full).real == pytest.approx(np.vdot(w, w).real, abs=1e-10)
    assert np.max(np.abs(full - np.kron(bra, w))) < 1e-10


def test_project_first_dim_mismatch():
    with pytest.raises(ValueError):
        project_first(basis_state(6, 0), basis_state(3, 0))


def test_apply_diag_phase_identity_and_norm():
    rng = np.random.default_rng(4)
    state = _random_state(rng, 5)
    assert np.allclose(apply_diag_phase(state, np.ones(5)), state)
    phases = np.exp(1j * rng.normal(size=5))
    out = apply_diag_phase(state, phases)
    assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)


def test_apply_diag_phase_shifts_mub_label():
    # phases omega^n advance c by one within the b = 1 basis at d = 3
    phases = np.array([OMEGA ** n for n in range(3)])
    out = apply_diag_phase(mub_state(GF3, 1, 0), phases)
    assert np.max(np.abs(out - mub_state(GF3, 1, 1))) < 1e-12


def test_apply_diag_phase_rejects_non_unimodular():
    with pytest.raises(ValueError):
        apply_diag_phase(basis_state(2, 0), np.array([1.0, 0.5]))


def test_swap_test_identical_states():
    rng = np.random.default_rng(5)
    u = mub_state(GF3, 1, 1)
    assert all(swap_test(u, u, rng) == "symmetric" for _ in range(100))


def test_swap_test_orthogonal_states():
    rng = np.random.default_rng(6)
    u, v = basis_state(3, 0), basis_state(3, 1)
    assert _antisymmetric_prob(u, v) == pytest.approx(0.5, abs=1e-12)
    n = 10_000
    anti = sum(swap_test(u, v, rng) == "antisymmetric" for _ in range(n))
    assert abs(anti / n - 0.5) < 0.015


def test_swap_test_mub_cross_pair():
    rng = np.random.default_rng(7)
    u, v = mub_state(GF3, 0, 0), mub_state(GF3, 1, 0)
    p_anti = _antisymmetric_prob(u, v)
    assert p_anti == pytest.approx((1 - 1 / 3) / 2, abs=1e-12)
    n = 10_000
    anti = sum(swap_test(u, v, rng) == "antisymmetric" for _ in range(n))
    sigma = np.sqrt(p_anti * (1 - p_anti) / n)
    assert abs(anti / n - p_anti) < 3 * sigma


def test_swap_test_rejects_unnormalized():
    rng = np.random.default_rng(8)
    with pytest.raises(ValueError):
        swap_test(2.0 * basis_state(2, 0), basis_state(2, 1), rng)


@pytest.mark.parametrize("call, message", [
    (lambda rng: as_state(np.eye(3)), "state must be a 1-d amplitude vector"),
    (lambda rng: born_sample(basis_state(3, 0), np.eye(2), rng), "basis must be d=3"),
    (lambda rng: apply_diag_phase(basis_state(3, 0), np.ones(2)), "phase vector must match"),
    (lambda rng: swap_test(basis_state(3, 0), basis_state(2, 0), rng),
     "swap test needs equal dimensions"),
    (lambda rng: joint_c_measure(GF3, basis_state(3, 0), 0, rng), r"state has shape \(3,\)"),
    (lambda rng: dwigner2_support(basis_state(5, 0)), "must have a square dimension"),
    (lambda rng: GF3.from_index(2) ** -1, "negative exponents"),
    (lambda rng: born_sample(np.zeros(3), np.eye(3), rng), "Born weights sum to 0"),
    (lambda rng: born_sample(np.full(3, np.nan), np.eye(3), rng), "Born weights sum to nan"),
    (lambda rng: measure_first(GF3, np.zeros(9), 0, rng), "Born weights sum to 0"),
    (lambda rng: measure_first(GF3, np.full(9, np.nan), 0, rng), "Born weights sum to nan"),
    (lambda rng: joint_c_measure(GF3, np.zeros(9), 0, rng), "Born weights sum to 0"),
    (lambda rng: joint_c_measure(GF3, np.full(9, np.nan), 0, rng), "Born weights sum to nan"),
    (lambda rng: exponent_additivity_check(FieldSpec(3, 2), 9, 0, 0, 0), "pair basis index 9"),
    (lambda rng: exponent_additivity_check(FieldSpec(3, 2), 0, 0, 9, 0), "pair basis index 9"),
    (lambda rng: basis_state(3, -1), r"state index -1 outside \[0, 3\)"),
    (lambda rng: basis_state(3, 3), r"state index 3 outside \[0, 3\)"),
    (lambda rng: run_cv_round(7, rng), "bit must be 0 or 1"),
    (lambda rng: measure_first(GF3, [1, 0, 0], 0, rng), r"state has shape \(3,\)"),
    (lambda rng: measure_first(GF3, np.ones(3), 0, rng), r"state has shape \(3,\)"),
    (lambda rng: entangled_mub(GF3, 5, 0), r"pair basis index 5 outside \[0, 3\)"),
], ids=["as_state-ndim", "born_sample-basis-shape", "apply_diag_phase-shape",
        "swap_test-dims", "joint_c_measure-shape", "dwigner2_support-non-square",
        "GfElem-pow-negative", "born_sample-zero-state", "born_sample-nan-state",
        "measure_first-zero-state", "measure_first-nan-state", "joint_c_measure-zero-state",
        "joint_c_measure-nan-state", "exponent_additivity-computational-b1",
        "exponent_additivity-computational-b2", "basis_state-negative", "basis_state-dim",
        "run_cv_round-bit", "measure_first-list", "measure_first-shape",
        "entangled_mub-basis-above-d"])
def test_malformed_input_is_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call(np.random.default_rng(0))
