"""MUB construction: frozen small-d amplitudes and the defining overlap laws."""

import numpy as np
import pytest

from mubqkd.entangle import entangled_mub, exponent_additivity_check, joint_c_measure
from mubqkd.gf import FieldSpec
from mubqkd.mub import basis_matrix, exponents, mub_state, unbiasedness_report

GF3 = FieldSpec(3, 1)
GF5 = FieldSpec(5, 1)
GF9 = FieldSpec(3, 2)
OMEGA = np.exp(2j * np.pi / 3)


def test_d3_states_match_hand_computation():
    r3 = np.sqrt(3)
    assert np.allclose(mub_state(GF3, 0, 0), np.ones(3) / r3, atol=1e-12)
    assert np.allclose(mub_state(GF3, 1, 0), np.array([1, OMEGA, OMEGA]) / r3, atol=1e-12)
    assert np.allclose(mub_state(GF3, 0, 1), np.array([1, OMEGA, OMEGA ** 2]) / r3, atol=1e-12)


def test_computational_states_are_identity_columns():
    for k in range(3):
        state = mub_state(GF3, 3, k)
        expect = np.zeros(3)
        expect[k] = 1.0
        assert np.allclose(state, expect)


def test_gram_identity_per_basis():
    for spec in (GF3, GF9):
        for basis in range(spec.d + 1):
            mat = basis_matrix(spec, basis)
            gram = mat.conj() @ mat.T
            assert np.max(np.abs(gram - np.eye(spec.d))) < 1e-12


def test_resolution_of_identity_d5():
    mat = basis_matrix(GF5, 2)
    resolved = sum(np.outer(row, row.conj()) for row in mat)
    assert np.max(np.abs(resolved - np.eye(5))) < 1e-12


def test_basis_count_and_distinctness():
    for spec in (GF3, GF5, GF9):
        mats = [basis_matrix(spec, b) for b in range(spec.d + 1)]
        assert len({m.tobytes() for m in mats}) == spec.d + 1


def test_unbiasedness_report_d3():
    rep = unbiasedness_report(GF3)
    assert rep.d == 3 and rep.basis_count == 4
    assert rep.max_cross_deviation < 1e-9
    assert rep.max_orthonormality_deviation < 1e-12
    assert rep.max_completeness_deviation < 1e-12
    assert rep.ok()


def test_unbiasedness_report_d9():
    rep = unbiasedness_report(GF9)
    assert rep.basis_count == 10
    assert rep.max_cross_deviation < 1e-9
    assert rep.ok()


def test_computational_versus_quadratic_overlap():
    target = 1 / np.sqrt(3)
    comp = basis_matrix(GF3, 3)
    for b in range(3):
        quad = basis_matrix(GF3, b)
        overlaps = np.abs(comp.conj() @ quad.T)
        assert np.max(np.abs(overlaps - target)) < 1e-12


def test_basis_matrix_rows_match_states():
    states = basis_matrix(GF5, 3)
    assert len(states) == 5
    for c, state in enumerate(states):
        assert np.allclose(state, mub_state(GF5, 3, c))


@pytest.mark.parametrize("spec", [GF3, GF5, GF9, FieldSpec(5, 2), FieldSpec(3, 3)])
def test_mub_state_is_exactly_the_basis_matrix_row(spec):
    for basis in range(spec.d + 1):
        mat = basis_matrix(spec, basis)
        for c in range(spec.d):
            assert np.array_equal(mub_state(spec, basis, c), mat[c])


def test_mub_state_leaves_the_basis_cache_alone():
    before = basis_matrix.cache_info()
    for basis in range(GF9.d + 1):
        mub_state(GF9, basis, 4)
    assert basis_matrix.cache_info() == before


@pytest.mark.parametrize("basis, c", [(4, 0), (-1, 0), (0, 3), (3, 3), (0, -1)])
def test_out_of_range_labels_rejected(basis, c):
    with pytest.raises(ValueError):
        mub_state(GF3, basis, c)
    if 0 <= c < 3:
        with pytest.raises(ValueError):
            basis_matrix(GF3, basis)


def test_basis_matrix_is_read_only():
    mat = basis_matrix(GF3, 1)
    with pytest.raises(ValueError):
        mat[0, 0] = 0.0


@pytest.mark.parametrize("spec", [GF3, GF9, FieldSpec(3, 2, (2, 1, 1)), FieldSpec(5, 2),
                                  FieldSpec(3, 3), FieldSpec(3, 3, (2, 2, 0, 1))])
def test_basis_matrix_equals_trace_of_element_arithmetic(spec):
    elems = spec.elements()
    tr = {e: e.trace() for e in elems}
    for b in elems:
        expo = np.array([[tr[b * n * n + c * n] for n in elems] for c in elems])
        expected = np.exp(2j * np.pi * expo / spec.p) / np.sqrt(spec.d)
        assert np.array_equal(basis_matrix(spec, b.index), expected)
        assert np.array_equal(exponents(spec, b.index, np.arange(spec.d)), expo)
        assert np.array_equal(exponents(spec, b.index, spec.d - 1), expo[-1])


@pytest.mark.parametrize("basis, c, message", [
    (9, 0, "quadratic basis index 9 outside"), (-1, 0, "quadratic basis index -1 outside"),
    (0, 9, "state index 9 outside"), (0, -1, "state index -1 outside"),
    (0, [0, 9], "state index 9 outside"), (0, [-1, 3], "state index -1 outside"),
])
def test_exponents_refuse_labels_outside_the_field(basis, c, message):
    with pytest.raises(ValueError, match=message):
        exponents(GF9, basis, c)


@pytest.mark.parametrize("call, twin", [
    (lambda: mub_state(GF3, 3, True), lambda: mub_state(GF3, 3, 1)),
    (lambda: mub_state(GF3, 1, True), lambda: mub_state(GF3, 1, 1)),
    (lambda: mub_state(GF3, True, 2), lambda: mub_state(GF3, 1, 2)),
    (lambda: basis_matrix(GF5, True), lambda: basis_matrix(GF5, 1)),
    (lambda: entangled_mub(GF3, 1, True), lambda: entangled_mub(GF3, 1, 1)),
    (lambda: entangled_mub(GF3, True, 0), lambda: entangled_mub(GF3, 1, 0)),
    (lambda: joint_c_measure(GF3, entangled_mub(GF3, 1, 2), True, np.random.default_rng(0))[1],
     lambda: joint_c_measure(GF3, entangled_mub(GF3, 1, 2), 1, np.random.default_rng(0))[1]),
    (lambda: exponent_additivity_check(GF9, True, 2, True, 3),
     lambda: exponent_additivity_check(GF9, 1, 2, 1, 3)),
    (lambda: exponents(GF9, 0, True), lambda: exponents(GF9, 0, 1)),
    (lambda: exponents(GF9, True, np.int64(4)), lambda: exponents(GF9, 1, 4)),
], ids=["mub_state-computational-c", "mub_state-quadratic-c", "mub_state-basis",
        "basis_matrix-basis", "entangled_mub-c", "entangled_mub-b", "joint_c_measure-b",
        "exponent_additivity-b", "exponents-c", "exponents-basis"])
def test_a_true_label_acts_as_one(call, twin):
    got, want = call(), twin()
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("c", [1.5, np.float64(2.0), np.array([1.0, 2.0]), np.array([True, False]),
                               [0.0], [True]],
                         ids=["float", "numpy-float", "float-array", "bool-array", "float-list",
                              "bool-list"])
def test_exponents_refuse_non_integer_state_indices(c):
    with pytest.raises(TypeError):
        exponents(GF9, 0, c)
