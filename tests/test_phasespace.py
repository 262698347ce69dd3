"""Label algebra, line geometry, and discrete Wigner supports."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from mubqkd.gf import FieldSpec
from mubqkd.hilbert import basis_state
from mubqkd.mub import mub_state
from mubqkd.entangle import entangled_mub
from mubqkd.phasespace import (SUPPORT_TOL, CvLabel, cv_equal_delta, cv_intersect, cv_shift,
                               cv_split, dwigner1, dwigner2_support)


def _q_state(d, b, c):
    return mub_state(FieldSpec(d, 1), b, c)


def _line_points(d, b, c):
    """Predicted single-particle support: p = 2*b*q + c over Z_d."""
    return {(q, (2 * b * q + c) % d) for q in range(d)}


def _pair_points(d, b, c):
    """Predicted pair support: q1 = q2 and p1 + p2 = 2*b*q1 + c over Z_d."""
    return {(q, p1, q, (2 * b * q + c - p1) % d)
            for q in range(d) for p1 in range(d)}


# ---------------------------------------------------------------------------
# label algebra
# ---------------------------------------------------------------------------

def test_cv_split_examples():
    out = cv_split(CvLabel(1.5, 0.7), 0.5, 0.2)
    assert out.b == pytest.approx(1.0, abs=1e-12) and out.c == pytest.approx(0.5, abs=1e-12)
    assert cv_split(CvLabel(2.0, 0.3), 0.0, 0.0) == CvLabel(2.0, 0.3)


def test_cv_split_recombines():
    label = CvLabel(3.25, -1.5)
    part = cv_split(label, 1.25, -0.5)
    assert CvLabel(part.b + 1.25, part.c + (-0.5)) == label


def test_cv_split_rejects_computational_family():
    with pytest.raises(ValueError):
        cv_split(CvLabel(math.inf, 1.0), 1.0, 0.0)


def test_cv_shift():
    assert cv_shift(CvLabel(2.0, 0.3), 0.0) == CvLabel(2.0, 0.3)
    assert cv_shift(CvLabel(2.0, 0.3), 0.2) == CvLabel(2.0, 0.5)
    twice = cv_shift(cv_shift(CvLabel(1.0, 0.0), 0.3), 0.4)
    assert twice == cv_shift(CvLabel(1.0, 0.0), 0.7)


def test_cv_equal_delta():
    assert cv_equal_delta(CvLabel(1.0, 0.5), cv_shift(CvLabel(1.0, 0.3), 0.2))
    assert not cv_equal_delta(CvLabel(1.0, 0.5), CvLabel(1.0, 0.4))
    with pytest.raises(ValueError):
        cv_equal_delta(CvLabel(1.0, 0.5), CvLabel(2.0, 0.5))


def test_cv_equal_delta_protocol_algebra():
    # lambda = c1' - c1 makes the shifted second label meet the first
    b, c, b1 = 2.0, 0.7, 0.5
    c1, c1p = 0.2, -0.4
    first = cv_split(CvLabel(b, c), b1, c1)
    second = cv_split(CvLabel(b, c), b1, c1p)
    assert cv_equal_delta(first, cv_shift(second, c1p - c1))


# ---------------------------------------------------------------------------
# line intersections
# ---------------------------------------------------------------------------

def test_intersect_distinct_slopes():
    res = cv_intersect(CvLabel(1.0, 0.0), CvLabel(2.0, 3.0))
    assert res.kind == "point"
    assert res.point == pytest.approx((-3.0, -3.0))


def test_intersect_parallel():
    assert cv_intersect(CvLabel(1.0, 0.0), CvLabel(1.0, 5.0)).kind == "none"


def test_intersect_identical():
    assert cv_intersect(CvLabel(1.0, 2.0), CvLabel(1.0, 2.0)).kind == "degenerate"


def test_intersect_vertical_cases():
    res = cv_intersect(CvLabel(math.inf, 2.0), CvLabel(1.0, 0.0))
    assert res.kind == "point" and res.point == pytest.approx((2.0, 2.0))
    assert cv_intersect(CvLabel(math.inf, 2.0), CvLabel(math.inf, 3.0)).kind == "none"
    assert cv_intersect(CvLabel(math.inf, 2.0), CvLabel(math.inf, 2.0)).kind == "degenerate"


@pytest.mark.parametrize("b, c", [(math.nan, 0.0), (1.0, math.nan), (math.nan, math.nan)],
                         ids=["nan-b", "nan-c", "nan-both"])
def test_cv_label_refuses_nan(b, c):
    with pytest.raises(ValueError, match="must not be NaN"):
        CvLabel(b, c)


def test_intersect_trichotomy_random():
    rng = np.random.default_rng(9)
    grid = [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, math.inf]
    for _ in range(10_000):
        s1, s2 = grid[rng.integers(len(grid))], grid[rng.integers(len(grid))]
        c1, c2 = float(rng.integers(-3, 4)), float(rng.integers(-3, 4))
        res = cv_intersect(CvLabel(s1, c1), CvLabel(s2, c2))
        if s1 == s2:
            assert res.kind == ("degenerate" if c1 == c2 else "none")
        else:
            assert res.kind == "point"
            q, p = res.point
            for slope, icept in ((s1, c1), (s2, c2)):
                if math.isinf(slope):
                    assert q == pytest.approx(icept, abs=1e-9)
                else:
                    assert p == pytest.approx(slope * q + icept, abs=1e-9)


# ---------------------------------------------------------------------------
# discrete Wigner
# ---------------------------------------------------------------------------

def test_dwigner1_computational_vertical_line():
    table = dwigner1(basis_state(3, 1))
    expect = np.zeros((3, 3))
    expect[1, :] = 1 / 3
    assert np.max(np.abs(table - expect)) < 1e-12


def test_dwigner1_frozen_d3_support():
    table = dwigner1(_q_state(3, 1, 0))
    support = {(q, p) for q in range(3) for p in range(3) if abs(table[q, p]) > 1e-10}
    assert support == {(0, 0), (1, 2), (2, 1)}
    for q, p in support:
        assert table[q, p] == pytest.approx(1 / 3, abs=1e-10)


def test_dwigner1_all_quadratic_states_are_lines():
    for d in (3, 5):
        for b, c in itertools.product(range(d), repeat=2):
            table = dwigner1(_q_state(d, b, c))
            on_line = _line_points(d, b, c)
            for q in range(d):
                for p in range(d):
                    if (q, p) in on_line:
                        assert abs(table[q, p] - 1 / d) < 1e-10
                    else:
                        assert abs(table[q, p]) < 1e-10


def test_dwigner1_normalization_and_marginals():
    rng = np.random.default_rng(10)
    for d in (3, 5, 7):
        for _ in range(20):
            psi = rng.normal(size=d) + 1j * rng.normal(size=d)
            psi /= np.linalg.norm(psi)
            table = dwigner1(psi)
            assert table.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.max(np.abs(table.sum(axis=1) - np.abs(psi) ** 2)) < 1e-10


def test_dwigner1_rejects_bad_dimensions():
    for d in (2, 4, 6, 9):
        psi = np.zeros(d, complex)
        psi[0] = 1.0
        with pytest.raises(ValueError):
            dwigner1(psi)
    with pytest.raises(ValueError):
        dwigner1(2.0 * basis_state(3, 0))


def test_dwigner2_epr_support():
    spec = FieldSpec(3, 1)
    support = dwigner2_support(entangled_mub(spec, 0, 0))
    assert set(support) == _pair_points(3, 0, 0)
    assert all(v == pytest.approx(1 / 9, abs=1e-10) for v in support.values())


def test_dwigner2_support_matches_line_rule():
    for d in (3, 5):
        spec = FieldSpec(d, 1)
        for b, c in itertools.product(range(d), repeat=2):
            pair = entangled_mub(spec, b, c)
            support = dwigner2_support(pair)
            assert set(support) == _pair_points(d, b, c)
            assert len(support) == d * d
            assert all(abs(v - 1 / d ** 2) < 1e-10 for v in support.values())
            assert all(q1 == q2 for (q1, _, q2, _) in support)


def test_dwigner2_rejects_composite():
    psi = np.zeros(16, complex)
    psi[0] = 1.0
    with pytest.raises(ValueError):
        dwigner2_support(psi)


# ---------------------------------------------------------------------------
# discrete Wigner against the explicit DFT-matrix construction
# ---------------------------------------------------------------------------

def _reference_kernel(d):
    """plus, minus and the d x d DFT matrix omega^(-p*u) of the Wigner kernel."""
    h = (d + 1) // 2
    idx = np.arange(d)
    plus = (idx[:, None] + h * idx[None, :]) % d
    minus = (idx[:, None] - h * idx[None, :]) % d
    return plus, minus, np.exp(-2j * np.pi * np.outer(idx, idx) / d)


def _reference_dwigner1(psi):
    d = psi.shape[0]
    plus, minus, fourier = _reference_kernel(d)
    return ((psi[plus] * psi[minus].conj()) @ fourier).real / d


def _reference_dwigner2_support(psi):
    """The whole d^4 table from one einsum, thresholded at SUPPORT_TOL."""
    d = math.isqrt(psi.shape[0])
    plus, minus, fourier = _reference_kernel(d)
    mat = psi.reshape(d, d)
    auto = (mat[plus[:, None, :, None], plus[None, :, None, :]]
            * mat[minus[:, None, :, None], minus[None, :, None, :]].conj())
    table = np.einsum("abuv,ux,vy->axby", auto, fourier, fourier).real / (d * d)
    return {tuple(k): float(table[tuple(k)])
            for k in np.argwhere(np.abs(table) > SUPPORT_TOL).tolist()}


def _assert_same_support(got, want):
    assert list(got) == list(want)
    assert all(abs(got[k] - want[k]) < 1e-12 for k in want)


@pytest.mark.parametrize("d", [3, 5, 7, 11])
def test_dwigner1_matches_dft_matrix_reference(d):
    spec = FieldSpec(d, 1)
    for basis, c in itertools.product(range(d + 1), range(d)):
        psi = mub_state(spec, basis, c)
        assert np.max(np.abs(dwigner1(psi) - _reference_dwigner1(psi))) < 1e-12


@pytest.mark.parametrize("d", [3, 5])
def test_dwigner2_support_matches_einsum_reference_on_pairs(d):
    spec = FieldSpec(d, 1)
    for b, c in itertools.product(range(d), repeat=2):
        pair = entangled_mub(spec, b, c)
        _assert_same_support(dwigner2_support(pair), _reference_dwigner2_support(pair))


@pytest.mark.parametrize("d", [3, 5, 7])
def test_dwigner2_support_matches_einsum_reference_on_random_states(d):
    rng = np.random.default_rng(100 + d)
    for _ in range(5):
        psi = rng.normal(size=d * d) + 1j * rng.normal(size=d * d)
        psi /= np.linalg.norm(psi)
        _assert_same_support(dwigner2_support(psi), _reference_dwigner2_support(psi))


def test_dwigner2_support_never_holds_a_d4_table():
    # at d = 37 one d^4 complex array is 29 MiB; a q1 slice is 0.8 MiB
    pair = entangled_mub(FieldSpec(37, 1), 1, 2)
    tracemalloc.start()
    try:
        dwigner2_support(pair)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
