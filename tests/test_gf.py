"""Field arithmetic: worked examples plus algebraic property checks."""

import copy
import dataclasses
import gc
import itertools
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mubqkd import gf
from mubqkd.gf import (FieldSpec, GfElem, find_irreducible, index_add, index_neg, index_sub,
                       is_irreducible, is_prime)
from mubqkd.mub import mub_state

GF3 = FieldSpec(3, 1)
GF5 = FieldSpec(5, 1)
GF7 = FieldSpec(7, 1)
GF9 = FieldSpec(3, 2)
GF25 = FieldSpec(5, 2)
GF27 = FieldSpec(3, 3)
SPECS = [GF3, GF5, GF7, GF9, GF25, GF27]


def test_find_irreducible_examples():
    assert find_irreducible(3, 1) == (0, 1)
    assert find_irreducible(3, 2) == (1, 0, 1)
    assert find_irreducible(5, 2) == (2, 0, 1)


def test_find_irreducible_results_are_irreducible():
    for p, n in [(3, 1), (3, 2), (3, 3), (3, 4), (5, 2), (7, 2)]:
        poly = find_irreducible(p, n)
        assert len(poly) == n + 1 and poly[-1] == 1
        assert is_irreducible(poly, p)


@pytest.mark.parametrize("p, n", [(3, 1), (3, 2), (3, 3), (3, 4), (3, 5), (3, 6), (5, 1),
                                  (5, 2), (5, 3), (7, 2), (11, 2)])
def test_find_irreducible_scans_in_product_order(p, n):
    # the scan order the default moduli were first chosen in
    tails = (tail[::-1] + (1,) for tail in itertools.product(range(p), repeat=n))
    assert find_irreducible(p, n) == next(t for t in tails if is_irreducible(t, p))


def _trial_division_irreducible(poly, p):
    """Reference: exhaustive trial division by every monic polynomial of
    degree 1 .. n // 2."""
    poly = [c % p for c in poly]
    n = len(poly) - 1
    if n < 1 or poly[-1] != 1:
        return False
    if n == 1:
        return True
    for k in range(1, n // 2 + 1):
        for tail in itertools.product(range(p), repeat=k):
            divisor = list(tail) + [1]
            if not any(gf._poly_rem(poly, divisor, p)):
                return False
    return True


@pytest.mark.parametrize("p, n_max", [(3, 5), (5, 5), (7, 4), (11, 4)])
def test_is_irreducible_matches_trial_division(p, n_max):
    for n in range(1, n_max + 1):
        for tail in itertools.product(range(p), repeat=n):
            poly = tail + (1,)
            assert is_irreducible(poly, p) == _trial_division_irreducible(poly, p), poly
    assert not is_irreducible((1, 0, 2), p) and not is_irreducible((1,), p)   # not monic; n = 0


@pytest.mark.parametrize("p, n", [(3, 12), (5, 6), (13, 5), (31, 4), (101, 3), (1021, 2)])
def test_find_irreducible_matches_the_trial_division_scan(p, n):
    tails = (tail[::-1] + (1,) for tail in itertools.product(range(p), repeat=n))
    assert find_irreducible(p, n) == next(t for t in tails if _trial_division_irreducible(t, p))


def test_large_prime_field_needs_no_candidate_table():
    tracemalloc.start()
    try:
        assert FieldSpec(1000003, 1).modulus == (0, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the first candidate, x, is irreducible; a table of the p digits is ~38 MiB
    assert peak < 2 ** 20


def test_is_prime():
    assert [m for m in range(20) if is_prime(m)] == [2, 3, 5, 7, 11, 13, 17, 19]


@pytest.mark.parametrize("call", [lambda: is_prime(2.5), lambda: is_prime(3.5),
                                  lambda: is_prime(7.0), lambda: is_irreducible((1, 1), 3.5)],
                         ids=["2.5", "3.5", "7.0", "is_irreducible-3.5"])
def test_is_prime_refuses_non_integers(call):
    with pytest.raises(TypeError):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: find_irreducible(7, 0), "extension degree must be at least 1, got 0"),
    (lambda: find_irreducible(7, -1), "extension degree must be at least 1, got -1"),
    (lambda: find_irreducible(1, 2), "p must be a prime, got 1"),
    (lambda: find_irreducible(0, 1), "p must be a prime, got 0"),
    (lambda: find_irreducible(4, 2), "p must be a prime, got 4"),
    (lambda: is_irreducible((1, 1), 0), "p must be a prime, got 0"),
    (lambda: is_irreducible((1, 0, 1), 9), "p must be a prime, got 9"),
], ids=["find-n0", "find-n-negative", "find-p1", "find-p0", "find-p4", "is-p0", "is-p9"])
def test_irreducible_search_refuses_bad_arguments(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_find_irreducible_works_over_gf2():
    assert find_irreducible(2, 3) == (1, 1, 0, 1)           # x^3 + x + 1
    assert is_irreducible((1, 1, 0, 1), 2) and not is_irreducible((1, 0, 1), 2)


def test_gf3_arithmetic():
    two = GF3.from_index(2)
    assert (two + two).index == 1
    assert (two * two).index == 1
    assert two.inverse().index == 2
    assert two.trace() == 2


def test_gf9_examples():
    xi = GF9.element([0, 1])
    one_xi = GF9.element([1, 1])
    two_2xi = GF9.element([2, 2])
    assert not (one_xi + two_2xi)                 # (1+xi) + (2+2xi) = 0
    assert (xi * xi) == GF9.element([2])          # x^2 = -1 = 2 mod (x^2 + 1)
    assert xi.inverse() == GF9.element([0, 2])
    assert xi.trace() == 0
    assert GF9.one().trace() == 2


@pytest.mark.parametrize("spec", SPECS)
def test_identity_cases(spec):
    a = spec.from_index(spec.d - 1)
    assert a + spec.zero() == a
    assert a * spec.one() == a
    assert spec.one().inverse() == spec.one()


def test_zero_inverse_rejected():
    with pytest.raises(ValueError):
        GF3.zero().inverse()


def test_mismatched_field_rejected():
    with pytest.raises(ValueError):
        GF3.one() + GF5.one()
    with pytest.raises(ValueError):
        GF9.one() * GF3.one()


def test_bad_field_parameters_rejected():
    for p, n in [(4, 1), (2, 3), (9, 1), (3, 0), (1, 1)]:
        with pytest.raises(ValueError):
            FieldSpec(p, n)


def test_default_modulus_is_tested_once(monkeypatch):
    calls = []

    def counting(poly, p):
        calls.append(tuple(poly))
        return is_irreducible(poly, p)

    monkeypatch.setattr(gf, "is_irreducible", counting)
    default = gf.find_irreducible(3, 5)
    search = calls.copy()
    calls.clear()
    assert FieldSpec(3, 5).modulus == default
    assert calls == search                               # the search alone, no re-test
    calls.clear()
    with pytest.raises(ValueError, match=r"^modulus \[0, 0, 1\] is reducible over GF\(3\)$"):
        FieldSpec(3, 2, (0, 0, 1))
    assert calls == [(0, 0, 1)]
    with pytest.raises(ValueError, match=r"^modulus must be monic of degree 2, got \[1, 0, 2\]$"):
        FieldSpec(3, 2, (1, 0, 2))
    assert calls == [(0, 0, 1)]


def test_modulus_override():
    spec = FieldSpec(3, 2, (2, 1, 1))      # x^2 + x + 2, no roots mod 3
    a, b = spec.from_index(4), spec.from_index(7)
    assert (a * b) * a.inverse() == b


def test_reducible_modulus_rejected():
    with pytest.raises(ValueError):
        FieldSpec(3, 2, (0, 0, 1))          # x^2 has root 0
    with pytest.raises(ValueError):
        FieldSpec(3, 2, (2, 0, 1))          # x^2 + 2 has root 1 mod 3
    with pytest.raises(ValueError):
        FieldSpec(3, 2, (1, 0, 2))          # not monic


@pytest.mark.parametrize("spec", SPECS)
def test_index_roundtrip(spec):
    for k in range(spec.d):
        elem = spec.from_index(k)
        assert elem.index == k
        assert spec.element(elem.coeffs) == elem


@given(spec=st.sampled_from(SPECS), i=st.integers(0, 10**9), j=st.integers(0, 10**9),
       k=st.integers(0, 10**9))
def test_field_axioms(spec, i, j, k):
    a = spec.from_index(i % spec.d)
    b = spec.from_index(j % spec.d)
    c = spec.from_index(k % spec.d)
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert not (a + (-a))
    if a:
        assert a * a.inverse() == spec.one()


@pytest.mark.parametrize("spec", SPECS + [FieldSpec(3, 4)])
def test_trace_additive_exhaustive(spec):
    tr = [e.trace() for e in spec.elements()]
    for i, a in enumerate(spec.elements()):
        for j in range(i, spec.d):
            b = spec.from_index(j)
            assert (a + b).trace() == (tr[i] + tr[j]) % spec.p


@pytest.mark.parametrize("spec", SPECS)
def test_trace_fibers_balanced(spec):
    counts = [0] * spec.p
    for e in spec.elements():
        counts[e.trace()] += 1
    assert counts == [spec.p ** (spec.n - 1)] * spec.p


@given(spec=st.sampled_from(SPECS), i=st.integers(0, 10**9), j=st.integers(0, 10**9),
       m=st.integers(0, 10**9))
def test_trace_is_linear(spec, i, j, m):
    a = spec.from_index(i % spec.d)
    b = spec.from_index(j % spec.d)
    s = (m % spec.p)                      # prime-subfield scalar
    scalar = spec.element([s])
    assert (scalar * a).trace() == (s * a.trace()) % spec.p
    assert (a + b).trace() == (a.trace() + b.trace()) % spec.p


@pytest.mark.parametrize("spec", [GF9, GF25, GF27])
def test_frobenius_is_automorphism_fixing_prime_subfield(spec):
    p = spec.p
    elems = spec.elements()
    for a in elems[:: max(1, spec.d // 9)]:
        for b in elems[:: max(1, spec.d // 9)]:
            assert (a + b) ** p == a ** p + b ** p
            assert (a * b) ** p == (a ** p) * (b ** p)
    fixed = [e for e in elems if e ** p == e]
    assert fixed == [spec.from_index(k) for k in range(p)]


def test_config_roundtrip():
    spec = FieldSpec(5, 2)
    assert FieldSpec.from_config(spec.to_config()) == spec
    assert FieldSpec.from_config({"p": 7}) == GF7


def test_element_is_an_index():
    assert [f.name for f in dataclasses.fields(GfElem)] == ["field", "index"]
    assert GF9.element([4, -1]) == GF9.from_index(7)          # reduced mod p
    assert GF9.element([2]) == GF9.from_index(2)              # zero-padded
    assert GF9.from_index(7).coeffs == (1, 2)
    k = GF9.from_index(np.int64(7)).index
    assert k == 7 and type(k) is int
    assert hash(GF9.element([1, 2])) == hash(GF9.from_index(7))
    assert len({GF9.element([1, 2]), GF9.from_index(7), GF9.one() + GF9.from_index(6)}) == 1
    with pytest.raises(ValueError):
        GF9.element([1, 2, 0])
    for k in (-1, GF9.d):
        with pytest.raises(ValueError):
            GF9.from_index(k)
    with pytest.raises(TypeError):
        GF9.from_index(1.0)


@pytest.mark.parametrize("cfg", [
    {"p": 3.7}, {"p": "7"}, {"p": True}, {}, {"p": 3, "n": 2.0}, {"p": 3, "n": "2"},
    {"p": 3, "n": 2, "modulus": [1, 0, 1.0]}, {"p": 3, "n": 2, "modulus": [1, 0, True]},
    {"p": 3, "n": 2, "modulus": "101"}, {"p": 3, "n": 2, "modulus": 5},
])
def test_from_config_rejects_non_integers(cfg):
    with pytest.raises(ValueError, match=r"^(p|n|modulus(\[\d\])?): expected"):
        FieldSpec.from_config(cfg)


def test_from_config_null_takes_the_default():
    assert FieldSpec.from_config({"p": 3, "n": None, "modulus": None}) == GF3
    assert FieldSpec.from_config({"p": 3, "n": 2, "modulus": [2, 1, 1]}).modulus == (2, 1, 1)


@pytest.mark.parametrize("spec", [GF3, GF9, FieldSpec(3, 2, (2, 1, 1)), GF25, GF27, GF7])
def test_trace_form_matches_element_arithmetic(spec):
    digits, traces = spec.index_arrays
    elems = spec.elements()
    assert [spec.element(row) for row in digits] == elems
    tr = digits @ traces[0] @ digits.T % spec.p
    assert tr.tolist() == [[(a * b).trace() for b in elems] for a in elems]
    tr_bk2 = np.einsum("bl,lij,ki,kj->bk", digits, traces, digits, digits) % spec.p
    assert tr_bk2.tolist() == [[(b * k * k).trace() for k in elems] for b in elems]
    a, b = np.divmod(np.arange(spec.d ** 2), spec.d)
    for op, sign in ((index_add, 1), (index_sub, -1)):
        got = [op(spec, int(x), int(y)) for x, y in zip(a, b)]
        assert np.array_equal(digits[got], (digits[a] + sign * digits[b]) % spec.p)
    assert np.array_equal(digits[[index_neg(spec, k) for k in range(spec.d)]], -digits % spec.p)


def _reference_index_arrays(spec):
    """index_arrays from GfElem products of the monomials and Frobenius traces."""
    p, n = spec.p, spec.n
    digits = np.arange(spec.d)[:, None] // p ** np.arange(n) % p
    monomials = [spec.from_index(p ** i) for i in range(n)]          # x^0 .. x^(n-1)
    traces = np.array([[[(a * b * c).trace() for c in monomials] for b in monomials]
                       for a in monomials])
    return digits, traces


def _monic_irreducibles(p, n):
    tails = itertools.product(range(p), repeat=n)
    return [FieldSpec(p, n, t + (1,)) for t in tails if is_irreducible(t + (1,), p)]


FORM_SPECS = ([s for p, n in [(3, 2), (3, 3), (3, 4), (5, 2), (7, 2)] for s in _monic_irreducibles(p, n)]
              + [FieldSpec(p, n) for p, n in [(3, 5), (3, 6), (3, 7), (5, 4), (7, 3), (11, 2)]])


@pytest.mark.parametrize("spec", FORM_SPECS, ids=lambda s: f"{s.p}^{s.n}-{''.join(map(str, s.modulus))}")
def test_index_arrays_match_element_reference(spec):
    got, want = spec.index_arrays, _reference_index_arrays(spec)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype == np.int64 and g.shape == w.shape
        assert np.array_equal(g, w)
        assert not g.flags.writeable


def test_monic_irreducible_counts_match_gauss_formula():
    # (1/n) * sum over k | n of mu(k) * p^(n/k): every modulus of these fields is in FORM_SPECS
    assert [len(_monic_irreducibles(p, n)) for p, n in [(3, 2), (3, 3), (3, 4), (5, 2), (7, 2)]] == [
        3, 8, 18, 10, 21]


def test_index_arrays_build_no_elements(monkeypatch):
    spec = FieldSpec(3, 5)

    def refuse(self):
        raise AssertionError("a GfElem was built")

    monkeypatch.setattr(GfElem, "__post_init__", refuse)
    got = FieldSpec.index_arrays.func(spec)
    monkeypatch.undo()
    assert all(np.array_equal(g, w) for g, w in zip(got, _reference_index_arrays(spec)))


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_index_arrays_peak_within_a_quarter_of_the_digits():
    """A cold build holds the digits, the d indices they come from and an
    n x n x n tensor: at n = 10, 1.1 times the digits alone."""
    spec = FieldSpec(3, 10)
    digits, _ = spec.index_arrays
    assert _traced_peak(FieldSpec.index_arrays.func, spec) <= 1.25 * digits.nbytes


def test_field_tables_are_freed_with_the_field():
    """Both tables live on their spec: dropping a 3^10 spec after a state
    and a sum gives back its 4.5 MiB of digits."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        spec = FieldSpec(3, 10)
        mub_state(spec, 5, 7)
        index_add(spec, 5, 7)
        assert {"digit_tables", "index_arrays"} <= vars(spec).keys()
        del spec
        gc.collect()
        assert tracemalloc.get_traced_memory()[0] - start <= 0.5 * 2 ** 20
    finally:
        tracemalloc.stop()


def test_pickle_and_copy_keep_only_the_fields():
    spec = FieldSpec(3, 4)
    spec.digit_tables, spec.index_arrays
    for twin in (pickle.loads(pickle.dumps(spec)), copy.copy(spec), copy.deepcopy(spec)):
        assert vars(twin).keys() == {"p", "n", "modulus"}
        assert twin == spec and hash(twin) == hash(spec)
        assert np.array_equal(twin.index_arrays[0], spec.index_arrays[0])


def test_field_arrays_are_o_d_n():
    spec = FieldSpec(3, 6)
    d, n = spec.d, spec.n
    arrays = spec.index_arrays
    assert [a.shape for a in arrays] == [(d, n), (n, n, n)]
    assert sum(a.nbytes for a in arrays) <= 8 * (d * n + n ** 3)
    assert not any(a.flags.writeable for a in arrays)


def _digitwise(spec, a, b, sign):
    """Reference: the index whose i-th base-p digit is a_i + sign * b_i mod p."""
    p = spec.p
    return sum((a // p ** i % p + sign * (b // p ** i % p)) % p * p ** i for i in range(spec.n))


# Chunks of n // 2 digits: three of 5, 5, 1 digits at 3^11, of 2, 2, 1 at 11^5
# (q = 121) and of 1, 1, 1 at 101^3 (q = 101); an empty top chunk at 3^12
# (q = 729) and 1021^2 (q = 1021).
LAYOUT_SPECS = [FieldSpec(3, 11), FieldSpec(11, 5), FieldSpec(101, 3), FieldSpec(3, 12),
                FieldSpec(1021, 2)]
TABLE_SPECS = ([FieldSpec(3, n) for n in range(2, 8)]
               + [FieldSpec(5, 3), FieldSpec(7, 2), FieldSpec(3, 2, (2, 1, 1))] + LAYOUT_SPECS)
TABLE_IDS = [f"{s.p}^{s.n}{'' if s.modulus == find_irreducible(s.p, s.n) else '-mod'}"
             for s in TABLE_SPECS]


@pytest.mark.parametrize("spec", [GF9, GF27], ids=["9", "27"])
def test_elem_difference_is_index_sub(spec):
    for a, b in itertools.product(spec.elements(), repeat=2):
        assert (a - b).index == index_sub(spec, a.index, b.index)


@pytest.mark.parametrize("spec", [GF3, GF9, GF27], ids=["3", "9", "27"])
def test_elem_to_the_zero_is_one(spec):
    for x in spec.elements():
        assert x ** 0 == spec.one()


def test_elem_repr_names_coefficients_and_field():
    assert repr(GF9.element([1, 2])) == "GfElem([1, 2] in GF(3^2))"


@pytest.mark.parametrize("spec", TABLE_SPECS, ids=TABLE_IDS)
def test_index_arithmetic_matches_digitwise_reference(spec):
    d = spec.d
    if d <= 243:
        pairs = itertools.product(range(d), repeat=2)
    else:
        pairs = np.random.default_rng(d).integers(d, size=(20_000, 2)).tolist()
    for a, b in pairs:
        assert index_add(spec, a, b) == _digitwise(spec, a, b, 1)
        assert index_sub(spec, a, b) == _digitwise(spec, a, b, -1)
    for a in range(min(d, 2_000)):
        assert index_neg(spec, a) == _digitwise(spec, 0, a, -1)
    for a in [*range(min(d, 50)), d - 1]:               # a zero operand on either side
        assert index_add(spec, a, 0) == index_sub(spec, a, 0) == index_add(spec, 0, a) == a
        assert index_sub(spec, 0, a) == _digitwise(spec, 0, a, -1)


@pytest.mark.parametrize("spec", [GF7, GF9, GF27], ids=["7", "9", "27"])
@pytest.mark.parametrize("op, args", [
    (index_add, (100, 0)), (index_add, (0, 100)), (index_add, (1, -1)), (index_add, (-1, 1)),
    (index_sub, (-1, 0)), (index_sub, (0, -1)), (index_sub, ("d", 0)), (index_sub, (0, "d")),
    (index_neg, (81,)), (index_neg, ("d",)), (index_neg, (-1,)),
], ids=["add-a100", "add-b100", "add-b-1", "add-a-1", "sub-a-1", "sub-b-1", "sub-a-d", "sub-b-d",
        "neg-81", "neg-d", "neg-1"])
def test_index_arithmetic_refuses_labels_outside_the_field(spec, op, args):
    """index_add, index_sub and index_neg pass each operand through
    spec.check_index, at n = 1 as at n >= 2."""
    args = [spec.d if a == "d" else a for a in args]
    bad = next(a for a in args if not 0 <= a < spec.d)
    with pytest.raises(ValueError) as exc:
        op(spec, *args)
    assert str(exc.value) == f"element index {bad} outside [0, {spec.d})"


@pytest.mark.parametrize("spec", [GF7, GF9], ids=["7", "9"])
@pytest.mark.parametrize("op, args", [(index_add, (2.5, 1)), (index_add, (1, 2.5)),
                                      (index_sub, (2.5, 1)), (index_neg, (2.5,))],
                         ids=["add-a", "add-b", "sub-a", "neg"])
def test_index_arithmetic_refuses_non_integer_labels(spec, op, args):
    with pytest.raises(TypeError):
        op(spec, *args)


@pytest.mark.parametrize("spec", LAYOUT_SPECS, ids=lambda s: f"{s.p}^{s.n}")
def test_index_arithmetic_matches_digitwise_reference_at_chunk_edges(spec):
    q, d = spec.digit_tables[0], spec.d
    edges = [0, 1, q - 1, q, d - q, d - 1]
    for a, b in itertools.product(edges, repeat=2):
        assert index_add(spec, a, b) == _digitwise(spec, a, b, 1)
        assert index_sub(spec, a, b) == _digitwise(spec, a, b, -1)


def test_largest_field_of_each_degree_has_at_most_three_chunks():
    """chunkwise reads three chunks of each index: d <= q^3 for the largest
    field of each degree 2 <= n <= 12 that MAX_D admits."""
    limit = gf.MAX_D
    for n in range(2, int(math.log(limit, 3)) + 1):
        p = next(p for p in range(int(limit ** (1 / n)) + 1, 2, -1)
                 if p % 2 and gf.is_prime(p) and p ** n <= limit)
        spec = FieldSpec(p, n)
        assert spec.d <= spec.digit_tables[0] ** 3


@pytest.mark.parametrize("spec", TABLE_SPECS, ids=TABLE_IDS)
def test_digit_tables_are_read_only_with_at_most_d_entries(spec):
    q, sub = spec.digit_tables
    assert q == spec.p ** max(1, spec.n // 2)
    assert len(sub) == q * q <= spec.d
    assert sub.readonly and sub.itemsize == 4
    with pytest.raises(TypeError):
        sub[0] = 0


def test_digit_tables_build_no_elements(monkeypatch):
    spec = FieldSpec(3, 4)
    assert "digit_tables" not in vars(spec)

    def refuse(self):
        raise AssertionError("a GfElem was built")

    monkeypatch.setattr(GfElem, "__post_init__", refuse)
    spec.digit_tables
    assert index_add(spec, 40, 41) == _digitwise(spec, 40, 41, 1)


def test_digit_tables_leave_spec_identity_alone():
    spec, twin = FieldSpec(3, 3), FieldSpec(3, 3)
    before = (hash(spec), spec.to_config(), repr(spec))
    spec.digit_tables
    assert "digit_tables" in vars(spec) and "digit_tables" not in vars(twin)
    assert spec == twin and hash(twin) == before[0]
    assert (hash(spec), spec.to_config(), repr(spec)) == before
    # a prime field adds directly and builds none
    index_sub(GF7, 2, 5)
    assert "digit_tables" not in vars(GF7)


def _unreachable(*args):
    raise AssertionError("the field was built before its size was checked")


@pytest.mark.parametrize("p, n, d", [
    (7, 10, "7^10"), (1031, 2, "1062961"), (3, 40, "3^40"), (4294967311, 1, "4294967311"),
    (3, 13, "1594323"), (3, 10 ** 9, f"3^{10 ** 9}"),
], ids=["7^10", "1031^2", "3^40", "4294967311", "3^13", "3^1e9"])
def test_oversize_field_is_refused_before_it_is_built(monkeypatch, p, n, d):
    monkeypatch.setattr(gf, "is_prime", _unreachable)
    monkeypatch.setattr(gf, "find_irreducible", _unreachable)
    with pytest.raises(ValueError) as exc:
        FieldSpec(p, n)
    assert str(exc.value) == f"d = {d} exceeds the field limit 1048576"


def test_largest_prime_field_builds_with_tables_of_at_most_d_entries():
    """1048573 is the largest prime below the limit; at n = 1 the chunks are
    empty (q = 1), so the table holds one entry, not p^2."""
    spec = FieldSpec(1048573, 1)
    assert spec.d <= gf.MAX_D
    q, sub = spec.digit_tables
    assert q == 1 and len(sub) == 1 <= spec.d
    assert index_add(spec, spec.d - 1, 5) == 4 and index_sub(spec, 2, 5) == spec.d - 3
