"""Exact arithmetic in GF(p^n) for odd primes p.

Elements are fixed-length coefficient tuples over GF(p), low-order first,
reduced modulo a monic irreducible polynomial of degree n.  The integer
index of an element, sum(coeffs[i] * p**i), fixes the canonical ordering
used everywhere for basis construction and transcript output.  Hot paths
work on these indices directly: addition is digit-wise mod p, so it needs
no table, and index_tables holds the add, mul and trace tables for the
code that does need multiplication.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


def is_prime(m: int) -> bool:
    """Trial-division primality test; adequate for desk-scale moduli."""
    if m < 2:
        return False
    if m % 2 == 0:
        return m == 2
    f = 3
    while f * f <= m:
        if m % f == 0:
            return False
        f += 2
    return True


# ---------------------------------------------------------------------------
# Polynomial helpers over GF(p).  Coefficient sequences are low-order first.
# ---------------------------------------------------------------------------

def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return out


def _poly_rem(a, mod, p):
    """Remainder of a modulo a monic polynomial mod."""
    a = [c % p for c in a]
    deg_m = len(mod) - 1
    for i in range(len(a) - 1, deg_m - 1, -1):
        coef = a[i]
        if coef:
            a[i] = 0
            for j in range(deg_m):
                a[i - deg_m + j] = (a[i - deg_m + j] - coef * mod[j]) % p
    out = a[:deg_m]
    out += [0] * (deg_m - len(out))
    return out


def is_irreducible(poly, p: int) -> bool:
    """Exhaustive trial division by every lower-degree monic polynomial."""
    poly = [c % p for c in poly]
    n = len(poly) - 1
    if n < 1 or poly[-1] != 1:
        return False
    if n == 1:
        return True
    for k in range(1, n // 2 + 1):
        for tail in itertools.product(range(p), repeat=k):
            divisor = list(tail) + [1]
            if not any(_poly_rem(poly, divisor, p)):
                return False
    return True


def find_irreducible(p: int, n: int) -> tuple[int, ...]:
    """Smallest monic irreducible of degree n over GF(p).

    Candidates are scanned in ascending order with the constant term
    varying fastest, so the result is deterministic.
    """
    for k in range(p ** n):
        tail, m = [], k
        for _ in range(n):
            tail.append(m % p)
            m //= p
        cand = tail + [1]
        if is_irreducible(cand, p):
            return tuple(cand)
    raise AssertionError("monic irreducibles exist for every degree")


@dataclass(frozen=True)
class FieldSpec:
    """GF(p^n) with an explicit monic irreducible modulus (low-order first).

    An empty modulus selects the default from find_irreducible.
    """

    p: int
    n: int
    modulus: tuple[int, ...] = ()

    def __post_init__(self):
        if self.p == 2 or not is_prime(self.p):
            raise ValueError(f"p must be an odd prime, got {self.p}")
        if self.n < 1:
            raise ValueError(f"extension degree must be at least 1, got {self.n}")
        mod = tuple(int(c) % self.p for c in self.modulus)
        if not mod:
            mod = find_irreducible(self.p, self.n)
        if len(mod) != self.n + 1 or mod[-1] != 1:
            raise ValueError(f"modulus must be monic of degree {self.n}, got {list(mod)}")
        if not is_irreducible(mod, self.p):
            raise ValueError(f"modulus {list(mod)} is reducible over GF({self.p})")
        object.__setattr__(self, "modulus", mod)

    @property
    def d(self) -> int:
        return self.p ** self.n

    def element(self, coeffs) -> GfElem:
        return GfElem(self, tuple(coeffs))

    def from_index(self, k: int) -> GfElem:
        if not 0 <= k < self.d:
            raise ValueError(f"element index {k} outside [0, {self.d})")
        coeffs, m = [], k
        for _ in range(self.n):
            coeffs.append(m % self.p)
            m //= self.p
        return GfElem(self, tuple(coeffs))

    def zero(self) -> GfElem:
        return self.from_index(0)

    def one(self) -> GfElem:
        return self.from_index(1)

    def elements(self) -> list[GfElem]:
        """All d elements in canonical index order."""
        return [self.from_index(k) for k in range(self.d)]

    def to_config(self) -> dict:
        return {"p": self.p, "n": self.n, "modulus": list(self.modulus)}

    @classmethod
    def from_config(cls, cfg: dict) -> FieldSpec:
        return cls(int(cfg["p"]), int(cfg.get("n", 1)), tuple(cfg.get("modulus") or ()))


@dataclass(frozen=True)
class GfElem:
    """A GF(p^n) element: length-n coefficient tuple over GF(p), low-order first."""

    field: FieldSpec
    coeffs: tuple[int, ...]

    def __post_init__(self):
        c = tuple(int(x) % self.field.p for x in self.coeffs)
        if len(c) > self.field.n:
            raise ValueError("coefficient vector longer than the extension degree")
        c = c + (0,) * (self.field.n - len(c))
        object.__setattr__(self, "coeffs", c)

    @property
    def index(self) -> int:
        k = 0
        for c in reversed(self.coeffs):
            k = k * self.field.p + c
        return k

    def _same_field(self, other):
        if not isinstance(other, GfElem) or self.field != other.field:
            raise ValueError("operands belong to different field specs")

    def __add__(self, other: GfElem) -> GfElem:
        self._same_field(other)
        p = self.field.p
        return GfElem(self.field, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> GfElem:
        p = self.field.p
        return GfElem(self.field, tuple((-a) % p for a in self.coeffs))

    def __sub__(self, other: GfElem) -> GfElem:
        return self + (-other)

    def __mul__(self, other: GfElem) -> GfElem:
        self._same_field(other)
        prod = _poly_mul(self.coeffs, other.coeffs, self.field.p)
        return GfElem(self.field, tuple(_poly_rem(prod, self.field.modulus, self.field.p)))

    def __pow__(self, e: int) -> GfElem:
        if e < 0:
            raise ValueError("negative exponents are not supported; use inverse()")
        result = self.field.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def inverse(self) -> GfElem:
        """Multiplicative inverse via a^(d-2); the unit group has order d-1."""
        if not self:
            raise ValueError("zero has no multiplicative inverse")
        return self ** (self.field.d - 2)

    def trace(self) -> int:
        """Sum of the n Frobenius conjugates; lands in the prime subfield."""
        acc = self
        term = self
        for _ in range(self.field.n - 1):
            term = term ** self.field.p
            acc = acc + term
        assert not any(acc.coeffs[1:]), "trace left the prime subfield"
        return acc.coeffs[0]

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __repr__(self) -> str:
        return f"GfElem({list(self.coeffs)} in GF({self.field.p}^{self.field.n}))"


# ---------------------------------------------------------------------------
# Arithmetic on canonical element indices.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def index_tables(spec: FieldSpec):
    """Read-only (add, mul, trace) tables over canonical element indices."""
    elems = spec.elements()
    d = spec.d
    add = np.empty((d, d), dtype=np.int64)
    mul = np.empty((d, d), dtype=np.int64)
    for i, a in enumerate(elems):
        for j in range(i, d):
            b = elems[j]
            add[i, j] = add[j, i] = (a + b).index
            mul[i, j] = mul[j, i] = (a * b).index
    tr = np.array([a.trace() for a in elems], dtype=np.int64)
    for t in (add, mul, tr):
        t.setflags(write=False)
    return add, mul, tr


def _digitwise(spec: FieldSpec, a: int, b: int, sign: int) -> int:
    """Index whose base-p digits are those of a plus sign times those of b, mod p."""
    p = spec.p
    if spec.n == 1:
        return (a + sign * b) % p
    out, scale = 0, 1
    while a or b:
        a, da = divmod(a, p)
        b, db = divmod(b, p)
        out += (da + sign * db) % p * scale
        scale *= p
    return out


def index_add(spec: FieldSpec, a: int, b: int) -> int:
    """Index of from_index(a) + from_index(b)."""
    return _digitwise(spec, a, b, 1)


def index_sub(spec: FieldSpec, a: int, b: int) -> int:
    """Index of from_index(a) - from_index(b)."""
    return _digitwise(spec, a, b, -1)


def index_neg(spec: FieldSpec, a: int) -> int:
    """Index of -from_index(a)."""
    return _digitwise(spec, 0, a, -1)
