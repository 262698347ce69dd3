"""Exact arithmetic in GF(p^n) for odd primes p, with d = p^n at most MAX_D.

An element is stored as its canonical index sum(coeffs[i] * p**i), where
coeffs (low-order first) represent it modulo a monic irreducible polynomial
of degree n; the index order is used everywhere for bases and transcripts.
FieldSpec refuses d above MAX_D before it tests p or looks for a modulus,
so every table below holds at most d <= MAX_D entries.
Addition is digit-wise mod p on indices: for n >= 2 an index splits into
chunks of h = n // 2 base-p digits, and each pair of chunks is looked up in
the add or sub table of FieldSpec.digit_tables (p^(2h) <= d entries each);
d <= p^(3h), so a sum costs three lookups whatever n is.
Products and the trace work on coefficients.  Phases need only traces of
products, which index_arrays gives through the digits of each index and
the n x n x n tensor traces[l, i, j] = tr(x^(l+i+j)): tr(a*b) and
tr(b*k^2) are quadratic forms in the digits.  index_arrays builds no
GfElem: tr(x^k) comes from the remainders of x^0 .. x^(4n-4) by the
modulus, as the trace of multiplication by x^k on the basis 1, x, ...,
x^(n-1).
The default modulus is the first monic irreducible in a fixed scan order;
is_irreducible rejects a root in GF(p) and then applies Ben-Or's test,
gcd(f, x^(p^i) - x) = 1 for 2 <= i <= n/2, rather than trial division.
GfElem products and Frobenius traces stay the reference the tests use.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache

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


def _poly_pow_mod(base, e: int, mod, p):
    """base^e modulo the monic polynomial mod, for e >= 1, by square-and-multiply
    over the bits of e from the top."""
    out = base
    for bit in bin(e)[3:]:
        out = _poly_rem(_poly_mul(out, out, p), mod, p)
        if bit == "1":
            out = _poly_rem(_poly_mul(out, base, p), mod, p)
    return out


def _coprime(a, b, p) -> bool:
    """Whether a (nonzero) and b have gcd 1 over GF(p), by Euclid's algorithm."""
    while any(b):
        while not b[-1]:
            b = b[:-1]
        inv = pow(b[-1], -1, p)
        a, b = b, _poly_rem(a, [c * inv % p for c in b], p)
    return len(a) == 1


def is_irreducible(poly, p: int) -> bool:
    """Whether poly is monic of degree n >= 1 and irreducible over GF(p).

    A reducible poly has an irreducible factor of degree i <= n/2.  One of
    degree 1 is a root, so poly is first evaluated at each of the p points
    of GF(p) (p <= 1024 when n >= 2 and d = p^n <= MAX_D).  For 2 <= i <=
    n/2, Ben-Or's test: gcd(poly, x^(p^i) - x) = 1 rules out a factor of
    degree i, since x^(p^i) - x is the product of the monic irreducibles
    whose degree divides i.  x^(p^i) mod poly is x^(p^(i-1)) mod poly raised
    to the p-th power by square-and-multiply."""
    poly = [c % p for c in poly]
    n = len(poly) - 1
    if n < 1 or poly[-1] != 1:
        return False
    if n == 1:
        return True
    for a in range(p):
        v = 0
        for c in reversed(poly):
            v = v * a + c
        if v % p == 0:
            return False
    frobenius = [0, 1]                  # x^(p^i) mod poly, from i = 0
    for i in range(1, n // 2 + 1):
        frobenius = _poly_pow_mod(frobenius, p, poly, p)
        if i >= 2:
            g = frobenius.copy()
            g[1] = (g[1] - 1) % p
            if not _coprime(poly, g, p):
                return False
    return True


def find_irreducible(p: int, n: int) -> tuple[int, ...]:
    """Smallest monic irreducible of degree n over GF(p).

    Candidates are scanned in ascending order with the constant term
    varying fastest (the base-p digits of k, low-order first, for k = 0, 1,
    ...), so the result is deterministic; none is built before it is tried.
    """
    for k in range(p ** n):
        cand = tuple(k // p ** i % p for i in range(n)) + (1,)
        if is_irreducible(cand, p):
            return cand
    raise AssertionError("monic irreducibles exist for every degree")


# Largest field size d = p^n a FieldSpec accepts: its digit tables then take
# at most 4 MiB of int32 apiece, the only tables a session keeps.
MAX_D = 2 ** 20


def refuse_oversize(p: int, n: int, max_d: int, limit: str):
    """ValueError if d = p^n exceeds max_d, which the message calls limit.

    Multiplying stops once d passes max_d, so a huge n costs nothing; a p
    below 2 is left for the caller to report."""
    if p < 2:
        return
    d = 1
    for k in range(1, n + 1):
        d *= p
        if d > max_d:
            raise ValueError(f"d = {d if k == n else f'{p}^{n}'} exceeds {limit} {max_d}")


def _integer(key: str, value) -> int:
    """value as an int; ValueError naming key for booleans, floats, strings and None."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{key}: expected an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class FieldSpec:
    """GF(p^n) with an explicit monic irreducible modulus (low-order first).

    An empty modulus selects the default from find_irreducible.
    """

    p: int
    n: int
    modulus: tuple[int, ...] = ()

    def __post_init__(self):
        p, n = _integer("p", self.p), _integer("n", self.n)
        # size before primality: the primality test and modulus search grow with p and d
        if n < 1:
            raise ValueError(f"extension degree must be at least 1, got {n}")
        refuse_oversize(p, n, MAX_D, "the field limit")
        if p == 2 or not is_prime(p):
            raise ValueError(f"p must be an odd prime, got {p}")
        if not isinstance(self.modulus, (list, tuple)):
            raise ValueError(f"modulus: expected a sequence, got {self.modulus!r}")
        mod = tuple(_integer(f"modulus[{i}]", c) % p for i, c in enumerate(self.modulus))
        # find_irreducible's result is irreducible by construction; only a given modulus is tested
        if not mod:
            mod = find_irreducible(p, n)
        elif len(mod) != n + 1 or mod[-1] != 1:
            raise ValueError(f"modulus must be monic of degree {n}, got {list(mod)}")
        elif not is_irreducible(mod, p):
            raise ValueError(f"modulus {list(mod)} is reducible over GF({p})")
        for name, value in (("p", p), ("n", n), ("modulus", mod)):
            object.__setattr__(self, name, value)

    @property
    def d(self) -> int:
        return self.p ** self.n

    @cached_property
    def digit_tables(self) -> tuple[int, memoryview, memoryview]:
        """(q, add, sub), built on first use and kept on the instance.

        q = p^h for chunks of h = n // 2 base-p digits (q = 1 at n = 1, where
        index_add never reads them); add[x * q + y] and sub[x * q + y] are the
        chunks whose digits are those of x plus and minus those of y, mod p.
        Each is a read-only int32 view of q * q <= d entries, built by
        vectorized digit arithmetic.  Not part of equality, hashing or
        to_config.
        """
        p, h = self.p, self.n // 2
        q = p ** h
        k = np.arange(q, dtype=np.int32)
        add = np.zeros((q, q), dtype=np.int32)
        sub = np.zeros((q, q), dtype=np.int32)
        for i in range(h):
            x = k // p ** i % p
            add += (x[:, None] + x) % p * p ** i
            sub += (x[:, None] - x) % p * p ** i
        return q, memoryview(add.ravel()).toreadonly(), memoryview(sub.ravel()).toreadonly()

    def __getstate__(self) -> dict:
        """The fields alone: a pickle or copy leaves digit_tables out, to be
        built again on use (a memoryview cannot be pickled)."""
        return {k: v for k, v in self.__dict__.items() if k != "digit_tables"}

    def check_index(self, k, what: str = "element index", top: int | None = None) -> int:
        """k as a plain int, or ValueError naming it as `what` unless it lies in
        [0, top); top defaults to d.  The one range rule for every label."""
        k = operator.index(k)
        top = self.d if top is None else top
        if not 0 <= k < top:
            raise ValueError(f"{what} {k} outside [0, {top})")
        return k

    def element(self, coeffs) -> GfElem:
        """Element from coefficients (low-order first), reduced mod p and zero-padded."""
        coeffs = [int(c) % self.p for c in coeffs]
        if len(coeffs) > self.n:
            raise ValueError("coefficient vector longer than the extension degree")
        return GfElem(self, sum(c * self.p ** i for i, c in enumerate(coeffs)))

    def from_index(self, k: int) -> GfElem:
        return GfElem(self, k)

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
        """Inverse of to_config; n and modulus may be absent or null."""
        for key in cfg:
            if key not in ("p", "n", "modulus"):
                raise ValueError(f"{key}: unknown key")
        n, modulus = cfg.get("n"), cfg.get("modulus")
        return cls(cfg.get("p"), 1 if n is None else n, () if modulus is None else modulus)


@dataclass(frozen=True)
class GfElem:
    """A GF(p^n) element, stored as its canonical index in [0, d)."""

    field: FieldSpec
    index: int

    def __post_init__(self):
        object.__setattr__(self, "index", self.field.check_index(self.index))

    @property
    def coeffs(self) -> tuple[int, ...]:
        """The base-p digits of index: n coefficients over GF(p), low-order first."""
        p = self.field.p
        return tuple(self.index // p ** i % p for i in range(self.field.n))

    def _same_field(self, other):
        if not isinstance(other, GfElem) or self.field != other.field:
            raise ValueError("operands belong to different field specs")

    def __add__(self, other: GfElem) -> GfElem:
        self._same_field(other)
        return GfElem(self.field, index_add(self.field, self.index, other.index))

    def __neg__(self) -> GfElem:
        return GfElem(self.field, index_neg(self.field, self.index))

    def __sub__(self, other: GfElem) -> GfElem:
        self._same_field(other)
        return GfElem(self.field, index_sub(self.field, self.index, other.index))

    def __mul__(self, other: GfElem) -> GfElem:
        self._same_field(other)
        prod = _poly_mul(self.coeffs, other.coeffs, self.field.p)
        return self.field.element(_poly_rem(prod, self.field.modulus, self.field.p))

    def __pow__(self, e: int) -> GfElem:
        if e < 0:
            raise ValueError("negative exponents are not supported; use inverse()")
        spec = self.field
        if not e:
            return spec.one()
        return spec.element(_poly_pow_mod(list(self.coeffs), e, spec.modulus, spec.p))

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
        assert acc.index < self.field.p, "trace left the prime subfield"
        return acc.index

    def __bool__(self) -> bool:
        return self.index != 0

    def __repr__(self) -> str:
        return f"GfElem({list(self.coeffs)} in GF({self.field.p}^{self.field.n}))"


# ---------------------------------------------------------------------------
# Arithmetic on canonical element indices.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def index_arrays(spec: FieldSpec):
    """Read-only (digits, traces): the n base-p digits of each index, a
    (d, n) array, and the n x n x n trace tensor traces[l, i, j] =
    tr(x^(l+i+j)).  tr is linear, so tr(a * b) is digits[a] @ traces[0] @
    digits[b] and tr(b * k^2) is digits[k] @ (digits[b] @ traces) @ digits[k],
    both mod p.

    Built from the coefficients of x^0 .. x^(4n-4), each reduced by the
    monic modulus.  tr(x^k) is the trace of "multiply by x^k", which sends
    x^i to x^(i+k): the sum over i of coefficient i of x^(i+k)."""
    p, n, mod = spec.p, spec.n, spec.modulus
    digits = np.arange(spec.d)[:, None] // np.array([p ** i for i in range(n)])
    digits %= p
    powers = [[1] + [0] * (n - 1)]
    for _ in range(4 * n - 4):                # x^(k+1) = x * x^k, less top * modulus
        top = powers[-1][-1]
        powers.append([(c - top * m) % p for c, m in zip([0] + powers[-1][:-1], mod)])
    tr = [sum(powers[i + k][i] for i in range(n)) % p for k in range(3 * n - 2)]
    traces = np.array([[tr[l + i:l + i + n] for i in range(n)] for l in range(n)])
    for t in (digits, traces):
        t.setflags(write=False)
    return digits, traces


def chunkwise(q: int, table, a: int, b: int) -> int:
    """Index whose base-q chunks are table[x * q + y], for x and y the chunks of a and b.

    Requires (q, add, sub) = spec.digit_tables at n >= 2 and a, b in [0, d);
    then chunkwise(q, add, a, b) is index_add(spec, a, b) and chunkwise(q,
    sub, a, b) is index_sub(spec, a, b), without reading spec on each call.
    q = p^(n // 2) gives d <= q^3, so an index has at most three chunks, and
    a missing top chunk reads table[0], which is 0 in both tables."""
    if b == 0:                          # a + 0 = a - 0 = a
        return a
    qq = q * q
    return (table[a % q * q + b % q] + table[a // q % q * q + b // q % q] * q
            + table[a // qq * q + b // qq] * qq)


def index_add(spec: FieldSpec, a: int, b: int) -> int:
    """Index of from_index(a) + from_index(b)."""
    if spec.n == 1:
        return (a + b) % spec.p
    q, add, _ = spec.digit_tables
    return chunkwise(q, add, a, b)


def index_sub(spec: FieldSpec, a: int, b: int) -> int:
    """Index of from_index(a) - from_index(b)."""
    if spec.n == 1:
        return (a - b) % spec.p
    q, _, sub = spec.digit_tables
    return chunkwise(q, sub, a, b)


def index_neg(spec: FieldSpec, a: int) -> int:
    """Index of -from_index(a)."""
    return index_sub(spec, 0, a)
