"""The d+1 mutually unbiased bases of C^d for d = p^n, p an odd prime.

For each field element b there is a quadratic-phase basis whose state c
carries amplitude omega^tr(b*n^2 + c*n) / sqrt(d) at position index(n),
with omega = exp(2*pi*i/p); the trace is additive, so the exponent is
tr(b*n^2) + tr(c*n) mod p, both read off the field's trace form.  The
computational basis completes the set to the maximal count of d+1.  Basis
matrices are cached per (field, basis id) because the dense reference
round and verify request them in hot loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gf import FieldSpec, GfElem, index_arrays


@dataclass(frozen=True)
class BasisId:
    """One of the d quadratic-phase bases (b) or the computational basis (None)."""

    b: GfElem | None = None

    @property
    def is_computational(self) -> bool:
        return self.b is None


COMPUTATIONAL = BasisId(None)


@dataclass(frozen=True)
class MubLabel:
    """(basis, state) coordinates; c doubles as the position label in the
    computational basis."""

    basis: BasisId
    c: GfElem


def all_bases(spec: FieldSpec) -> list[BasisId]:
    """The d+1 basis ids in canonical order: quadratic by index, then computational."""
    return [BasisId(b) for b in spec.elements()] + [COMPUTATIONAL]


def basis_index(spec: FieldSpec, basis: BasisId) -> int:
    """Canonical index: 0..d-1 for quadratic bases, d for the computational one."""
    return spec.d if basis.is_computational else basis.b.index


def basis_from_index(spec: FieldSpec, k: int) -> BasisId:
    if k == spec.d:
        return COMPUTATIONAL
    return BasisId(spec.from_index(k))


def _check_basis(spec: FieldSpec, basis: BasisId):
    if basis.b is not None and basis.b.field != spec:
        raise ValueError("basis id belongs to a different field spec")


@lru_cache(maxsize=None)
def basis_matrix(spec: FieldSpec, basis: BasisId) -> np.ndarray:
    """Read-only (d, d) matrix whose row j is the basis state with c = from_index(j)."""
    _check_basis(spec, basis)
    d = spec.d
    if basis.is_computational:
        mat = np.eye(d, dtype=complex)
    else:
        digits, form, squares = index_arrays(spec)
        tr_bn2 = digits[basis.b.index] @ form @ digits[squares].T     # tr(b * n^2) for each n
        tr_cn = digits @ form @ digits.T        # row c, column n: tr(c * n)
        expo = (tr_cn + tr_bn2) % spec.p
        mat = np.exp(2j * np.pi * expo / spec.p) / np.sqrt(d)
    mat.setflags(write=False)
    return mat


def mub_state(spec: FieldSpec, label: MubLabel) -> np.ndarray:
    """Normalized amplitude vector for one MUB label."""
    if label.c.field != spec:
        raise ValueError("state label belongs to a different field spec")
    return basis_matrix(spec, label.basis)[label.c.index].copy()


def mub_basis(spec: FieldSpec, basis: BasisId) -> list[np.ndarray]:
    """The d states of one basis in canonical element order."""
    return [row.copy() for row in basis_matrix(spec, basis)]


@dataclass(frozen=True)
class UnbiasednessReport:
    d: int
    basis_count: int
    max_cross_deviation: float          # of |<u1|u2>| from 1/sqrt(d), cross-basis
    max_orthonormality_deviation: float  # of each Gram matrix from the identity
    max_completeness_deviation: float    # of each resolution of identity

    def ok(self, cross_tol: float = 1e-9, ortho_tol: float = 1e-12) -> bool:
        return (self.max_cross_deviation < cross_tol
                and self.max_orthonormality_deviation < ortho_tol
                and self.max_completeness_deviation < ortho_tol)


def unbiasedness_report(spec: FieldSpec) -> UnbiasednessReport:
    """Exhaustive overlap audit over all (d+1)d/2 basis pairs and state pairs."""
    mats = [basis_matrix(spec, b) for b in all_bases(spec)]
    d = spec.d
    eye = np.eye(d)
    target = 1.0 / np.sqrt(d)
    ortho = max(float(np.max(np.abs(m.conj() @ m.T - eye))) for m in mats)
    compl = max(float(np.max(np.abs(m.T @ m.conj() - eye))) for m in mats)
    cross = 0.0
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            overlap = np.abs(mats[i].conj() @ mats[j].T)
            cross = max(cross, float(np.max(np.abs(overlap - target))))
    return UnbiasednessReport(d, len(mats), cross, ortho, compl)
