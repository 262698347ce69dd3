"""The d+1 mutually unbiased bases of C^d for d = p^n, p an odd prime.

A basis is named by its canonical index.  Each b in [0, d) is the
quadratic-phase basis whose state c carries amplitude
omega^tr(b*n^2 + c*n) / sqrt(d) at position n, with omega = exp(2*pi*i/p)
and b, c, n element indices; the trace is additive, so the exponent is
tr(b*n^2) + tr(c*n) mod p, a quadratic and a linear form in the digits of
n read off the field's trace tensor; exponents is that one integer rule.  Index d
is the computational basis, whose state c sits at position c; it completes
the set to the maximal count of d+1.  A state is built alone, in O(d * n^2).
Basis matrices are cached per (field, basis index) for the callers that
measure in whole bases again and again: joint_c_measure, the dense reference
round (through measure_first) and the unbiasedness audit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gf import FieldSpec, index_arrays
from .hilbert import basis_state


def exponents(spec: FieldSpec, basis: int, c) -> np.ndarray:
    """tr(b*n^2 + c*n) mod p for b = basis at each position n: a d-vector
    for an index c, one row per entry of an index array c.

    basis must be a quadratic basis index in [0, d), and c must lie in [0, d)."""
    basis = spec.check_index(basis, "quadratic basis index")
    c = np.asarray(c)
    bad = c[(c < 0) | (c >= spec.d)]
    if bad.size:
        raise ValueError(f"state index {bad[0]} outside [0, {spec.d})")
    digits, traces = index_arrays(spec)
    expo = digits[c] @ traces[0] @ digits.T      # row c, column n: tr(c * n)
    if basis:                                    # tr(b * n^2), zero at b = 0
        expo = expo + (digits @ (digits[basis] @ traces) * digits).sum(axis=1)
    return expo % spec.p


def _quadratic_rows(spec: FieldSpec, basis: int, c) -> np.ndarray:
    """Row c of quadratic basis `basis`, or one row per entry of an index array c."""
    # the p phases, each computed as the whole row would compute it
    phases = np.exp(2j * np.pi * np.arange(spec.p) / spec.p) / np.sqrt(spec.d)
    return phases[exponents(spec, basis, c)]


@lru_cache(maxsize=None)
def basis_matrix(spec: FieldSpec, basis: int) -> np.ndarray:
    """Read-only (d, d) matrix whose row c is the state (basis, c)."""
    d = spec.d
    spec.check_index(basis, "basis index", d + 1)
    mat = np.eye(d, dtype=complex) if basis == d else _quadratic_rows(spec, basis, np.arange(d))
    mat.setflags(write=False)
    return mat


def mub_state(spec: FieldSpec, basis: int, c: int) -> np.ndarray:
    """Normalized amplitude vector of the state labeled (basis, c), built alone."""
    spec.check_index(basis, "basis index", spec.d + 1)
    spec.check_index(c, "state index")
    return basis_state(spec.d, c) if basis == spec.d else _quadratic_rows(spec, basis, c)


@dataclass(frozen=True)
class UnbiasednessReport:
    d: int
    basis_count: int
    max_cross_deviation: float          # of |<u1|u2>| from 1/sqrt(d), cross-basis
    max_orthonormality_deviation: float  # of each Gram matrix from the identity
    max_completeness_deviation: float    # of each resolution of identity

    def ok(self) -> bool:
        return (self.max_cross_deviation < 1e-9
                and self.max_orthonormality_deviation < 1e-12
                and self.max_completeness_deviation < 1e-12)


def unbiasedness_report(spec: FieldSpec) -> UnbiasednessReport:
    """Exhaustive overlap audit over all (d+1)d/2 basis pairs and state pairs."""
    mats = [basis_matrix(spec, b) for b in range(spec.d + 1)]
    d = spec.d
    eye = np.eye(d)
    target = 1.0 / np.sqrt(d)
    ortho = max(float(np.max(np.abs(m.conj() @ m.T - eye))) for m in mats)
    compl = max(float(np.max(np.abs(m.T @ m.conj() - eye))) for m in mats)
    cross = 0.0
    overlap = np.empty((d, d), dtype=complex)   # reused: a fresh d x d per pair costs page faults
    for i in range(len(mats)):
        bra = mats[i].conj()
        for j in range(i + 1, len(mats)):
            np.matmul(bra, mats[j].T, out=overlap)
            cross = max(cross, float(np.max(np.abs(np.abs(overlap) - target))))
    return UnbiasednessReport(d, len(mats), cross, ortho, compl)
