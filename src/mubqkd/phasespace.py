"""Symbolic (b, c) label algebra for the continuous-variable picture, and
discrete Wigner tables for the finite one.

Continuous states are never stored as amplitude arrays (they are not
normalizable); the CvLabel algebra is the complete model, and each label
corresponds to one straight line in phase space.

Kernel convention at odd prime d, with h the inverse of 2 mod d and
omega = exp(2*pi*i/d):

    W(q, p) = (1/d) * sum_u psi[q + h*u] * conj(psi[q - h*u]) * omega^(-p*u)

Under this convention a quadratic-phase basis state (b, c) is supported
on the line p = 2*b*q + c; the factor 2 appears because the state phase
carries b*n^2 rather than (b/2)*n^2.  The two-particle kernel puts the
pair state (b, c) on {q1 = q2, p1 + p2 = 2*b*q1 + c}, with a plus sign
on c (established numerically, not assumed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gf import is_prime
from .hilbert import as_state

EQ_TOL = 1e-12
SUPPORT_TOL = 1e-10


# ---------------------------------------------------------------------------
# Continuous labels and lines
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CvLabel:
    """Real basis/state coordinates; b = +inf marks the computational family."""

    b: float
    c: float


@dataclass(frozen=True)
class CvLine:
    """Line p = slope*q + intercept; slope = +inf is the vertical line q = intercept."""

    slope: float
    intercept: float


def line_of_label(label: CvLabel) -> CvLine:
    return CvLine(label.b, label.c)


def label_of_line(line: CvLine) -> CvLabel:
    return CvLabel(line.slope, line.intercept)


def cv_split(label: CvLabel, b1: float, c1: float) -> CvLabel:
    """Label of the remote particle after measuring (b1, c1) on the first."""
    if not math.isfinite(label.b):
        raise ValueError("cannot split the computational-family label")
    return CvLabel(label.b - b1, label.c - c1)


def cv_shift(label: CvLabel, lam: float) -> CvLabel:
    return CvLabel(label.b, label.c + lam)


def cv_equal_delta(l1: CvLabel, l2: CvLabel, tol: float = EQ_TOL) -> bool:
    """Same-basis delta correlation: true iff the intercepts agree within tol."""
    same_b = (math.isinf(l1.b) and math.isinf(l2.b)) or abs(l1.b - l2.b) < tol
    if not same_b:
        raise ValueError("labels compare within one basis only")
    return abs(l1.c - l2.c) < tol


@dataclass(frozen=True)
class LineIntersection:
    kind: str                                # "point" | "none" | "degenerate"
    point: tuple[float, float] | None = None


def cv_intersect(l1: CvLine, l2: CvLine, tol: float = EQ_TOL) -> LineIntersection:
    """Distinct slopes meet once; equal slopes never, unless the lines coincide."""
    v1, v2 = not math.isfinite(l1.slope), not math.isfinite(l2.slope)
    if v1 and v2:
        if abs(l1.intercept - l2.intercept) < tol:
            return LineIntersection("degenerate")
        return LineIntersection("none")
    if v1 or v2:
        vert, line = (l1, l2) if v1 else (l2, l1)
        q = vert.intercept
        return LineIntersection("point", (q, line.slope * q + line.intercept))
    if abs(l1.slope - l2.slope) < tol:
        if abs(l1.intercept - l2.intercept) < tol:
            return LineIntersection("degenerate")
        return LineIntersection("none")
    q = (l2.intercept - l1.intercept) / (l1.slope - l2.slope)
    return LineIntersection("point", (q, l1.slope * q + l1.intercept))


# ---------------------------------------------------------------------------
# Discrete Wigner tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiscreteWigner:
    d: int
    table: np.ndarray   # (d, d) real, indexed [q, p]


def _kernel(psi: np.ndarray, d: int):
    """(plus, minus, fourier) of the Wigner kernel at dimension d: plus[q, u]
    and minus[q, u] are q + h*u and q - h*u mod d, fourier[u, p] is
    omega^(-p*u).  ValueError unless d is an odd prime and psi normalized."""
    if d % 2 == 0 or not is_prime(d):
        raise ValueError(f"discrete Wigner needs an odd prime dimension, got {d}")
    if abs(float(np.vdot(psi, psi).real) - 1.0) > 1e-12:
        raise ValueError("state must be normalized")
    h = (d + 1) // 2
    idx = np.arange(d)
    plus = (idx[:, None] + h * idx[None, :]) % d
    minus = (idx[:, None] - h * idx[None, :]) % d
    return plus, minus, np.exp(-2j * np.pi * np.outer(idx, idx) / d)


def dwigner1(state) -> DiscreteWigner:
    """Discrete Wigner table of a normalized single-particle state."""
    psi = as_state(state)
    d = psi.shape[0]
    plus, minus, fourier = _kernel(psi, d)
    table = ((psi[plus] * psi[minus].conj()) @ fourier).real / d
    table.setflags(write=False)
    return DiscreteWigner(d, table)


def dwigner2_support(pair, tol: float = SUPPORT_TOL) -> dict[tuple[int, int, int, int], float]:
    """Nonzero points of the two-particle Wigner table, keyed (q1, p1, q2, p2).

    Accepts an EntangledPair or a raw d^2-dimensional vector; keys come
    out in lexicographic order.
    """
    psi = np.asarray(getattr(pair, "state", pair), dtype=complex)
    d = math.isqrt(psi.shape[0])
    if d * d != psi.shape[0]:
        raise ValueError("two-particle state must have a square dimension")
    plus, minus, fourier = _kernel(psi, d)
    mat = psi.reshape(d, d)
    auto = (mat[plus[:, None, :, None], plus[None, :, None, :]]
            * mat[minus[:, None, :, None], minus[None, :, None, :]].conj())
    table = np.einsum("abuv,ux,vy->axby", auto, fourier, fourier).real / (d * d)
    return {tuple(k): float(table[tuple(k)]) for k in np.argwhere(np.abs(table) > tol).tolist()}
