"""Symbolic (b, c) label algebra for the continuous-variable picture, and
discrete Wigner tables for the finite one.

Continuous states are never stored as amplitude arrays (they are not
normalizable); the CvLabel algebra is the complete model, and each label
corresponds to one straight line in phase space.  run_cv_round plays a
message round of the protocol on these labels.

Kernel convention at odd prime d, with h the inverse of 2 mod d and
omega = exp(2*pi*i/d):

    W(q, p) = (1/d) * sum_u psi[q + h*u] * conj(psi[q - h*u]) * omega^(-p*u)

The sum over u is numpy's FFT (over u and v for two particles).

Under this convention a quadratic-phase basis state (b, c) is supported
on the line p = 2*b*q + c; the factor 2 appears because the state phase
carries b*n^2 rather than (b/2)*n^2.  The two-particle kernel puts the
pair state (b, c) on {q1 = q2, p1 + p2 = 2*b*q1 + c}, with a plus sign
on c (established numerically, not assumed).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .gf import is_prime
from .hilbert import as_state, is_normalized

EQ_TOL = 1e-12
SUPPORT_TOL = 1e-10


# ---------------------------------------------------------------------------
# Continuous labels and lines
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CvLabel:
    """Real basis/state coordinates, and the phase-space line p = b*q + c;
    b = +inf marks the computational family, the vertical line q = c.  A NaN
    coordinate is a ValueError."""

    b: float
    c: float

    def __post_init__(self):
        if math.isnan(self.b) or math.isnan(self.c):
            raise ValueError(f"label coordinates must not be NaN, got ({self.b}, {self.c})")


def cv_split(label: CvLabel, b1: float, c1: float) -> CvLabel:
    """Label of the remote particle after measuring (b1, c1) on the first."""
    if not math.isfinite(label.b):
        raise ValueError("cannot split the computational-family label")
    return CvLabel(label.b - b1, label.c - c1)


def cv_shift(label: CvLabel, lam: float) -> CvLabel:
    return CvLabel(label.b, label.c + lam)


def _parallel(l1: CvLabel, l2: CvLabel) -> bool:
    """One slope: both lines vertical, or their slopes b within EQ_TOL."""
    return (math.isinf(l1.b) and math.isinf(l2.b)) or abs(l1.b - l2.b) < EQ_TOL


def cv_equal_delta(l1: CvLabel, l2: CvLabel) -> bool:
    """Same-basis delta correlation: true iff the intercepts agree within EQ_TOL."""
    if not _parallel(l1, l2):
        raise ValueError("labels compare within one basis only")
    return abs(l1.c - l2.c) < EQ_TOL


@dataclass(frozen=True)
class LineIntersection:
    kind: str                                # "point" | "none" | "degenerate"
    point: tuple[float, float] | None = None


def cv_intersect(l1: CvLabel, l2: CvLabel) -> LineIntersection:
    """Lines of distinct slopes b meet once; equal slopes never, unless the
    lines coincide."""
    if _parallel(l1, l2):
        return LineIntersection("degenerate" if abs(l1.c - l2.c) < EQ_TOL else "none")
    if math.isinf(l1.b) or math.isinf(l2.b):
        vert, line = (l1, l2) if math.isinf(l1.b) else (l2, l1)
        return LineIntersection("point", (vert.c, line.b * vert.c + line.c))
    q = (l2.c - l1.c) / (l1.b - l2.b)
    return LineIntersection("point", (q, l1.b * q + l1.c))


def run_cv_round(bit: int, rng, b: float | None = None, c: float | None = None,
                 delta: float = 0.0) -> dict:
    """Label-level continuous-variable analog of one message round.

    Measurement outcomes are drawn uniformly from [-10, 10) (a uniform
    distribution over all reals is improper) as numpy's uniform(-10, 10)
    draws them from rng.random(), so rng may be a Generator or a Draws.  The
    label algebra reproduces the same-basis delta correlation: the shifted
    second label matches the first exactly when lambda equals c1' - c1 + delta.
    bit must be an integer, 0 or 1, taken through operator.index.
    """
    bit = operator.index(bit)
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit!r}")
    def uniform() -> float:
        return -10.0 + 20.0 * rng.random()
    if b is None:
        b = uniform()
    if c is None:
        c = uniform()
    b1 = uniform()
    c1 = uniform()
    c1p = uniform()
    bob1 = cv_split(CvLabel(b, c), b1, c1)
    bob2 = cv_split(CvLabel(b, c - delta), b1, c1p)
    match = c1p - c1 + delta
    if bit == 1:
        lam = match
    else:
        off = 0.0
        while abs(off) < 1e-6:
            off = uniform()
        lam = match + off
    shifted = cv_shift(bob2, lam)
    decoded = 1 if cv_equal_delta(bob1, shifted) else 0
    return {
        "bit_sent": bit,
        "lambda": lam,
        "decoded": decoded,
        "alice": {"b1": b1, "c1": c1, "c1p": c1p},
        "bob": {"b2": bob1.b, "c2": bob1.c, "c2p_shifted": shifted.c},
    }


# ---------------------------------------------------------------------------
# Discrete Wigner tables
# ---------------------------------------------------------------------------

def _kernel(psi: np.ndarray, d: int):
    """(plus, minus) of the Wigner kernel at dimension d: plus[q, u] and
    minus[q, u] are q + h*u and q - h*u mod d.  ValueError unless d is an
    odd prime and psi normalized."""
    if d % 2 == 0 or not is_prime(d):
        raise ValueError(f"discrete Wigner needs an odd prime dimension, got {d}")
    if not is_normalized(psi):
        raise ValueError("state must be normalized")
    h = (d + 1) // 2
    idx = np.arange(d)
    return (idx[:, None] + h * idx[None, :]) % d, (idx[:, None] - h * idx[None, :]) % d


def dwigner1(state) -> np.ndarray:
    """Read-only (d, d) real Wigner table, indexed [q, p], of a normalized
    single-particle state; the sum over u is numpy's FFT of each row q."""
    psi = as_state(state)
    d = psi.shape[0]
    plus, minus = _kernel(psi, d)
    table = np.fft.fft(psi[plus] * psi[minus].conj()).real / d
    table.setflags(write=False)
    return table


def dwigner2_support(state) -> dict[tuple[int, int, int, int], float]:
    """Points of the Wigner table of a normalized d^2-dimensional state above
    SUPPORT_TOL in absolute value, keyed (q1, p1, q2, p2).

    Keys come out in lexicographic order.  The table is built one q1 slice
    at a time: a 2-d FFT over the shifts u and v of auto[u, q2, v] =
    psi(q1+hu, q2+hv) * conj(psi(q1-hu, q2-hv)), O(d^4 log d) time and
    O(d^3) memory in all.
    """
    psi = as_state(state)
    d = math.isqrt(psi.shape[0])
    if d * d != psi.shape[0]:
        raise ValueError("two-particle state must have a square dimension")
    plus, minus = _kernel(psi, d)
    mat = psi.reshape(d, d)
    support = {}
    for q1 in range(d):
        auto = mat[plus[q1]][:, plus] * mat[minus[q1]][:, minus].conj()
        table = np.fft.fft2(auto, axes=(0, 2)).real / (d * d)      # [p1, q2, p2]
        for p1, q2, p2 in np.argwhere(np.abs(table) > SUPPORT_TOL).tolist():
            support[q1, p1, q2, p2] = float(table[p1, q2, p2])
    return support
