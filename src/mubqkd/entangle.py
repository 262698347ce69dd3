"""Two-particle entangled states carrying MUB labels.

An entangled pair (b, c), b a quadratic basis index and c a state index,
lives on the diagonal n1 == n2 of C^d x C^d and carries the same quadratic
phases as the single-particle state (b, c).  Measuring the first particle
in basis b1 collapses the second to the state labeled (b - b1, c - c1),
which is what the protocol exploits.
"""

from __future__ import annotations

import numpy as np

from .gf import FieldSpec, GfElem, index_add
from .hilbert import apply_diag_phase, sample_index
from .mub import basis_matrix, exponents, mub_state


def _pair_state(spec: FieldSpec, state) -> np.ndarray:
    """state as a complex d^2-vector, or ValueError naming its shape."""
    psi = np.asarray(state, dtype=complex)
    if psi.shape != (spec.d ** 2,):
        raise ValueError(f"state has shape {psi.shape}, expected ({spec.d ** 2},)")
    return psi


def entangled_mub(spec: FieldSpec, b: int, c: int) -> np.ndarray:
    """Two-particle state of C^d x C^d, supported on the diagonal n1 == n2,
    with the amplitudes of the (b, c) MUB state."""
    b = spec.check_index(b, "pair basis index")
    d = spec.d
    single = mub_state(spec, b, c)
    state = np.zeros(d * d, dtype=complex)
    state[np.arange(d) * (d + 1)] = single
    return state


def measure_first(spec: FieldSpec, state: np.ndarray, b1: int, rng) -> tuple[int, np.ndarray]:
    """Measure the first particle of a d^2-dimensional state in basis b1.

    Samples the outcome c1 from the projection norms (uniform 1/d for the
    quadratic bases on a pair) and returns (c1, normalized remote state).
    For the pair (b, c) and a quadratic b1 the remote state is the MUB
    state labeled (b - b1, c - c1).
    """
    d = spec.d
    mat = basis_matrix(spec, b1)
    proj = mat.conj() @ _pair_state(spec, state).reshape(d, d)   # row k: branch of outcome k
    k = sample_index(np.einsum("ij,ij->i", proj, proj.conj()).real, rng)
    w = proj[k]
    return k, w / np.linalg.norm(w)


def shift_remote(state: np.ndarray, lam: GfElem) -> np.ndarray:
    """Diagonal phase advancing the state label from (b, c) to (b, c + lam).

    Exact for every quadratic basis b, since the phase exponents add in
    the field.
    """
    spec = lam.field
    expo = exponents(spec, 0, lam.index)        # tr(lam * n) for each n
    phases = np.exp(2j * np.pi * expo / spec.p)
    return apply_diag_phase(state, phases)


def joint_c_measure(spec: FieldSpec, state, b: int, rng) -> tuple[int | None, np.ndarray]:
    """Projective measurement in {pair states of basis b} plus their complement.

    Nondestructive on pair eigenstates: feeding the post-state back in
    reproduces the same outcome and post-state.  Returns (c, post_state);
    c is None for the complement outcome, which only occurs for states
    with off-diagonal support.  b must be a pair basis index in [0, d).
    """
    b = spec.check_index(b, "pair basis index")
    d = spec.d
    psi = _pair_state(spec, state)
    rows = basis_matrix(spec, b)
    diag = np.arange(d) * (d + 1)
    amps = rows.conj() @ psi[diag]
    probs = np.abs(amps) ** 2
    total = float(np.vdot(psi, psi).real)
    p_comp = max(total - float(probs.sum()), 0.0)
    k = sample_index(np.append(probs, p_comp), rng)
    if k < d:
        post = np.zeros(d * d, dtype=complex)
        post[diag] = rows[k] * (amps[k] / abs(amps[k]))
        return k, post
    resid = psi.copy()
    resid[diag] -= amps @ rows
    return None, resid / np.linalg.norm(resid)


def exponent_additivity_check(spec: FieldSpec, b1: int, c1: int, b2: int, c2: int) -> bool:
    """Phase factors of (b1+b2, c1+c2) equal the product of the two factors
    at every position n.  b1 and b2 must be pair basis indices in [0, d)."""
    b1 = spec.check_index(b1, "pair basis index")
    b2 = spec.check_index(b2, "pair basis index")
    root_d = np.sqrt(spec.d)
    f1 = mub_state(spec, b1, c1) * root_d
    f2 = mub_state(spec, b2, c2) * root_d
    fsum = mub_state(spec, index_add(spec, b1, b2), index_add(spec, c1, c2)) * root_d
    return float(np.max(np.abs(fsum - f1 * f2))) < 1e-12
