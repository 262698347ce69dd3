"""Dense complex state vectors and the quantum operations the simulation needs.

States are plain 1-d complex numpy arrays.  All operations are pure and
return fresh arrays; sampling draws from an explicitly passed rng, anything
with a random() method returning a float in [0, 1) (a numpy Generator, or
the sessions' stream.Draws), so every run is reproducible from its seed.
"""

from __future__ import annotations

import operator

import numpy as np

NORM_TOL = 1e-12
BASIS_TOL = 1e-10


def as_state(x) -> np.ndarray:
    arr = np.asarray(x, dtype=complex)
    if arr.ndim != 1:
        raise ValueError(f"state must be a 1-d amplitude vector, got shape {arr.shape}")
    return arr


def basis_state(dim: int, k: int) -> np.ndarray:
    """Unit vector e_k of C^dim; k goes through operator.index, so True acts
    as 1 and a float is a TypeError."""
    k = operator.index(k)
    if not 0 <= k < dim:
        raise ValueError(f"state index {k} outside [0, {dim})")
    e = np.zeros(dim, dtype=complex)
    e[k] = 1.0
    return e


def is_normalized(u) -> bool:
    u = as_state(u)
    return abs(float(np.vdot(u, u).real) - 1.0) < NORM_TOL


def inner(u, v) -> complex:
    """Hermitian inner product, conjugate-linear in the first argument."""
    u, v = as_state(u), as_state(v)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape[0]} vs {v.shape[0]}")
    return complex(np.vdot(u, v))


def tensor(u, v) -> np.ndarray:
    """Product state with index convention idx = i * dim(v) + j."""
    return np.kron(as_state(u), as_state(v))


def sample_index(weights: np.ndarray, rng) -> int:
    """Draw an index with probability proportional to the non-negative
    weights, using one uniform variate.

    ValueError if a weight is negative, or if the weights sum to zero or to
    a non-finite value: the Born weights of a zero or non-finite state."""
    if (weights < 0).any():
        raise ValueError(f"Born weights must be non-negative, got {weights[weights < 0][0]}")
    total = weights.sum()
    if not (np.isfinite(total) and total > 0):
        raise ValueError(f"Born weights sum to {total}; the state has no finite nonzero norm")
    cum = np.cumsum(weights / total)
    k = int(np.searchsorted(cum, rng.random(), side="right"))
    return min(k, len(weights) - 1)


def born_sample(state, basis, rng) -> tuple[int, np.ndarray]:
    """Projective measurement of state in an orthonormal basis.

    basis may be a sequence of vectors or a (d, d) array whose rows are
    the basis states; it must be complete for the state's dimension.
    Returns (outcome index, collapsed state).
    """
    state = as_state(state)
    mat = np.asarray(basis, dtype=complex)
    d = state.shape[0]
    if mat.shape != (d, d):
        raise ValueError(f"basis must be d={d} orthonormal vectors of dimension {d}")
    gram = mat.conj() @ mat.T
    if not float(np.max(np.abs(gram - np.eye(d)))) <= BASIS_TOL:   # NaN fails too
        raise ValueError("basis is not orthonormal")
    amps = mat.conj() @ state
    k = sample_index(np.abs(amps) ** 2, rng)
    return k, mat[k].copy()


def project_first(pair, bra) -> np.ndarray:
    """Contract the first tensor factor of a two-particle state with <bra|.

    Returns the unnormalized second-particle vector; its squared norm is
    the Born probability of the bra outcome.
    """
    pair, bra = as_state(pair), as_state(bra)
    d = bra.shape[0]
    if pair.shape[0] != d * d:
        raise ValueError(f"pair has dimension {pair.shape[0]}, expected {d * d}")
    return bra.conj() @ pair.reshape(d, d)


def apply_diag_phase(state, phases) -> np.ndarray:
    """Multiply amplitudes by unit-modulus phases; norm is preserved."""
    state = as_state(state)
    phases = np.asarray(phases, dtype=complex)
    if phases.shape != state.shape:
        raise ValueError("phase vector must match the state dimension")
    if not float(np.max(np.abs(np.abs(phases) - 1.0))) <= NORM_TOL:   # NaN fails too
        raise ValueError("phases must be unimodular")
    return phases * state


def swap_test(u, v, rng) -> str:
    """Compare two normalized states.

    Returns "antisymmetric" with probability (1 - |<u|v>|^2) / 2, else
    "symmetric"; identical states never come out antisymmetric.
    """
    u, v = as_state(u), as_state(v)
    if u.shape != v.shape:
        raise ValueError("swap test needs equal dimensions")
    if not (is_normalized(u) and is_normalized(v)):
        raise ValueError("swap test needs normalized inputs")
    p_anti = max(0.0, (1.0 - abs(inner(u, v)) ** 2) / 2.0)
    return "antisymmetric" if rng.random() < p_anti else "symmetric"
