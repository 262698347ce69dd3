"""The dense reference round: the round of mubqkd.protocol.run_round played on
dense state vectors.  It takes any rng with random() and integers(high), such
as numpy's Generator or a Draws, both of which read the same words.  It draws
the variates run_round draws from its Draws, in the same order, and writes
the same records, except at a variate within rounding of an outcome
boundary: Draws.outcome maps a word to its outcome exactly, while
born_sample searches a float cumsum.  The differential tests' seeds never
draw such a variate.  The dense round is the physics reference that the
label round is tested against.  Pytest does not collect this module;
test_engine and test_protocol import it.
"""

import numpy as np

from mubqkd.entangle import entangled_mub, measure_first, shift_remote
from mubqkd.gf import FieldSpec, index_add, index_sub
from mubqkd.hilbert import born_sample, inner, swap_test
from mubqkd.mub import basis_matrix
from mubqkd.protocol import RoundRecord, SessionConfig

ORACLE_MATCH_TOL = 1e-9


def alice_encode(spec: FieldSpec, bit: int, c1: int, c1p: int, delta: int, rng) -> int:
    """Announcement index: the matching shift c1p - c1 + delta for bit 1,
    uniformly any of the d-1 other field values for bit 0."""
    match = index_add(spec, index_sub(spec, c1p, c1), delta)
    if bit == 1:
        return match
    k = int(rng.integers(spec.d - 1))
    return k + 1 if k >= match else k


def bob_decode(spec: FieldSpec, state2: np.ndarray, state2p: np.ndarray, lam: int,
               mode: str, reps: int, rng) -> int:
    """Shift the second state by lam and compare with the first.

    oracle mode decides from the exact overlap magnitude; swap mode runs
    reps independent swap tests (fresh copies each) and decodes 0 on any
    antisymmetric outcome.
    """
    shifted = shift_remote(state2p, spec.from_index(lam))
    if mode == "oracle":
        return 1 if abs(inner(state2, shifted)) > 1.0 - ORACLE_MATCH_TOL else 0
    for _ in range(reps):
        if swap_test(state2, shifted, rng) == "antisymmetric":
            return 0
    return 1


def run_round_dense(config: SessionConfig, round_index: int, rng) -> RoundRecord:
    """One round on dense state vectors: the physics reference for run_round."""
    spec = config.field
    d = spec.d
    if config.pair_label is None:
        b = int(rng.integers(d))
        c = int(rng.integers(d))
    else:
        b, c = config.pair_label
    delta = config.delta_offset
    pair1 = entangled_mub(spec, b, c)
    pair2 = entangled_mub(spec, b, index_sub(spec, c, delta))

    # one quadratic basis for both of Alice's measurements
    b1 = int(rng.integers(d))
    c1, bob1 = measure_first(spec, pair1, b1, rng)
    c1p, bob2 = measure_first(spec, pair2, b1, rng)

    eve = config.eve
    eve_basis = eve_outcome = None
    if eve.kind == "intercept_resend":
        if eve.picker == "fixed":
            eve_basis = eve.fixed_basis
        else:
            eve_basis = int(rng.integers(d if eve.picker == "uniform_quadratic" else d + 1))
        eve_mat = basis_matrix(spec, eve_basis)
        k1, bob1 = born_sample(bob1, eve_mat, rng)
        k2, bob2 = born_sample(bob2, eve_mat, rng)
        eve_outcome = [k1, k2]

    # duty assigned only after transit
    if rng.random() < config.check_fraction:
        b2 = index_sub(spec, b, b1)
        expected = index_sub(spec, c, c1)
        measured, _ = born_sample(bob1, basis_matrix(spec, b2), rng)
        return RoundRecord(round_index, "check", None, None, b1, c1, c1p, eve_basis,
                           eve_outcome, None, b2, expected, measured, measured == expected)
    bit = int(rng.integers(2))
    lam = alice_encode(spec, bit, c1, c1p, delta, rng)
    decoded = bob_decode(spec, bob1, bob2, lam, config.mode, config.swap_repetitions, rng)
    return RoundRecord(round_index, "message", bit, lam, b1, c1, c1p, eve_basis, eve_outcome,
                       decoded, None, None, None, None)
