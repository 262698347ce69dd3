"""The host's current speed, from fixed loops that do not use `mubqkd`.

The shared host switches between speeds about 1.7x apart, for periods from
seconds to hours.  A process's CPU time slows as much as its wall time, so
CPU time does not hide the switch.  Every time the benchmark reports is
therefore scaled to reference seconds: the measured wall time x
REFERENCE_S[kind] / the time of `loop(kind)` measured in the same process
next to it.  Each workload names the kind of loop that matches the work
that dominates it:

- "rounds": pure-Python work (integer arithmetic, dicts, tuples, calls) and
  numpy calls on 7-element vectors, the work of a small-d session round;
- "dense": complex 243 x 243 products and elementwise passes over such a
  matrix, the work of a d=243 session round.

The field set-up of every workload builds its tables in pure Python, so it
is scaled by the SETUP kind.

A faster or slower `mubqkd` does not change the loops, so a change to the
program still shows in full.  The raw wall times are kept in each run's
record.
"""

from __future__ import annotations

import gc
from time import perf_counter

import numpy as np

# loop(kind)'s time on the reference machine (2 shared cores of an Intel
# Xeon, in its faster state).  A reference second is a wall second there.
REFERENCE_S = {"rounds": 0.05, "dense": 0.1}
SETUP = "rounds"

PY_STEPS = 120_000
SMALL_NP_STEPS = 6_000
DENSE_D = 243
MATMUL_STEPS = 40
ELEMENTWISE_STEPS = 100


def _python_work() -> int:
    table: dict[int, int] = {}
    acc = 0
    for i in range(PY_STEPS):
        key = (i, i * 7 % 13)
        table[key[1]] = table.get(key[1], 0) + key[0]
        acc = (acc * 31 + i) % 1_000_003
    return acc + len(table)


def _small_numpy_work() -> float:
    v = np.full(7, 7 ** -0.5, dtype=complex)
    m = np.eye(7, dtype=complex)
    s = 1.0
    for _ in range(SMALL_NP_STEPS):
        v = m @ v
        s = np.vdot(v, v).real
        v = v / np.sqrt(s)
    return float(s)


def _dft(d: int) -> np.ndarray:
    k = np.arange(d)
    return np.exp(2j * np.pi * np.outer(k, k) / d) / np.sqrt(d)


def _dense_work(mat: np.ndarray) -> float:
    eye = np.eye(mat.shape[0])
    for _ in range(MATMUL_STEPS):
        gram = mat.conj() @ mat.T
    worst = 0.0
    for _ in range(ELEMENTWISE_STEPS):
        worst = max(worst, float(np.max(np.abs(gram - eye))))
    return worst


def loop(kind: str) -> float:
    """Wall seconds of the fixed calibration work of this kind, with the
    collector off so that the heap the program left behind does not change
    it."""
    if kind not in REFERENCE_S:
        raise ValueError(f"unknown calibration {kind!r}")
    mat = _dft(DENSE_D) if kind == "dense" else None
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        if mat is not None:
            _dense_work(mat)
        else:
            _python_work()
            _small_numpy_work()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()
