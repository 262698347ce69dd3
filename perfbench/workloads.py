"""The benchmark's workloads: which `mubqkd` command each one runs.

Each operation of a workload is one `mubqkd.cli.main(argv)` call in a fresh
interpreter, because the field tables and the basis-matrix cache are
process-global `lru_cache`s that would otherwise carry over between calls.
The smoke sizes keep every workload's shape at a tiny dimension, for the
benchmark's own tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# CLI seed of the first operation of every run; its transcript hash is pinned
# in expected.json, so a change to the RNG stream shows in every run.
GOLDEN_CLI_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    p: int
    n: int
    command: tuple[str, ...]   # CLI words before the per-operation flags
    rounds: int                # session rounds per operation
    expected_rc: int
    min_ops: int               # enough operations for p99 to have 10 samples beyond it
    calibration: str           # the calibrate.loop kind that matches its work

    @property
    def d(self) -> int:
        return self.p ** self.n

    def argv(self, cli_seed: int, transcript: str, stats: str) -> list[str]:
        return list(self.command) + ["--seed", str(cli_seed), "--rounds", str(self.rounds),
                                     "--out", transcript, "--stats", stats]


def _session_d7(rounds: int) -> Workload:
    return Workload(
        "session-d7-swap", 7, 1,
        ("session", "--p", "7", "--mode", "swap", "--reps", "4", "--eve", "none",
         "--check-frac", "0.2"),
        rounds, expected_rc=0, min_ops=1, calibration="rounds")


def _session_eve(p: int, n: int, rounds: int, min_ops: int) -> Workload:
    return Workload(
        "session-d243-eve", p, n,
        ("session", "--p", str(p), "--n", str(n), "--mode", "oracle", "--eve", "uniform-all",
         "--check-frac", "0.5"),
        rounds, expected_rc=3, min_ops=min_ops, calibration="dense")


FULL = {w.name: w for w in (
    _session_d7(1000),
    _session_eve(3, 5, 400, min_ops=3),
)}

SMOKE = {w.name: w for w in (
    _session_d7(300),
    _session_eve(3, 2, 200, min_ops=1),
)}


def get(name: str, smoke: bool) -> Workload:
    table = SMOKE if smoke else FULL
    if name not in table:
        raise SystemExit(f"unknown workload {name!r}; choose from {', '.join(table)}")
    return table[name]


def cli_seeds(workload: str, seed: int):
    """CLI seeds of a run's operations: the golden seed first, then a stream
    fixed by the benchmark seed."""
    yield GOLDEN_CLI_SEED
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield rng.randrange(1, 2 ** 31)
