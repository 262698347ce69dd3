"""Correctness checks on one benchmark operation's outputs.

Every operation is checked; an operation with any finding counts as failed.
Statistical checks are exact two-sided binomial tests at ALPHA per test.
Each operation makes at most one such test, and a run makes at most
MAX_OPS_PER_RUN operations, so a correct program fails a run by chance
with probability below MAX_OPS_PER_RUN * ALPHA = 5e-7 by the union bound.
The deterministic checks (no check round fails without an eavesdropper,
every bit-1 round decodes to 1) can fail a correct program only through
floating-point rounding at a Born-sampling boundary, with probability
below 1e-15 per round.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

ALPHA = 1e-9
MAX_OPS_PER_RUN = 500
EXPECTED = json.loads((Path(__file__).resolve().parent / "expected.json").read_text())


def binom_tails(k: int, n: int, p: float) -> tuple[float, float]:
    """(P[X <= k], P[X >= k]) for X ~ Binomial(n, p), 0 < p < 1."""
    log_p, log_q = math.log(p), math.log1p(-p)
    pmf = [math.exp(math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1)
                    + j * log_p + (n - j) * log_q) for j in range(n + 1)]
    return min(sum(pmf[:k + 1]), 1.0), min(sum(pmf[k:]), 1.0)


def binomial_finding(what: str, k: int, n: int, p: float) -> list[str]:
    lower, upper = binom_tails(k, n, p)
    if min(lower, upper) < ALPHA / 2:
        return [f"{what}: {k} of {n} is inconsistent with rate {p:.6g} "
                f"(tails {lower:.3g}, {upper:.3g}; alpha {ALPHA:g})"]
    return []


def transcript_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def check_session(w, rc: int, transcript: str, stats: str, cli_seed: int,
                  size: str) -> list[str]:
    findings = []
    if rc != w.expected_rc:
        findings.append(f"exit code {rc}, expected {w.expected_rc}")
    try:
        records = [json.loads(line) for line in Path(transcript).read_text().splitlines()]
        summary = json.loads(Path(stats).read_text())
    except (OSError, ValueError) as exc:
        return findings + [f"unreadable output: {exc}"]
    pinned = EXPECTED[size].get(w.name, {}).get(str(cli_seed))
    if pinned is not None and transcript_sha256(transcript) != pinned:
        findings.append(f"transcript sha256 differs from the pinned value for CLI seed {cli_seed}")
    try:
        if [r["round"] for r in records] != list(range(w.rounds)):
            findings.append(f"transcript does not hold rounds 0..{w.rounds - 1} in order")
        msg = [r for r in records if r["kind"] == "message"]
        chk = [r for r in records if r["kind"] == "check"]
        if len(msg) + len(chk) != len(records):
            findings.append("transcript has rounds that are neither message nor check")
        passes = sum(1 for r in chk if r["check_passed"] is True)
        if summary.get("rounds") != len(records) or summary.get("check_passes") != passes:
            findings.append("summary disagrees with the transcript")
        d = w.d
        if w.name == "session-d7-swap":
            if passes != len(chk):
                findings.append(f"{len(chk) - passes} check rounds failed without an eavesdropper")
            ones = [r for r in msg if r["bit_sent"] == 1]
            if any(r["decoded"] != 1 for r in ones):
                findings.append("a bit-1 round decoded to 0")
            zeros = [r for r in msg if r["bit_sent"] == 0]
            wrong = sum(1 for r in zeros if r["decoded"] != 0)
            findings += binomial_finding("bit-0 misdecodes", wrong, len(zeros), 0.5 ** 4)
        elif w.name == "session-d243-eve":
            findings += binomial_finding("check passes", passes, len(chk), 2 / (d + 1))
            if summary.get("eavesdropper_detected") is not True:
                findings.append("eavesdropper_detected is not true")
    except (KeyError, TypeError) as exc:
        findings.append(f"malformed transcript record: {exc!r}")
    return findings
