#!/usr/bin/env python3
"""Swap-test repetition sweep.

Runs message-only swap-mode sessions and compares the misdecode rate of
bit-0 rounds with the (1/2)^R prediction, where R is the number of swap
repetitions per comparison.  A level that plays no bit-0 round leaves its
misdecode_rate empty.
"""

import argparse
import sys

from mubqkd.gf import FieldSpec
from mubqkd.protocol import SessionConfig, session_records


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", type=int, default=7)
    ap.add_argument("--rounds", type=int, default=4000)
    ap.add_argument("--max-reps", type=int, default=6)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--out", type=str, default=None, help="CSV path (default stdout)")
    args = ap.parse_args()
    for flag, value in (("--rounds", args.rounds), ("--max-reps", args.max_reps)):
        if value < 1:
            ap.error(f"{flag}: must be at least 1, got {value}")
    if args.seed < 0:
        ap.error(f"--seed: expected a non-negative integer, got {args.seed}")
    try:
        spec = FieldSpec(args.p, 1)
    except ValueError as exc:
        ap.error(f"--p: {exc}")
    out = sys.stdout
    if args.out:
        try:   # opened before the sweep, so a bad path costs no sessions
            out = open(args.out, "w")
        except OSError as exc:
            ap.error(f"--out: {exc}")

    lines = ["d,reps,bit0_rounds,misdecode_rate,predicted"]
    for reps in range(1, args.max_reps + 1):
        cfg = SessionConfig(field=spec, rounds=args.rounds, check_fraction=0.0,
                            mode="swap", swap_repetitions=reps, seed=args.seed + reps)
        bit0 = misdecoded = 0
        for r in session_records(cfg):
            if r.bit_sent == 0:
                bit0 += 1
                misdecoded += r.decoded == 1
        rate = f"{misdecoded / bit0:.6f}" if bit0 else ""     # no bit-0 round at this level
        lines.append(f"{spec.d},{reps},{bit0},{rate},{0.5 ** reps:.6f}")
    with out:
        out.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
