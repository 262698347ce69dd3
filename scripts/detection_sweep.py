#!/usr/bin/env python3
"""Intercept-resend detection sweep.

Runs check-only sessions across field sizes and eavesdropper basis
pickers and tabulates the empirical per-check pass rate against the
analytic prediction: 2/(d+1) for a picker uniform over all d+1 bases,
(2d-1)/d^2 for one uniform over the d quadratic bases.
"""

import argparse
import sys

from mubqkd.gf import FieldSpec
from mubqkd.protocol import EveStrategy, SessionConfig, session_records, session_summary

FIELDS = [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3)]
PICKERS = ["none", "uniform_quadratic", "uniform_all"]


def predicted_pass_rate(d, picker):
    if picker == "none":
        return 1.0
    if picker == "uniform_all":
        return 2.0 / (d + 1)
    return (2.0 * d - 1.0) / d ** 2


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rounds", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--out", type=str, default=None, help="CSV path (default stdout)")
    args = ap.parse_args()
    if args.rounds < 1:
        ap.error(f"--rounds: must be at least 1, got {args.rounds}")
    if args.seed < 0:
        ap.error(f"--seed: expected a non-negative integer, got {args.seed}")
    out = sys.stdout
    if args.out:
        try:   # opened before the sweep, so a bad path costs no sessions
            out = open(args.out, "w")
        except OSError as exc:
            ap.error(f"--out: {exc}")

    lines = ["p,n,d,eve,rounds,pass_rate,predicted,detected"]
    for p, n in FIELDS:
        spec = FieldSpec(p, n)
        for picker in PICKERS:
            eve = (EveStrategy() if picker == "none"
                   else EveStrategy("intercept_resend", picker))
            cfg = SessionConfig(field=spec, rounds=args.rounds, check_fraction=1.0,
                                eve=eve, seed=args.seed)
            summary = session_summary(cfg, session_records(cfg))
            rate = summary["check_pass_rate"]
            lines.append(f"{p},{n},{spec.d},{picker},{args.rounds},"
                         f"{rate:.6f},{predicted_pass_rate(spec.d, picker):.6f},"
                         f"{summary['eavesdropper_detected']}")
    with out:
        out.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
