"""End-to-end acceptance checks.

Each test covers one numbered criterion at its stated tolerance and
prints one PASS/FAIL line (visible with pytest -s or in captured output).
"""

import itertools
import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from mubqkd.cli import main as cli_main
from mubqkd.gf import FieldSpec, index_add, index_sub
from mubqkd.hilbert import project_first
from mubqkd.mub import mub_state, unbiasedness_report
from mubqkd.entangle import entangled_mub, shift_remote
from mubqkd.phasespace import dwigner1, dwigner2_support
from mubqkd.protocol import EveStrategy, SessionConfig, session_records, session_summary

ALL_SPECS = [FieldSpec(3, 1), FieldSpec(5, 1), FieldSpec(7, 1),
             FieldSpec(3, 2), FieldSpec(5, 2), FieldSpec(3, 3)]


@contextmanager
def criterion(name):
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {name}")
        raise
    print(f"[PASS] criterion {name}")


def test_criterion_1_mub_constancy():
    with criterion("1: MUB constancy over d in {3,5,7,9,25,27}"):
        start = time.monotonic()
        for spec in ALL_SPECS:
            rep = unbiasedness_report(spec)
            assert rep.basis_count == spec.d + 1
            assert rep.max_cross_deviation < 1e-9
            assert rep.max_orthonormality_deviation < 1e-12
        assert time.monotonic() - start < 30.0


def test_criterion_2_projection_identity():
    with criterion("2: projection identity, exhaustive d=3,5 and sampled d=9,25,27"):
        rng = np.random.default_rng(7)
        for spec in (FieldSpec(3, 1), FieldSpec(5, 1),
                     FieldSpec(3, 2), FieldSpec(5, 2), FieldSpec(3, 3)):
            d = spec.d
            if d <= 5:
                tuples = itertools.product(range(d), repeat=4)
            else:
                tuples = (tuple(int(x) for x in row)
                          for row in rng.integers(0, d, size=(1000, 4)))
            root_d = math.sqrt(d)
            for b, c, b1, c1 in tuples:
                pair = entangled_mub(spec, b, c)
                bra = mub_state(spec, b1, c1)
                w = project_first(pair, bra)
                expect = mub_state(spec, index_sub(spec, b, b1), index_sub(spec, c, c1)) / root_d
                assert float(np.max(np.abs(w - expect))) < 1e-12
                assert abs(float(np.vdot(w, w).real) - 1.0 / d) < 1e-12


def test_criterion_3_shift_law():
    with criterion("3: shift law exhaustive at d=3,5,7"):
        for spec in (FieldSpec(3, 1), FieldSpec(5, 1), FieldSpec(7, 1)):
            d = spec.d
            for b, c, lam in itertools.product(range(d), repeat=3):
                shifted = shift_remote(mub_state(spec, b, c), spec.from_index(lam))
                target = mub_state(spec, b, index_add(spec, c, lam))
                assert float(np.max(np.abs(shifted - target))) < 1e-12


def test_criterion_4_single_particle_wigner_lines():
    with criterion("4: Wigner lines p = 2bq + c at d in {3,5,7}"):
        for d in (3, 5, 7):
            spec = FieldSpec(d, 1)
            for ib, ic in itertools.product(range(d), repeat=2):
                table = dwigner1(mub_state(spec, ib, ic))
                assert abs(float(table.sum()) - 1.0) < 1e-9
                line = {(q, (2 * ib * q + ic) % d) for q in range(d)}
                nonzero = 0
                for q in range(d):
                    for p in range(d):
                        if (q, p) in line:
                            assert abs(table[q, p] - 1.0 / d) < 1e-10
                            nonzero += 1
                        else:
                            assert abs(table[q, p]) < 1e-10
                assert nonzero == d
            for k in range(d):
                state = mub_state(spec, d, k)
                table = dwigner1(state)
                assert abs(float(table.sum()) - 1.0) < 1e-9
                for q in range(d):
                    for p in range(d):
                        expect = 1.0 / d if q == k else 0.0
                        assert abs(table[q, p] - expect) < 1e-10


def test_criterion_5_two_particle_wigner_support():
    with criterion("5: pair Wigner support q1=q2, p1+p2 = 2bq1 + c at d in {3,5}"):
        for d in (3, 5):
            spec = FieldSpec(d, 1)
            for ib, ic in itertools.product(range(d), repeat=2):
                pair = entangled_mub(spec, ib, ic)
                support = dwigner2_support(pair)
                expect = {(q, p1, q, (2 * ib * q + ic - p1) % d)
                          for q in range(d) for p1 in range(d)}
                assert set(support) == expect
                assert len(support) == d * d
                assert all(abs(v - 1.0 / d ** 2) < 1e-10 for v in support.values())


def test_criterion_6_protocol_completeness():
    with criterion("6: clean oracle session at d=7, 1000 rounds, under 5 s"):
        start = time.monotonic()
        cfg = SessionConfig(field=FieldSpec(7, 1), rounds=1000,
                            check_fraction=0.25, mode="oracle", seed=20260810)
        summary = session_summary(cfg, session_records(cfg))
        elapsed = time.monotonic() - start
        assert summary["message_rounds"] > 0 and summary["check_rounds"] > 0
        assert summary["bit_error_rate"] == 0.0
        assert summary["check_pass_rate"] == 1.0
        assert elapsed < 5.0


def test_criterion_7_swap_mode_statistics():
    with criterion("7: swap-mode misdecode (1/2)^R at d=7 over 1e4 bit-0 rounds"):
        for reps in (1, 2, 4):
            cfg = SessionConfig(field=FieldSpec(7, 1), rounds=21_000, check_fraction=0.0,
                                mode="swap", swap_repetitions=reps, seed=100 + reps)
            records = list(session_records(cfg))
            bit0 = [r for r in records if r.bit_sent == 0]
            bit1 = [r for r in records if r.bit_sent == 1]
            assert len(bit0) >= 10_000
            q = 0.5 ** reps
            mis = sum(r.decoded == 1 for r in bit0) / len(bit0)
            sigma = math.sqrt(q * (1 - q) / len(bit0))
            assert abs(mis - q) < 3 * sigma
            assert all(r.decoded == 1 for r in bit1)


def test_criterion_8_eavesdropper_detection():
    with criterion("8: intercept-resend pass rate 2/(d+1) at d in {3,7,25}, monotone detection"):
        detection = []
        for spec, seed in ((FieldSpec(3, 1), 3), (FieldSpec(7, 1), 7), (FieldSpec(5, 2), 25)):
            cfg = SessionConfig(field=spec, rounds=2000, check_fraction=1.0,
                                eve=EveStrategy("intercept_resend", "uniform_all"), seed=seed)
            summary = session_summary(cfg, session_records(cfg))
            rate = summary["check_pass_rate"]
            expect = 2.0 / (spec.d + 1)
            sigma = math.sqrt(expect * (1 - expect) / 2000)
            assert abs(rate - expect) < 3 * sigma
            assert summary["eavesdropper_detected"] is True
            detection.append(1.0 - rate)
        assert detection[0] < detection[1] < detection[2]


def test_criterion_9_deterministic_transcripts(tmp_path, capsys):
    with criterion("9: byte-identical transcripts for identical seeds and flags"):
        args = ["session", "--p", "7", "--rounds", "300", "--check-frac", "0.2",
                "--mode", "swap", "--reps", "2", "--eve", "uniform-all", "--seed", "4242"]
        blobs = []
        for tag in ("first", "second"):
            out = tmp_path / f"{tag}.jsonl"
            stats = tmp_path / f"{tag}.json"
            code = cli_main(args + ["--out", str(out), "--stats", str(stats)])
            assert code in (0, 3)
            blobs.append((out.read_bytes(), stats.read_bytes()))
        assert blobs[0][0] == blobs[1][0]
        assert blobs[0][1] == blobs[1][1]
        assert len(blobs[0][0].splitlines()) == 300
        json.loads(blobs[0][1])
