"""Protocol engine: encode/decode laws, round flow, eavesdropper statistics,
transcripts."""

import dataclasses
import itertools
import json
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

import mubqkd
from mubqkd.gf import FieldSpec
from mubqkd.hilbert import born_sample
from mubqkd.mub import basis_matrix, mub_state
from mubqkd.entangle import entangled_mub, measure_first
from mubqkd.phasespace import run_cv_round
from mubqkd.protocol import (EveStrategy, RoundRecord, SessionConfig, eavesdropper_detected,
                             run_round, session_records, session_summary, summarize)
from mubqkd.stream import Draws

from dense_round import alice_encode, bob_decode
# The stream's tests moved to test_stream.py; collected here as well, they keep
# the ids that earlier test results record them under.
from test_stream import (test_draws_match_generator,  # noqa: F401
                         test_draws_match_generator_across_blocks,
                         test_draws_match_sized_generator_draws_in_verify_order,
                         test_draws_refuse_bad_seeds, test_draws_words_match_pcg64,
                         test_outcome_takes_the_word_random_takes)

GF3 = FieldSpec(3, 1)
GF7 = FieldSpec(7, 1)

JSONL_FIELDS = ["round", "kind", "bit_sent", "lambda", "b1", "c1", "c1p",
                "eve_basis", "eve_outcome", "decoded", "check_b2",
                "check_expected", "check_measured", "check_passed"]


# ---------------------------------------------------------------------------
# encode / decode
# ---------------------------------------------------------------------------

def test_alice_encode_bit_one_example():
    rng = np.random.default_rng(0)
    lam = alice_encode(GF3, 1, 2, 0, 0, rng)
    assert lam == 1          # 0 - 2 = 1 mod 3


def test_alice_encode_bit_zero_never_matches():
    rng = np.random.default_rng(1)
    for c1, c1p, delta in itertools.product(range(3), repeat=3):
        match = (c1p - c1 + delta) % 3
        for _ in range(30):
            assert alice_encode(GF3, 0, c1, c1p, delta, rng) != match


def test_alice_encode_bit_zero_uniform():
    rng = np.random.default_rng(2)
    spec = GF7
    c1, c1p, delta = 3, 5, 2
    match = (c1p - c1 + delta) % 7
    counts = np.zeros(7)
    n = 6000
    for _ in range(n):
        counts[alice_encode(spec, 0, c1, c1p, delta, rng)] += 1
    assert counts[match] == 0
    sigma = np.sqrt((1 / 6) * (5 / 6) / n)
    others = np.delete(counts, match) / n
    assert np.all(np.abs(others - 1 / 6) < 3 * sigma)


def test_bob_decode_matching_lambda():
    rng = np.random.default_rng(3)
    state2 = mub_state(GF3, 1, 2)
    state2p = mub_state(GF3, 1, 0)
    lam = 2        # shifts c = 0 to c = 2
    assert bob_decode(GF3, state2, state2p, lam, "oracle", 1, rng) == 1
    for _ in range(50):
        assert bob_decode(GF3, state2, state2p, lam, "swap", 1, rng) == 1


def test_bob_decode_wrong_lambda_oracle():
    rng = np.random.default_rng(4)
    state2 = mub_state(GF3, 1, 2)
    state2p = mub_state(GF3, 1, 0)
    assert bob_decode(GF3, state2, state2p, 1, "oracle", 1, rng) == 0


def test_bob_decode_wrong_lambda_swap_statistics():
    rng = np.random.default_rng(5)
    state2 = mub_state(GF3, 1, 2)
    state2p = mub_state(GF3, 1, 0)
    lam = 0
    n = 2000
    zeros = sum(bob_decode(GF3, state2, state2p, lam, "swap", 1, rng) == 0 for _ in range(n))
    sigma = np.sqrt(0.25 / n)
    assert abs(zeros / n - 0.5) < 3 * sigma


# ---------------------------------------------------------------------------
# round flow assembled by hand
# ---------------------------------------------------------------------------

def test_eve_in_correct_basis_leaves_no_trace():
    rng = np.random.default_rng(6)
    spec = GF3
    b, c = 2, 1
    b1 = 1
    pair = entangled_mub(spec, b, c)
    c1, bob = measure_first(spec, pair, b1, rng)
    b2 = (b - b1) % 3
    # Eve measures in exactly the basis the particle is in
    k, forwarded = born_sample(bob, basis_matrix(spec, b2), rng)
    assert k == (c - c1) % 3
    measured, _ = born_sample(forwarded, basis_matrix(spec, b2), rng)
    assert measured == (c - c1) % 3


def test_eve_in_wrong_basis_passes_with_rate_one_over_d():
    rng = np.random.default_rng(7)
    spec = GF3
    bob = mub_state(spec, 1, 2)     # particle in basis b2 = 1, state c2 = 2
    wrong = basis_matrix(spec, 0)
    right = basis_matrix(spec, 1)
    n = 3000
    passes = 0
    for _ in range(n):
        _, forwarded = born_sample(bob, wrong, rng)
        measured, _ = born_sample(forwarded, right, rng)
        passes += measured == 2
    sigma = np.sqrt((1 / 3) * (2 / 3) / n)
    assert abs(passes / n - 1 / 3) < 3 * sigma


# ---------------------------------------------------------------------------
# sessions
# ---------------------------------------------------------------------------

def _digit_sum(spec, *terms):
    """Index whose base-p digits are the sums of those of the (sign, index) terms, mod p."""
    p = spec.p
    return sum(sum(s * (k // p ** i % p) for s, k in terms) % p * p ** i for i in range(spec.n))


# At n >= 2 the differences go through the digit tables; each delta has a
# non-zero top digit, so (c1p - c1) + delta makes a second table call.
@pytest.mark.parametrize("spec, pair, delta", [
    (GF3, (2, 1), 1),
    (FieldSpec(3, 5), (200, 97), 2 * 3 ** 4 + 40),
    (FieldSpec(11, 5), (150_000, 9_999), 7 * 11 ** 4 + 1_234),
    (FieldSpec(1021, 2), (1_000_000, 123_456), 1_020 * 1_021 + 5),
], ids=["3^1", "3^5", "11^5", "1021^2"])
def test_round_records_have_consistent_algebra(spec, pair, delta):
    config = SessionConfig(field=spec, rounds=300, check_fraction=0.5,
                           pair_label=pair, delta_offset=delta, seed=11)
    b_idx, c_idx = pair
    for rec in session_records(config):
        if rec.kind == "message":
            assert rec.decoded == rec.bit_sent
            if rec.bit_sent == 1:
                assert rec.lam == _digit_sum(spec, (1, rec.c1p), (-1, rec.c1), (1, delta))
        else:
            assert rec.check_b2 == _digit_sum(spec, (1, b_idx), (-1, rec.b1))
            assert rec.check_expected == _digit_sum(spec, (1, c_idx), (-1, rec.c1))
            assert rec.check_passed


def test_session_no_eve_oracle_is_clean():
    cfg = SessionConfig(field=GF7, rounds=400, check_fraction=0.25, seed=5)
    summary = session_summary(cfg, session_records(cfg))
    assert summary["bit_error_rate"] == 0.0
    assert summary["check_pass_rate"] == 1.0
    assert summary["eavesdropper_detected"] is False


def test_session_swap_mode_statistics():
    cfg = SessionConfig(field=GF7, rounds=4000, check_fraction=0.0,
                        mode="swap", swap_repetitions=2, seed=17)
    records = list(session_records(cfg))
    bit0 = [r for r in records if r.bit_sent == 0]
    bit1 = [r for r in records if r.bit_sent == 1]
    mis = sum(r.decoded == 1 for r in bit0) / len(bit0)
    sigma = np.sqrt(0.25 * 0.75 / len(bit0))
    assert abs(mis - 0.25) < 3 * sigma
    assert all(r.decoded == 1 for r in bit1)


def test_session_uniform_all_eve_detected():
    cfg = SessionConfig(field=GF3, rounds=2000, check_fraction=1.0,
                        eve=EveStrategy("intercept_resend", "uniform_all"), seed=23)
    records = list(session_records(cfg))
    summary = session_summary(cfg, records)
    rate = summary["check_pass_rate"]
    sigma = np.sqrt(0.5 * 0.5 / 2000)
    assert abs(rate - 0.5) < 3 * sigma
    assert summary["eavesdropper_detected"] is True
    for rec in records:
        assert rec.eve_basis is not None
        assert len(rec.eve_outcome) == 2


def test_fixed_eve_strategy_runs():
    cfg = SessionConfig(field=GF3, rounds=200, check_fraction=1.0,
                        eve=EveStrategy("intercept_resend", "fixed", 3), seed=29)
    records = list(session_records(cfg))
    assert all(rec.eve_basis == 3 for rec in records)
    assert session_summary(cfg, records)["check_pass_rate"] < 1.0


def test_summary_recomputable_from_records():
    cfg = SessionConfig(field=GF7, rounds=500, check_fraction=0.3,
                        eve=EveStrategy("intercept_resend", "uniform_quadratic"), seed=31)
    records = list(session_records(cfg))
    summary = session_summary(cfg, records)
    stats = summarize(records)
    for key, value in stats.items():
        assert summary[key] == value
    assert summary["v"] == 1
    assert summary["config"] == cfg.to_json()


def test_sessions_deterministic():
    cfg = SessionConfig(field=GF7, rounds=200, check_fraction=0.2, mode="swap",
                        swap_repetitions=2, eve=EveStrategy("intercept_resend", "uniform_all"),
                        seed=37)
    a = list(session_records(cfg))
    b = list(session_records(cfg))
    assert [r.to_json() for r in a] == [r.to_json() for r in b]
    assert session_summary(cfg, a) == session_summary(cfg, b)


def test_record_json_schema():
    for rec in session_records(SessionConfig(field=GF3, rounds=5, seed=1)):
        assert list(rec.to_json().keys()) == JSONL_FIELDS
        json.dumps(rec.to_json())


def _hand_built(**values) -> RoundRecord:
    base = dict(round=0, kind="message", bit_sent=None, lam=None, b1=0, c1=0, c1p=0,
                eve_basis=None, eve_outcome=None, decoded=None, check_b2=None,
                check_expected=None, check_measured=None, check_passed=None)
    return RoundRecord(**{**base, **values})


def test_jsonl_encoder_matches_json_dumps():
    configs = [
        SessionConfig(field=GF7, rounds=300, check_fraction=0.3, mode="swap",
                      swap_repetitions=1, seed=41),
        SessionConfig(field=FieldSpec(3, 5), rounds=300, check_fraction=0.5, mode="swap",
                      eve=EveStrategy("intercept_resend", "uniform_all"), seed=43),
    ]
    records = [rec for cfg in configs for rec in session_records(cfg)]
    records += [
        _hand_built(round=123456, bit_sent=1, lam=242, b1=240, c1=101, c1p=7, eve_basis=243,
                    eve_outcome=[0, 242], decoded=0),
        _hand_built(kind="check", b1=10, c1=11, c1p=12, eve_basis=3, eve_outcome=[],
                    check_b2=1, check_expected=0, check_measured=2, check_passed=False),
        _hand_built(kind="check", check_b2=0, check_expected=0, check_measured=0,
                    check_passed=True),
    ]
    for rec in records:
        assert rec.to_jsonl() == json.dumps(rec.to_json()) + "\n"
    # every shape of record occurs above
    shapes = {(r.kind, r.eve_outcome is None, r.bit_sent, r.decoded, r.check_passed)
              for r in records}
    for shape in [("message", True, 0, 0, None), ("message", True, 1, 1, None),
                  ("message", False, 0, 0, None), ("message", False, 0, 1, None),
                  ("message", False, 1, 0, None), ("message", False, 1, 1, None),
                  ("check", True, None, None, True), ("check", False, None, None, True),
                  ("check", False, None, None, False)]:
        assert shape in shapes
    assert any(r.c1 >= 100 and r.eve_outcome and min(r.eve_outcome) >= 10 for r in records)


def test_config_validation():
    with pytest.raises(ValueError, match="^rounds: "):
        SessionConfig(field=GF3, rounds=0)
    with pytest.raises(ValueError, match="^check_fraction: "):
        SessionConfig(field=GF3, rounds=1, check_fraction=1.5)
    with pytest.raises(ValueError, match="^mode: "):
        SessionConfig(field=GF3, rounds=1, mode="guess")
    with pytest.raises(ValueError, match="^swap_repetitions: "):
        SessionConfig(field=GF3, rounds=1, swap_repetitions=0)
    with pytest.raises(ValueError, match="^delta_offset: "):
        SessionConfig(field=GF3, rounds=1, delta_offset=3)
    with pytest.raises(ValueError, match="^seed: "):
        SessionConfig(field=GF3, rounds=1, seed=-1)
    with pytest.raises(ValueError, match=r"^eve\.fixed_basis: "):
        SessionConfig(field=GF3, rounds=1,
                      eve=EveStrategy("intercept_resend", "fixed", 9))
    with pytest.raises(ValueError, match="^fixed_basis: "):
        EveStrategy("intercept_resend", "fixed")
    with pytest.raises(ValueError, match="^kind: "):
        EveStrategy("someone")
    with pytest.raises(ValueError, match="^picker: "):
        EveStrategy("intercept_resend", "someone")


@pytest.mark.parametrize("build, field", [
    (lambda: SessionConfig(field=GF3, rounds=True), "rounds"),
    (lambda: SessionConfig(field=GF3, rounds=5, check_fraction=True), "check_fraction"),
    (lambda: SessionConfig(field=GF3, rounds=5, check_fraction="0.5"), "check_fraction"),
    (lambda: EveStrategy("intercept_resend", "fixed", 1.5), "fixed_basis"),
    (lambda: SessionConfig(field=GF3, rounds=5, swap_repetitions=2.5), "swap_repetitions"),
    (lambda: SessionConfig(field=GF3, rounds=5, seed=False), "seed"),
    (lambda: SessionConfig(field=GF3, rounds=5, delta_offset=True), "delta_offset"),
    (lambda: SessionConfig(field=GF3, rounds=5, delta_offset=2.0), "delta_offset"),
    (lambda: SessionConfig(field=GF3, rounds=5, pair_label=(True, 2)), r"pair_label\[0\]"),
    (lambda: SessionConfig(field=GF3, rounds=5, pair_label=(1.5, 2)), r"pair_label\[0\]"),
    (lambda: SessionConfig(field=GF3, rounds=5, pair_label="ab"), r"pair_label\[0\]"),
    (lambda: SessionConfig(field=GF3, rounds=5, pair_label={0: 1, 1: 2}), "pair_label"),
    (lambda: SessionConfig(field=GF3, rounds=5, pair_label={1, 2}), "pair_label"),
    (lambda: SessionConfig(field=GF3, rounds=5, pair_label=5), "pair_label"),
    (lambda: SessionConfig(field={"p": 3}, rounds=5), "field"),
    (lambda: SessionConfig(field=GF3, rounds=5, eve="none"), "eve"),
    (lambda: SessionConfig(field=GF3, rounds=5, eve=None), "eve"),
], ids=["rounds-bool", "check_fraction-bool", "check_fraction-str", "fixed_basis-float",
        "swap_repetitions-float", "seed-bool", "delta_offset-bool", "delta_offset-float",
        "pair_label-bool", "pair_label-float", "pair_label-str", "pair_label-dict",
        "pair_label-set", "pair_label-int", "field-dict", "eve-str", "eve-none"])
def test_config_refuses_what_the_document_refuses(build, field):
    with pytest.raises(ValueError, match=f"^{field}: "):
        build()


@pytest.mark.parametrize("label", [[1, 2], (1, 2), np.array([1, 2])], ids=["list", "tuple", "array"])
def test_config_takes_a_pair_label_sequence(label):
    assert SessionConfig(field=GF3, rounds=5, pair_label=label).pair_label == (1, 2)


def test_config_stores_plain_numbers():
    cfg = SessionConfig(field=GF3, rounds=np.int64(5), check_fraction=np.float32(0.5),
                        swap_repetitions=np.uint8(2), seed=np.int32(7),
                        eve=EveStrategy("intercept_resend", "fixed", np.int64(3)))
    assert [type(v) for v in (cfg.rounds, cfg.swap_repetitions, cfg.seed, cfg.eve.fixed_basis,
                              cfg.check_fraction)] == [int] * 4 + [float]
    summary = session_summary(cfg, session_records(cfg))
    assert json.loads(json.dumps(summary))["config"] == cfg.to_json()


def test_round_plan_is_no_part_of_the_config():
    cfg = SessionConfig(field=FieldSpec(3, 2), rounds=5, pair_label=(1, 2), seed=3,
                        eve=EveStrategy("intercept_resend", "fixed", 4))
    before = repr(cfg), hash(cfg), cfg.to_json()
    plan = cfg._plan
    assert cfg._plan is plan
    assert (repr(cfg), hash(cfg), cfg.to_json()) == before
    twin = SessionConfig.from_json(cfg.to_json())
    assert cfg == twin and hash(cfg) == hash(twin)
    assert "_plan" not in {f.name for f in dataclasses.fields(cfg)} and "plan" not in repr(cfg)


def test_round_plan_and_digit_tables_wait_for_the_first_round():
    """Reading, writing and round-tripping a config builds neither its plan
    nor its field's digit tables; a round builds both.  A replaced config
    builds its own plan and shares the field, tables and all."""
    config = SessionConfig.from_json({"field": {"p": 3, "n": 3}, "rounds": 5, "seed": 2})
    twin = SessionConfig.from_json(config.to_json())
    for cfg in (config, twin):
        assert "_plan" not in vars(cfg) and "digit_tables" not in vars(cfg.field)
    run_round(config, 0, Draws(config.seed))
    assert "_plan" in vars(config) and "digit_tables" in vars(config.field)
    copy = dataclasses.replace(config)
    assert "_plan" not in vars(copy) and copy.field is config.field


@pytest.mark.parametrize("spec", [GF7, FieldSpec(3, 2)], ids=["d7", "d9"])
def test_config_pickles_after_a_session(spec):
    cfg = SessionConfig(field=spec, rounds=40, check_fraction=0.5, seed=6)
    records = [r.to_json() for r in session_records(cfg)]
    copy = pickle.loads(pickle.dumps(cfg))
    assert copy == cfg
    assert [r.to_json() for r in session_records(copy)] == records


def test_config_json_roundtrip():
    cfg = SessionConfig(field=FieldSpec(3, 2), rounds=50, check_fraction=0.4,
                        mode="swap", swap_repetitions=3,
                        eve=EveStrategy("intercept_resend", "fixed", 4),
                        delta_offset=5, pair_label=(1, 2), seed=99)
    assert SessionConfig.from_json(cfg.to_json()) == cfg


def test_summary_config_keeps_its_documented_key_order():
    """The config object of a summary lists its keys as README's config
    document does; dict equality, as in the round trip above, ignores order."""
    cfg = SessionConfig(field=FieldSpec(3, 2), rounds=5,
                        eve=EveStrategy("intercept_resend", "fixed", 4), pair_label=(1, 2))
    doc = session_summary(cfg, ())["config"]
    assert list(doc) == ["field", "rounds", "check_fraction", "mode", "swap_repetitions", "eve",
                         "delta_offset", "pair_label", "seed"]
    assert list(doc["eve"]) == ["kind", "picker", "fixed_basis"]
    assert list(doc["field"]) == ["p", "n", "modulus"]


@pytest.mark.parametrize("field_cfg", [{"p": 3.7}, {"p": "7"}, {"n": 2},
                                       {"p": 3, "n": 2, "modulus": [1, 0, 1.5]}])
def test_field_config_errors_name_the_field(field_cfg):
    with pytest.raises(ValueError, match="^field: "):
        SessionConfig.from_json({"field": field_cfg, "rounds": 5})


def test_detection_thresholds():
    assert eavesdropper_detected(0, 0) is False
    assert eavesdropper_detected(100, 100) is False
    assert eavesdropper_detected(50, 100) is True
    assert eavesdropper_detected(0, 10) is True
    assert eavesdropper_detected(1, 2) is True
    assert eavesdropper_detected(999, 1000) is True


# ---------------------------------------------------------------------------
# the session's variate stream
# ---------------------------------------------------------------------------

def test_session_never_imports_numpy_random(tmp_path):
    src = os.path.dirname(os.path.dirname(mubqkd.__file__))
    code = ("import sys\n"
            "from mubqkd.cli import main\n"
            "main(['session', '--p', '7', '--mode', 'swap', '--rounds', '200',"
            " '--no-transcript', '--stats', sys.argv[1]])\n"
            "assert 'numpy.random' not in sys.modules, 'numpy.random was imported'\n")
    subprocess.run([sys.executable, "-W", "error", "-c", code, str(tmp_path / "stats.json")],
                   check=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)


def test_verify_never_imports_numpy_random():
    code = ("import sys\nfrom mubqkd.cli import main\n"
            "assert main(['verify', '--p', '3', '--n', '2']) == 0\n"
            "assert 'numpy.random' not in sys.modules, 'numpy.random was imported'\n")
    src = os.path.dirname(os.path.dirname(mubqkd.__file__))
    subprocess.run([sys.executable, "-W", "error", "-c", code], check=True, timeout=60,
                   env={**os.environ, "PYTHONPATH": src}, stdout=subprocess.DEVNULL)


@pytest.mark.parametrize("spec", [GF3, GF7, FieldSpec(3, 5), FieldSpec(3, 10),
                                  FieldSpec(1_048_573, 1)], ids=lambda spec: str(spec.d))
def test_uniform_outcome_is_floor_of_m_d_over_2_53(spec):
    """Draws.outcome(d) is floor(m*d / 2**53) for the variate u = m * 2**-53
    of its word, so outcome k starts at m = ceil(k * 2**53 / d).  Checked at
    m = 0, m = 2**53 - 1 and both sides of sampled starts, among them the
    first start that searching numpy's cumsum of d copies of 1/d moves."""
    d, two53 = spec.d, 1 << 53
    ks = np.arange(1, d)
    start = ks * (two53 // d) + (ks * (two53 % d) + d - 1) // d     # ceil(k * 2**53 / d)
    cdf = np.cumsum(np.full(d, 1.0 / d))
    cdf_start = np.ceil(cdf[:-1] * two53).astype(np.int64)
    moved = int(np.flatnonzero(start != cdf_start)[0])
    sampled = {0, d - 2, moved, *np.random.default_rng(d).integers(0, d - 1, 4).tolist()}
    cases = [(0, 0), (two53 - 1, d - 1)]
    for i in sorted(sampled):
        cases += [(int(start[i]) - 1, i), (int(start[i]), i + 1)]
    us = [m / two53 for m, _ in cases]
    expected = [k for _, k in cases]
    assert (np.minimum(cdf.searchsorted(us, side="right"), d - 1) != expected).any()

    draws = Draws(0)
    for low in (0, 0x7FF):      # the 11 low bits that random() drops too
        draws.words = [m << 11 | low for m, _ in reversed(cases)]     # next word last
        assert [draws.outcome(d) for _ in cases] == expected, low


# ---------------------------------------------------------------------------
# continuous-variable rounds at label level
# ---------------------------------------------------------------------------

def test_cv_rounds_decode_correctly():
    rng = np.random.default_rng(41)
    for _ in range(500):
        bit = int(rng.integers(2))
        rec = run_cv_round(bit, rng, delta=float(rng.uniform(-2, 2)))
        assert rec["decoded"] == bit


def test_cv_round_label_algebra():
    rng = np.random.default_rng(43)
    rec = run_cv_round(1, rng, b=2.0, c=0.7, delta=0.3)
    assert rec["bob"]["b2"] == pytest.approx(2.0 - rec["alice"]["b1"])
    assert rec["bob"]["c2"] == pytest.approx(0.7 - rec["alice"]["c1"])
    assert rec["lambda"] == pytest.approx(
        rec["alice"]["c1p"] - rec["alice"]["c1"] + 0.3)


@pytest.mark.parametrize("seed", range(5))
def test_cv_round_draws_uniform_through_random(seed):
    cases = [(0, None, None, 0.0), (1, None, None, 0.0), (0, 2.0, 0.7, 0.3), (1, 2.0, 0.7, -1.5)]
    ref, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for bit, b, c, delta in cases:
        rec = run_cv_round(bit, rng, b, c, delta)
        if b is None:
            b, c = ref.uniform(-10, 10), ref.uniform(-10, 10)
        b1, c1, c1p = ref.uniform(-10, 10), ref.uniform(-10, 10), ref.uniform(-10, 10)
        lam = c1p - c1 + delta + (0.0 if bit else ref.uniform(-10, 10))
        assert rec["alice"] == {"b1": b1, "c1": c1, "c1p": c1p}
        assert (rec["bob"]["b2"], rec["bob"]["c2"], rec["lambda"]) == (b - b1, c - c1, lam)
    draws, gen = Draws(seed), np.random.default_rng(seed)
    assert ([run_cv_round(bit, draws, b, c, delta) for bit, b, c, delta in cases] ==
            [run_cv_round(bit, gen, b, c, delta) for bit, b, c, delta in cases])
