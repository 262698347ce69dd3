"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

import calibrate
import check
import run
import tracing
import worker
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.SMOKE))
def test_smoke_prints_every_metric_with_its_unit(name, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--workload", name, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
        if not trace:
            assert metric["value"] > 0


def test_bare_benchmark_directory_exits_nonzero(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.iterdir():
        if f.is_file():
            (tmp_path / "perfbench" / f.name).write_bytes(f.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "session-d7-swap", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.fixture(scope="module")
def smoke_session(tmp_path_factory):
    """Outputs of the golden smoke d7 session, made in-process."""
    mubqkd = worker.import_mubqkd()
    w = workloads.SMOKE["session-d7-swap"]
    out = tmp_path_factory.mktemp("session")
    argv = w.argv(workloads.GOLDEN_CLI_SEED, str(out / "t.jsonl"), str(out / "s.json"))
    with contextlib.redirect_stdout(io.StringIO()):
        rc = mubqkd.cli.main(argv)
    return w, rc, out / "t.jsonl", out / "s.json"


def test_check_accepts_a_correct_session(smoke_session):
    w, rc, transcript, stats = smoke_session
    assert check.check_session(w, rc, transcript, stats, workloads.GOLDEN_CLI_SEED, "smoke") == []


def test_check_counts_wrong_exit_code(smoke_session):
    w, rc, transcript, stats = smoke_session
    found = check.check_session(w, 3, transcript, stats, workloads.GOLDEN_CLI_SEED, "smoke")
    assert any("exit code 3" in f for f in found)


def _corrupt(transcript: Path, tmp_path: Path, edit) -> Path:
    records = [json.loads(line) for line in transcript.read_text().splitlines()]
    edit(records)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(json.dumps(r) + "\n" for r in records))
    return bad


def test_check_counts_a_corrupted_transcript(smoke_session, tmp_path):
    w, rc, transcript, stats = smoke_session

    def flip_bit_one(records):
        next(r for r in records if r["bit_sent"] == 1)["decoded"] = 0
    bad = _corrupt(transcript, tmp_path, flip_bit_one)
    found = check.check_session(w, rc, bad, stats, 12345, "smoke")
    assert "a bit-1 round decoded to 0" in found


def test_pinned_hash_catches_a_plausible_transcript_change(smoke_session, tmp_path):
    w, rc, transcript, stats = smoke_session

    def new_lambda(records):
        rec = next(r for r in records if r["kind"] == "message")
        rec["lambda"] = (rec["lambda"] + 1) % w.d
    bad = _corrupt(transcript, tmp_path, new_lambda)
    assert check.check_session(w, rc, bad, stats, 12345, "smoke") == []
    found = check.check_session(w, rc, bad, stats, workloads.GOLDEN_CLI_SEED, "smoke")
    assert any("sha256" in f for f in found)


def test_binomial_check_flags_only_implausible_counts():
    assert check.binomial_finding("x", 125, 2000, 1 / 16) == []
    assert check.binomial_finding("x", 60, 2000, 1 / 16)
    assert check.binomial_finding("x", 250, 2000, 1 / 16)


def test_self_times_of_nested_spans():
    # root [0, 100] > a [10, 40] > a1 [20, 30]; root > b [50, 70]
    spans = [("root", 0, 100, -1, -1), ("a", 10, 40, 0, -1), ("a1", 20, 30, 1, -1),
             ("b", 50, 70, 0, -1)]
    assert tracing.self_times(spans) == [50, 20, 10, 20]
    agg = tracing.aggregate(spans)
    assert agg["root"]["self_s"] == pytest.approx(50e-9)
    assert agg["a"]["total_s"] == pytest.approx(30e-9)
    assert tracing.top_level_s(spans) == pytest.approx(100e-9)


def test_self_time_counts_overlapping_children_once():
    spans = [("p", 0, 100, -1, -1), ("c", 10, 40, 0, -1), ("c", 30, 60, 0, -1),
             ("c", 90, 120, 0, -1)]
    assert tracing.self_times(spans)[0] == 100 - 50 - 10


def test_tracer_wraps_caller_bindings_and_tags_rounds():
    mubqkd = worker.import_mubqkd()
    config = mubqkd.SessionConfig(field=mubqkd.FieldSpec(3, 1), rounds=3, seed=1)
    plain = mubqkd.run_session(config).summary
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert hasattr(mubqkd.protocol.measure_first, "__wrapped__")
        traced = mubqkd.run_session(config).summary
    finally:
        tracer.uninstall()
    assert traced == plain
    spans = tracer.spans()
    rounds = [i for i, s in enumerate(spans) if s[0] == "protocol.run_round"]
    assert [spans[i][4] for i in rounds] == [0, 1, 2]
    measured = [s for s in spans if s[0] == "entangle.measure_first"]
    assert len(measured) == 6
    for s in measured:
        parent = spans[s[3]]
        assert parent[0] == "protocol.run_round" and s[4] == parent[4]
    assert tracer.elem_created > 0
    assert mubqkd.protocol.measure_first.__module__ == "mubqkd.entangle"
    assert not hasattr(mubqkd.protocol.measure_first, "__wrapped__")


def test_times_scale_to_reference_seconds():
    # A worker whose calibration loop ran at half the reference speed took
    # twice the reference time; peak memory and round counts are not scaled.
    ref = calibrate.REFERENCE_S["dense"]
    res = {"setup_s": 0.5, "run_s": 3.0, "round_ns": [1000, 2000, 3000],
           "peak_rss_mb": 40.0, "setup_calib_s": 2 * calibrate.REFERENCE_S[calibrate.SETUP],
           "calibration": "dense", "calib_s": [2 * ref, 4 * ref]}
    assert run.speed(res, setup=True) == pytest.approx(0.5)
    assert run.speed(res) == pytest.approx(1 / 3)
    scaled = run.op_summary(res, scaled=True)
    assert scaled["setup_s"] == pytest.approx(0.25)
    assert scaled["run_s"] == pytest.approx(1.0)
    assert scaled["p50_us"] == pytest.approx(2 / 3)
    assert scaled["rounds"] == 3 and scaled["peak_rss_mb"] == 40.0
    assert run.op_summary(res, scaled=False)["run_s"] == 3.0
    for kind in calibrate.REFERENCE_S:
        assert 0 < calibrate.loop(kind) < 60
    with pytest.raises(ValueError):
        calibrate.loop("none")
