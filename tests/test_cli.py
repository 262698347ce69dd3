"""CLI surface: exit codes, CSV dumps, transcripts, reproducibility."""

import hashlib
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import mubqkd
from mubqkd import cli, gf, protocol
from mubqkd.cli import main
from mubqkd.entangle import joint_c_measure
from mubqkd.mub import basis_matrix
from mubqkd.protocol import SessionConfig, session_records, session_summary


def test_verify_clean_field(capsys):
    assert main(["verify", "--p", "3", "--n", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True
    assert report["basis_count"] == 4
    assert report["max_cross_deviation"] < 1e-9
    assert report["max_projection_deviation"] < 1e-12


def test_verify_extension_field(capsys):
    assert main(["verify", "--p", "3", "--n", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["d"] == 9 and report["basis_count"] == 10 and report["ok"]


def test_verify_exits_1_when_an_invariant_fails(capsys, monkeypatch):
    def wrong_outcome(spec, state, b, rng):
        outcome, post = joint_c_measure(spec, state, b, rng)
        return (outcome + 1) % spec.d, post

    monkeypatch.setattr(cli, "joint_c_measure", wrong_outcome)
    assert main(["verify", "--p", "3"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False and report["joint_measure_repeatable"] is False


def test_verify_rejects_composite_p(capsys):
    assert main(["verify", "--p", "4", "--n", "1"]) == 2


def _unreachable(*args):
    raise AssertionError("the field was built before its size was checked")


@pytest.mark.parametrize("flags, d", [
    (["--p", "5", "--n", "3"], "125"),
    (["--p", "3", "--n", "40"], "3^40"),
    (["--p", "10000000000000061"], "10000000000000061"),
], ids=["d125", "n40", "p1e16"])
def test_verify_rejects_oversize_dimension(capsys, monkeypatch, flags, d):
    monkeypatch.setattr(gf, "is_prime", _unreachable)
    monkeypatch.setattr(gf, "find_irreducible", _unreachable)
    assert main(["verify", *flags]) == 2
    assert capsys.readouterr().err == f"error: d = {d} exceeds --max-d 81\n"


@pytest.mark.parametrize("argv, d", [
    (["--p", "4294967311", "--rounds", "1"], "4294967311"),
    (["--p", "3", "--n", "40", "--rounds", "1"], "3^40"),
    ({"field": {"p": 4294967311}, "rounds": 1}, "4294967311"),
    ({"field": {"p": 3, "n": 40, "modulus": None}, "rounds": 1}, "3^40"),
], ids=["p-flag", "n-flag", "p-config", "n-config"])
def test_session_rejects_oversize_dimension(tmp_path, capsys, monkeypatch, argv, d):
    if isinstance(argv, dict):
        (tmp_path / "session.json").write_text(json.dumps(argv))
        argv = ["--config", str(tmp_path / "session.json")]
    monkeypatch.setattr(gf, "is_prime", _unreachable)
    monkeypatch.setattr(gf, "find_irreducible", _unreachable)
    assert main(["session", *argv, "--no-transcript", "--stats", str(tmp_path / "s.json")]) == 2
    assert capsys.readouterr().err == f"error: field: d = {d} exceeds the field limit 1048576\n"


def test_session_digit_tables_fit_in_8_d_bytes():
    """The digit table that a session reads for the largest field of each
    degree that session accepts takes at most 4 * d bytes."""
    limit = gf.MAX_D
    for n in range(1, int(math.log(limit, 3)) + 1):
        p = next(p for p in range(int(limit ** (1 / n)) + 1, 2, -1)
                 if p % 2 and gf.is_prime(p) and p ** n <= limit)
        spec = SessionConfig(field=gf.FieldSpec(p, n), rounds=1)._plan[0]
        tables = spec.digit_tables[1:] if n > 1 else ()
        assert sum(t.nbytes for t in tables) <= 4 * spec.d


def test_verify_rejects_no_samples(capsys):
    for samples in ("0", "-3"):
        assert main(["verify", "--p", "3", "--n", "2", "--samples", samples]) == 2
        assert capsys.readouterr().err.startswith("error: --samples must be at least 1")


def test_verify_rejects_negative_seed(capsys):
    assert main(["verify", "--p", "3", "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: --seed must be a non-negative integer, got -1\n"


def test_verify_rejects_too_many_samples(capsys, monkeypatch):
    """Each sample costs dense d-vector work, about 0.3 ms at d = 81: days at 10^9."""
    monkeypatch.setattr(cli, "_verify_report", _unreachable)
    assert main(["verify", "--p", "3", "--n", "2", "--samples", str(10 ** 9)]) == 2
    assert capsys.readouterr().err == "error: --samples must be at most 1000000, got 1000000000\n"


def test_verify_rejects_reducible_modulus():
    assert main(["verify", "--p", "3", "--n", "2", "--modulus", "2,0,1"]) == 2


def test_unknown_flag_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--p", "3", "--frobnicate"])
    assert exc.value.code == 2


def test_invalid_command_error_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'frobnicate'" in err
    assert re.findall("[a-z]+", err.split("choose from", 1)[1]) == list(cli._COMMANDS)
    assert list(cli._COMMANDS) == ["verify", "bases", "wigner", "session"]


@pytest.mark.parametrize("argv", [["-h"], ["verify", "-h"], ["bases", "-h"], ["wigner", "-h"],
                                  ["session", "-h"]], ids=lambda argv: argv[0])
def test_help_matches_the_full_parser(capsys, argv):
    """main builds only the named command's arguments; its help is the
    help of the parser that has them all."""
    with pytest.raises(SystemExit):
        cli._build_parser().parse_args(argv)
    full = capsys.readouterr().out
    with pytest.raises(SystemExit):
        main(argv)
    assert capsys.readouterr().out == full


@pytest.mark.parametrize("argv", [
    ["verify", "--p", "3", "junk"], ["bases", "--p", "3", "junk"],
    ["wigner", "--p", "5", "--b", "1", "--c", "2", "junk"],
    ["session", "--p", "3", "--rounds", "1", "junk"],
    ["session", "--p", "x"], ["verify", "--p"],
], ids=["verify-junk", "bases-junk", "wigner-junk", "session-junk", "bad-value", "no-value"])
def test_errors_match_the_full_parser(capsys, argv):
    """main builds only the named command's parser; its usage errors, some
    of which print the top-level usage, are those of the full parser."""
    with pytest.raises(SystemExit) as full:
        cli._build_parser().parse_args(argv)
    want = capsys.readouterr().err
    with pytest.raises(SystemExit) as got:
        main(argv)
    assert (got.value.code, capsys.readouterr().err) == (full.value.code, want)


def test_benchmark_sessions_match_their_pins(tmp_path, capsys, monkeypatch):
    """The benchmark's sessions at CLI seed 0, full and smoke sizes, write the
    transcripts whose sha256 perfbench/expected.json pins.  The d = 243 one
    runs the three-chunk field arithmetic, beyond the dense differential's
    d <= 25; the smoke d = 9 one meets Eve in Bob's basis in about 1 of 10
    Eve rounds."""
    bench = Path(__file__).resolve().parent.parent / "perfbench"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", bench / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)   # for its dataclass
    spec.loader.exec_module(workloads)
    seed = workloads.GOLDEN_CLI_SEED
    expected = json.loads((bench / "expected.json").read_text())
    for size, table in (("full", workloads.FULL), ("smoke", workloads.SMOKE)):
        pins = expected[size]
        assert set(pins) == set(table)
        for name, w in table.items():
            out = tmp_path / f"{size}-{name}.jsonl"
            assert main(w.argv(seed, str(out), str(tmp_path / "s.json"))) == w.expected_rc
            assert hashlib.sha256(out.read_bytes()).hexdigest() == pins[name][str(seed)], (size, name)


def test_three_chunk_session_with_a_delta_matches_its_pin(tmp_path):
    """A d = 243 swap session with delta != 0 and Eve on the quadratic bases
    runs the match c1p - (c1 - delta) over three chunks (q = 3), which the
    benchmark pins (delta = 0) and the dense differential (d <= 25) do not."""
    out = tmp_path / "t.jsonl"
    argv = ["session", "--p", "3", "--n", "5", "--rounds", "2000", "--mode", "swap", "--reps", "3",
            "--eve", "uniform-quadratic", "--delta", "200", "--check-frac", "0.3", "--seed", "9",
            "--out", str(out), "--stats", str(tmp_path / "s.json")]
    assert main(argv) == 3
    assert (hashlib.sha256(out.read_bytes()).hexdigest()
            == "0412bf2295b2685f05ad56428fc876430b706550ee2e61e19b8704233213609d")


def test_bases_csv(capsys):
    assert main(["bases", "--p", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "basis,b_index,c_index,n_index,re,im"
    assert len(lines) == 1 + 4 * 3 * 3
    first = lines[1].split(",")
    assert first[:4] == ["quadratic", "0", "0", "0"]
    assert float(first[4]) == pytest.approx(1 / 3 ** 0.5)
    comp = [ln for ln in lines[1:] if ln.startswith("computational")]
    assert len(comp) == 9
    assert comp[0].split(",")[1] == "-1"


def test_bases_rejects_oversize_dimension(capsys, monkeypatch):
    monkeypatch.setattr(gf, "is_prime", _unreachable)
    monkeypatch.setattr(gf, "find_irreducible", _unreachable)
    assert main(["bases", "--p", "3", "--n", "5"]) == 2
    assert capsys.readouterr().err == "error: d = 243 exceeds --max-d 81\n"


def test_bases_csv_rows_equal_basis_matrix(capsys):
    spec = gf.FieldSpec(3, 2)
    assert main(["bases", "--p", "3", "--n", "2"]) == 0
    rows = [ln.split(",") for ln in capsys.readouterr().out.splitlines()[1:]]
    assert len(rows) == (spec.d + 1) * spec.d ** 2
    for fam, b, c, n, re, im in rows:
        basis = spec.d if b == "-1" else int(b)
        assert fam == ("computational" if basis == spec.d else "quadratic")
        assert complex(float(re), float(im)) == basis_matrix(spec, basis)[int(c), int(n)]


def test_bases_leaves_the_basis_cache_empty(capsys):
    # the d+1 matrices would hold 16 * d^3 bytes in the cache; bases reads
    # each one once
    basis_matrix.cache_clear()
    assert main(["bases", "--p", "5", "--n", "2"]) == 0
    assert basis_matrix.cache_info().currsize == 0


def test_bases_rows_hold_one_state_at_a_time():
    # a d x d basis at d = 2187 would be 73 MiB of amplitudes
    rows = cli._basis_rows(gf.FieldSpec(3, 7))
    tracemalloc.start()
    try:
        head = [next(rows) for _ in range(10)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert head[0].startswith("quadratic,0,0,0,") and head[9].startswith("quadratic,0,0,9,")
    assert peak < 2 ** 20


def test_wigner_single_csv(capsys):
    assert main(["wigner", "--p", "3", "--b", "1", "--c", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "q,p,value"
    assert len(lines) == 10
    nonzero = {}
    for ln in lines[1:]:
        q, p, v = ln.split(",")
        if abs(float(v)) > 1e-10:
            nonzero[(int(q), int(p))] = float(v)
    assert set(nonzero) == {(0, 0), (1, 2), (2, 1)}
    assert all(v == pytest.approx(1 / 3, abs=1e-10) for v in nonzero.values())


def test_wigner_pair_csv(capsys):
    assert main(["wigner", "--p", "3", "--b", "0", "--c", "0", "--pair"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "q1,p1,q2,p2,value"
    assert len(lines) == 10
    for ln in lines[1:]:
        q1, p1, q2, p2, v = ln.split(",")
        assert q1 == q2
        assert (int(p1) + int(p2)) % 3 == 0
        assert float(v) == pytest.approx(1 / 9, abs=1e-10)


def test_wigner_rejects_composite_and_extensions(capsys):
    assert main(["wigner", "--p", "9", "--b", "0", "--c", "0"]) == 2
    assert main(["wigner", "--p", "3", "--n", "2", "--b", "0", "--c", "0"]) == 2
    assert main(["wigner", "--p", "3", "--b", "5", "--c", "0"]) == 2


def test_wigner_rejects_oversize_dimension(capsys, monkeypatch):
    monkeypatch.setattr(gf, "is_prime", _unreachable)
    monkeypatch.setattr(gf, "find_irreducible", _unreachable)
    assert main(["wigner", "--p", "83", "--b", "0", "--c", "0", "--pair"]) == 2
    assert capsys.readouterr().err == "error: d = 83 exceeds --max-d 81\n"


@pytest.mark.parametrize("pair", [[], ["--pair"]], ids=["single", "pair"])
def test_wigner_opens_out_before_it_computes(tmp_path, capsys, monkeypatch, pair):
    def no_table(*args):
        raise AssertionError("a Wigner table was computed before --out was opened")

    monkeypatch.setattr(cli, "dwigner1", no_table)
    monkeypatch.setattr(cli, "dwigner2_support", no_table)
    monkeypatch.chdir(tmp_path)
    assert main(["wigner", "--p", "3", "--b", "1", "--c", "2", *pair, "--out", "nodir/w.csv"]) == 2
    assert capsys.readouterr().err == (
        "error: --out: [Errno 2] No such file or directory: 'nodir/w.csv'\n")


@pytest.mark.parametrize("exc, err", [
    (MemoryError("Unable to allocate 32.0 GiB"), "error: Unable to allocate 32.0 GiB\n"),
    (MemoryError(), "error: MemoryError\n"),
], ids=["numpy", "bare"])
def test_refused_allocation_is_exit_2(tmp_path, capsys, monkeypatch, exc, err):
    """An allocation that numpy or Python refuses is an error line and exit 2,
    not a traceback and exit 1, which means an invariant failed."""
    def no_memory(*args):
        raise exc

    monkeypatch.setattr(cli, "dwigner1", no_memory)
    assert main(["wigner", "--p", "3", "--b", "1", "--c", "2",
                 "--out", str(tmp_path / "w.csv")]) == 2
    assert capsys.readouterr().err == err


def test_wigner_deterministic_output(capsys):
    assert main(["wigner", "--p", "5", "--b", "2", "--c", "3"]) == 0
    first = capsys.readouterr().out
    assert main(["wigner", "--p", "5", "--b", "2", "--c", "3"]) == 0
    assert capsys.readouterr().out == first


def test_session_opens_stats_before_the_first_round(tmp_path, capsys, monkeypatch):
    def no_round(*args):
        raise AssertionError("a round ran before the stats file was opened")

    monkeypatch.setattr(protocol, "run_round", no_round)
    assert main(["session", "--p", "7", "--rounds", "50000", "--out", str(tmp_path / "t.jsonl"),
                 "--stats", str(tmp_path / "missing" / "s.json")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("out, stats", [("same.json", "same.json"), ("same.json", "./same.json"),
                                        ("same.json", "link.json"), ("new.json", "./new.json")],
                         ids=["same", "dot-slash", "hard-link", "new"])
def test_session_refuses_one_file_for_out_and_stats(tmp_path, capsys, monkeypatch, out, stats):
    def no_round(*args):
        raise AssertionError("a round ran")

    (tmp_path / "same.json").write_text("kept\n")
    (tmp_path / "link.json").hardlink_to(tmp_path / "same.json")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(protocol, "run_round", no_round)
    assert main(["session", "--p", "7", "--rounds", "50", "--out", out, "--stats", stats]) == 2
    assert capsys.readouterr().err == f"error: --out and --stats name one file: {stats}\n"
    assert (tmp_path / "same.json").read_text() == "kept\n"
    assert not (tmp_path / "new.json").exists()


def test_session_reads_its_config_before_it_opens_its_files(tmp_path, capsys, monkeypatch):
    """A config error comes before the output files are opened or checked."""
    monkeypatch.chdir(tmp_path)
    assert main(["session", "--p", "4", "--rounds", "5", "--out", "same.json",
                 "--stats", "same.json"]) == 2
    assert capsys.readouterr().err == "error: field: p must be an odd prime, got 4\n"
    assert os.listdir(tmp_path) == []


def test_session_allows_devnull_for_out_and_stats(capsys):
    assert main(["session", "--p", "3", "--rounds", "5", "--out", os.devnull,
                 "--stats", os.devnull]) == 0


@pytest.mark.parametrize("kept, before", [("out", b"kept\n"), ("stats", b"kept\n"), ("out", None)],
                         ids=["out", "stats", "new-out"])
def test_refused_session_truncates_nothing(tmp_path, capsys, kept, before):
    """A refused path leaves the other file as it was: its bytes, or no file
    where there was none."""
    keep = tmp_path / "keep.txt"
    if before is not None:
        keep.write_bytes(before)
    paths = {"out": str(tmp_path / "missing" / "t.jsonl"),
             "stats": str(tmp_path / "missing" / "s.json"), kept: str(keep)}
    assert main(["session", "--p", "3", "--rounds", "5", "--out", paths["out"],
                 "--stats", paths["stats"]]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert (keep.read_bytes() if keep.exists() else None) == before


@pytest.mark.parametrize("argv, flag, path", [
    (["session", "--config", "missing.json"], "--config", "missing.json"),
    (["session", "--p", "3", "--rounds", "5", "--out", "nodir/t.jsonl"], "--out", "nodir/t.jsonl"),
    (["session", "--p", "3", "--rounds", "5", "--stats", "nodir/s.json"], "--stats", "nodir/s.json"),
    (["bases", "--p", "3", "--out", "nodir/b.csv"], "--out", "nodir/b.csv"),
    (["wigner", "--p", "3", "--b", "1", "--c", "2", "--out", "nodir/w.csv"], "--out", "nodir/w.csv"),
], ids=["session-config", "session-out", "session-stats", "bases-out", "wigner-out"])
def test_path_errors_name_their_flag(tmp_path, capsys, monkeypatch, argv, flag, path):
    """A path that cannot be opened exits 2 with an error that starts with
    its flag, and leaves no file behind."""
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {flag}: [Errno 2] No such file or directory: '{path}'\n"
    assert os.listdir(tmp_path) == []


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv, flag", [
    (["bases", "--p", "3", "--out", "/dev/full"], "--out"),
    (["wigner", "--p", "5", "--b", "1", "--c", "2", "--out", "/dev/full"], "--out"),
    (["session", "--p", "7", "--rounds", "20", "--out", "/dev/full", "--stats", "s.json"], "--out"),
    (["session", "--p", "7", "--rounds", "2000", "--out", "/dev/full", "--stats", "s.json"],
     "--out"),
    (["session", "--p", "7", "--rounds", "20", "--out", "t.jsonl", "--stats", "/dev/full"],
     "--stats"),
], ids=["bases-out", "wigner-out", "session-out-at-close", "session-out-mid-run",
        "session-stats"])
def test_output_errors_name_their_flag(tmp_path, capsys, monkeypatch, argv, flag):
    """A write or close that fails on a named output file exits 2 with an
    error that starts with its flag; 20 rounds fail at the close, 2000 in
    the run."""
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {flag}: [Errno 28] No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_lost_transcript_leaves_no_summary(tmp_path, capsys, monkeypatch):
    """A transcript that fails only when it is flushed fails before the
    summary is written, so --stats holds no summary of a lost session."""
    monkeypatch.chdir(tmp_path)
    argv = ["session", "--p", "7", "--rounds", "20", "--out", "/dev/full", "--stats", "s.json"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: --out: [Errno 28] No space left on device\n"
    assert (tmp_path / "s.json").read_bytes() == b""


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_out_pipe_closed_by_its_reader_names_its_flag(tmp_path):
    """A named --out pipe whose reader leaves early is a failed write, exit
    2 naming --out; the silent 141 is stdout's alone."""
    fifo = tmp_path / "t.fifo"
    os.mkfifo(fifo)
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(mubqkd.__file__))}
    reader = subprocess.Popen([sys.executable, "-c",
                               "import sys; open(sys.argv[1], 'rb').read(100)", str(fifo)])
    try:
        proc = subprocess.run([sys.executable, "-m", "mubqkd.cli", "session", "--p", "7",
                               "--rounds", "20000", "--out", str(fifo),
                               "--stats", str(tmp_path / "s.json")],
                              env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=60)
    finally:
        reader.kill()
        reader.wait(timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, b"", b"error: --out: [Errno 32] Broken pipe\n")


@pytest.mark.parametrize("flag", ["--out", "--stats"])
def test_session_refuses_the_file_stdout_writes_to(tmp_path, flag):
    """A session whose --out or --stats is the regular file that stdout is
    redirected to would write over its own records or summary; a pipe is
    fine."""
    paths = {"--out": "t.jsonl", "--stats": "s.json", flag: "/dev/stdout"}
    argv = [sys.executable, "-m", "mubqkd.cli", "session", "--p", "7", "--rounds", "3",
            "--out", paths["--out"], "--stats", paths["--stats"]]
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(mubqkd.__file__))}
    with open(tmp_path / "o.txt", "w") as stdout:
        proc = subprocess.run(argv, cwd=tmp_path, env=env, stdout=stdout, stderr=subprocess.PIPE,
                              timeout=60)
    assert (proc.returncode, proc.stderr) == (
        2, f"error: {flag} names the file that stdout writes to: /dev/stdout\n".encode())
    assert os.listdir(tmp_path) == ["o.txt"] and (tmp_path / "o.txt").read_bytes() == b""
    piped = subprocess.run(argv, cwd=tmp_path, env=env, stdout=subprocess.PIPE, timeout=60)
    *written, line = piped.stdout.decode().splitlines(keepends=True)
    assert piped.returncode == 0 and line.startswith("session d=7 rounds=3 ")
    if flag == "--out":
        assert [json.loads(rec)["round"] for rec in written] == [0, 1, 2]
    else:
        assert json.loads("".join(written))["rounds"] == 3


def test_session_refuses_one_pipe_for_out_and_stats():
    """--out and --stats on one pipe would each flush their own buffer into
    it, the summary landing amid the records."""
    argv = [sys.executable, "-m", "mubqkd.cli", "session", "--p", "7", "--rounds", "2000",
            "--seed", "1", "--out", "/dev/stdout", "--stats", "/dev/stdout"]
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(mubqkd.__file__))}
    proc = subprocess.run(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, b"", b"error: --out and --stats name one file: /dev/stdout\n")


def test_closed_stdout_pipe_exits_141_silently():
    # bases at d = 27 writes about 0.9 MB, more than a pipe buffer holds
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(mubqkd.__file__))}
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.Popen([sys.executable, "-m", "mubqkd.cli", "bases", "--p", "3", "--n", "3"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"basis,b_index,c_index,n_index,re,im\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (141, b"")


def test_session_clean_run(tmp_path, capsys):
    out = tmp_path / "transcript.jsonl"
    stats = tmp_path / "stats.json"
    code = main(["session", "--p", "7", "--rounds", "50", "--seed", "42",
                 "--out", str(out), "--stats", str(stats)])
    assert code == 0
    verdict = capsys.readouterr().out
    assert "detected=False" in verdict and "ber=0.000000" in verdict
    records = [json.loads(ln) for ln in out.read_text().splitlines()]
    assert len(records) == 50
    assert all(r["round"] == i for i, r in enumerate(records))
    summary = json.loads(stats.read_text())
    assert summary["v"] == 1
    assert summary["bit_error_rate"] == 0.0
    assert summary["config"]["field"] == {"p": 7, "n": 1, "modulus": [0, 1]}


def test_session_detects_eavesdropper(tmp_path, capsys):
    code = main(["session", "--p", "3", "--rounds", "400", "--check-frac", "1.0",
                 "--eve", "uniform-all", "--seed", "42",
                 "--out", str(tmp_path / "t.jsonl"), "--stats", str(tmp_path / "s.json")])
    assert code == 3
    assert "detected=True" in capsys.readouterr().out


def test_session_byte_identical_reruns(tmp_path, capsys):
    args = ["session", "--p", "7", "--rounds", "120", "--check-frac", "0.3",
            "--mode", "swap", "--reps", "2", "--eve", "uniform-quadratic",
            "--delta", "3", "--seed", "9"]
    paths = []
    for tag in ("a", "b"):
        out = tmp_path / f"t_{tag}.jsonl"
        stats = tmp_path / f"s_{tag}.json"
        main(args + ["--out", str(out), "--stats", str(stats)])
        paths.append((out.read_bytes(), stats.read_bytes()))
    assert paths[0] == paths[1]


def test_session_no_transcript(tmp_path, capsys):
    out = tmp_path / "t.jsonl"
    stats = tmp_path / "s.json"
    code = main(["session", "--p", "3", "--rounds", "10", "--no-transcript",
                 "--out", str(out), "--stats", str(stats)])
    assert code == 0
    assert not out.exists()
    assert stats.exists()


def test_session_streams_what_session_records_yields(tmp_path, capsys):
    out, stats = tmp_path / "t.jsonl", tmp_path / "s.json"
    code = main(["session", "--p", "3", "--n", "2", "--rounds", "300", "--check-frac", "0.4",
                 "--mode", "swap", "--reps", "2", "--eve", "uniform-all", "--seed", "13",
                 "--out", str(out), "--stats", str(stats)])
    cfg = SessionConfig.from_json(json.loads(stats.read_text())["config"])
    records = list(session_records(cfg))
    summary = session_summary(cfg, records)
    assert code == (3 if summary["eavesdropper_detected"] else 0)
    assert out.read_text() == "".join(json.dumps(rec.to_json()) + "\n" for rec in records)
    assert stats.read_text() == json.dumps(summary, indent=2) + "\n"


@pytest.mark.parametrize("sink", ["--no-transcript", "--out"])
def test_session_memory_is_bounded(tmp_path, capsys, sink):
    import numpy.random  # noqa: F401  (imported lazily; not session memory)
    argv = ["session", "--p", "7", "--mode", "swap", "--reps", "2", "--rounds", "20000",
            "--stats", str(tmp_path / "s.json")]
    argv += [sink] if sink == "--no-transcript" else [sink, str(tmp_path / "t.jsonl")]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a kept record costs about 250 bytes, so 20000 of them would be near 5 MiB
    assert peak < 2 ** 20


def test_session_config_file(tmp_path, capsys):
    cfg = {
        "field": {"p": 5, "n": 1},
        "rounds": 30,
        "check_fraction": 0.5,
        "mode": "oracle",
        "eve": {"kind": "none"},
        "delta_offset": 2,
        "pair_label": [1, 4],
        "seed": 3,
    }
    cfg_path = tmp_path / "session.json"
    cfg_path.write_text(json.dumps(cfg))
    code = main(["session", "--config", str(cfg_path),
                 "--out", str(tmp_path / "t.jsonl"), "--stats", str(tmp_path / "s.json")])
    assert code == 0
    summary = json.loads((tmp_path / "s.json").read_text())
    assert summary["config"]["pair_label"] == [1, 4]
    assert summary["config"]["delta_offset"] == 2


SESSION_FLAG_VALUES = {
    "--p": "3", "--n": "1", "--modulus": "0,1", "--rounds": "5", "--check-frac": "0.5",
    "--mode": "swap", "--reps": "2", "--eve": "uniform-all", "--delta": "1", "--b": "1",
    "--c": "2", "--seed": "5",
}


@pytest.mark.parametrize("flag", list(SESSION_FLAG_VALUES))
def test_session_config_conflicts_with_flags(tmp_path, capsys, flag):
    cfg_path = tmp_path / "session.json"
    cfg_path.write_text(json.dumps({"field": {"p": 3}, "rounds": 5}))
    assert main(["session", "--config", str(cfg_path), flag, SESSION_FLAG_VALUES[flag],
                 "--out", str(tmp_path / "t.jsonl"), "--stats", str(tmp_path / "s.json")]) == 2
    assert capsys.readouterr().err == f"error: --config cannot be combined with {flag}\n"


@pytest.mark.parametrize("flags, config", [
    (["--p", "7", "--rounds", "40"],
     {"field": {"p": 7, "n": 1, "modulus": [0, 1]}, "rounds": 40, "check_fraction": 0.1,
      "mode": "oracle", "swap_repetitions": 1,
      "eve": {"kind": "none", "picker": "uniform_all", "fixed_basis": None},
      "delta_offset": 0, "pair_label": None, "seed": 0}),
    (["--p", "3", "--n", "2", "--modulus", "2,1,1", "--rounds", "60", "--check-frac", "0.4",
      "--mode", "swap", "--reps", "3", "--eve", "fixed:4", "--delta", "5", "--b", "3", "--c", "7",
      "--seed", "11"],
     {"field": {"p": 3, "n": 2, "modulus": [2, 1, 1]}, "rounds": 60, "check_fraction": 0.4,
      "mode": "swap", "swap_repetitions": 3,
      "eve": {"kind": "intercept_resend", "picker": "fixed", "fixed_basis": 4},
      "delta_offset": 5, "pair_label": [3, 7], "seed": 11}),
], ids=["defaults", "every-flag"])
def test_session_flags_equal_config(tmp_path, capsys, flags, config):
    def run(args, tag):
        out, stats = tmp_path / f"t_{tag}.jsonl", tmp_path / f"s_{tag}.json"
        code = main(["session", *args, "--out", str(out), "--stats", str(stats)])
        return code, out.read_bytes(), stats.read_bytes()

    by_flags = run(flags, "flags")
    assert by_flags[0] in (0, 3)
    assert json.loads(by_flags[2])["config"] == config
    cfg_path = tmp_path / "session.json"
    cfg_path.write_text(json.dumps(config))
    assert run(["--config", str(cfg_path)], "config") == by_flags


def test_session_flag_validation(tmp_path, capsys):
    assert main(["session", "--p", "3"]) == 2                       # missing rounds
    assert main(["session", "--p", "3", "--rounds", "5", "--b", "1",
                 "--out", str(tmp_path / "t"), "--stats", str(tmp_path / "s")]) == 2
    assert main(["session", "--p", "3", "--rounds", "5", "--eve", "sneaky",
                 "--out", str(tmp_path / "t"), "--stats", str(tmp_path / "s")]) == 2


def test_session_negative_seed_flag(tmp_path, capsys):
    assert main(["session", "--p", "3", "--rounds", "5", "--seed", "-1",
                 "--out", str(tmp_path / "t"), "--stats", str(tmp_path / "s")]) == 2
    assert capsys.readouterr().err.startswith("error: seed: ")


@pytest.mark.parametrize("doc, path", [
    ({"rounds": 5}, "field"),
    ({"field": {"p": 3}, "rounds": 5,
      "eve": {"kind": "intercept_resend", "picker": "fixed", "fixed_basis": "1"}},
     "eve.fixed_basis"),
    ([{"field": {"p": 3}, "rounds": 5}], "config"),
    ({"field": {"p": 3}, "rounds": 5, "pair_label": [1]}, "pair_label"),
    ({"field": {"p": 3}, "rounds": 5, "seed": -1}, "seed"),
    ({"field": {"p": 3}, "rounds": 5, "sede": 7, "check_fracton": 0.9}, "sede"),
    ({"field": {"p": 3}, "rounds": 5, "eve": {"kind": "none", "pickr": "fixed"}}, "eve.pickr"),
    ({"field": {"p": 3, "degree": 2}, "rounds": 5}, "field: degree"),
    ({"field": {"p": 3, "modulus": 0}, "rounds": 5}, "field: modulus"),
    ({"field": {"p": 3, "modulus": False}, "rounds": 5}, "field: modulus"),
    ({"field": {"p": 3}, "rounds": 5, "pair_label": [1, 2, 3]}, "pair_label"),
    ({"field": {"p": 3}, "rounds": 5, "pair_label": [0, 3]}, "pair_label"),
    ({"field": {"p": 3}, "rounds": 5, "pair_label": [-1, 0]}, "pair_label"),
    ({"field": {"p": 3}, "rounds": 5, "delta_offset": 3}, "delta_offset"),
    ({"field": {"p": 3}, "rounds": 5, "delta_offset": -1}, "delta_offset"),
    ({"field": {"p": 3}, "rounds": 0}, "rounds"),
    ({"field": {"p": 3}, "rounds": 5, "check_fraction": 2.0}, "check_fraction"),
    ({"field": {"p": 3}, "rounds": 5, "mode": "guess"}, "mode"),
    ({"field": {"p": 3}, "rounds": 5, "swap_repetitions": 0}, "swap_repetitions"),
    ({"field": {"p": 3}, "rounds": 5, "eve": {"kind": "x"}}, "eve.kind"),
    ({"field": {"p": 3}, "rounds": 5, "eve": {"kind": "intercept_resend", "picker": "x"}},
     "eve.picker"),
    ({"field": {"p": 3}, "rounds": 5, "eve": {"kind": "intercept_resend", "picker": "fixed"}},
     "eve.fixed_basis"),
    ({"field": {"p": 3}, "rounds": 1,
      "eve": {"kind": "intercept_resend", "picker": "fixed", "fixed_basis": 99}},
     "eve.fixed_basis"),
    # a file that is not UTF-8, or not JSON
    (b"\xff\xfe", "--config"),
    (b"{x", "--config"),
    (b"[", "--config"),
])
def test_session_bad_config_is_a_config_error(tmp_path, capsys, doc, path):
    cfg_path = tmp_path / "session.json"
    cfg_path.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
    code = main(["session", "--config", str(cfg_path),
                 "--out", str(tmp_path / "t.jsonl"), "--stats", str(tmp_path / "s.json")])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


def test_session_deeply_nested_config_is_a_config_error(tmp_path, capsys):
    cfg_path = tmp_path / "session.json"
    cfg_path.write_text("[" * 100_000 + "]" * 100_000)
    code = main(["session", "--config", str(cfg_path), "--no-transcript",
                 "--stats", str(tmp_path / "s.json")])
    assert code == 2
    assert capsys.readouterr().err == "error: --config: document nested too deeply\n"


@pytest.mark.parametrize("text, prefix", [
    ('{"field": {"p": ' + "[" * 500 + "]" * 500 + '}, "rounds": 5}',
     "error: field: p: expected an integer, got [[["),
    (json.dumps({"field": {"p": 3}, "rounds": 5, "mode": "x" * 100_000}),
     "error: mode: unknown mode 'xxx"),
    (json.dumps({"field": {"p": 3}, "rounds": 5, "eve": {"kind": "x" * 100_000}}),
     "error: eve.kind: unknown eavesdropper kind 'xxx"),
    (json.dumps({"field": {"p": 3, "modulus": "x" * 100_000}, "rounds": 5}),
     "error: field: modulus: expected a sequence, got 'xxx"),
    (json.dumps({"field": {"p": 3, "modulus": [0] * 100_000}, "rounds": 5}),
     "error: field: modulus must be monic of degree 1, got [0, 0, "),
], ids=["deep-p", "mode", "eve-kind", "modulus-string", "modulus-entries"])
def test_error_line_is_bounded(tmp_path, capsys, text, prefix):
    cfg_path = tmp_path / "session.json"
    cfg_path.write_text(text)
    code = main(["session", "--config", str(cfg_path), "--no-transcript",
                 "--stats", str(tmp_path / "s.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and err.endswith("…\n")
    assert len(err) <= len("error: \n") + 200
    assert err.startswith(prefix)


# Small JSON values of every kind, with the NaN and infinities json reads.
_SMALL_INTS = st.integers(-3, 12)
_JSON = st.recursive(
    st.none() | st.booleans() | _SMALL_INTS | st.text(max_size=3)
    | st.floats(-3, 12) | st.sampled_from([math.nan, math.inf, -math.inf]),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=3), kids,
                                                              max_size=3),
    max_leaves=6)


def _docs(required: dict, optional: dict):
    """Objects with these keys, each value drawn from its strategy; in about
    one of four, one key, known or not, is set to any small JSON value."""
    keys = st.sampled_from([*required, *optional]) | st.text(max_size=4)
    return st.builds(lambda doc, edit, key, value: {**doc, key: value} if edit else doc,
                     st.fixed_dictionaries(required, optional=optional),
                     st.sampled_from([False, False, False, True]), keys, _JSON)


# Well-typed values mostly in range; _docs adds the wrong types and the rest.
# p^n reaches past the session limit of 2^20 (101^3 is just below it).
_FIELD_DOCS = _docs({"p": st.sampled_from([3, 5, 7, 11, 13, 101, 1031, 4294967311])},
                    {"n": st.integers(1, 7),
                     "modulus": st.sampled_from([[0, 1], [1, 0, 1], [2, 1, 1], [1, 2, 0, 1]])}
                    ).filter(lambda f: not (type(f.get("n")) is int and f["n"] > 7))
_EVE_DOCS = _docs({"kind": st.sampled_from(["none", "intercept_resend"])},
                  {"picker": st.sampled_from(["fixed", "uniform_quadratic", "uniform_all"]),
                   "fixed_basis": _SMALL_INTS})
_CONFIG_DOCS = _docs({"field": _FIELD_DOCS, "rounds": st.integers(1, 20)},
                     {"check_fraction": st.floats(0, 1),
                      "mode": st.sampled_from(["oracle", "swap"]),
                      "swap_repetitions": st.integers(1, 4), "eve": _EVE_DOCS,
                      "delta_offset": st.integers(0, 4),
                      "pair_label": st.lists(st.integers(0, 4), min_size=2, max_size=2),
                      "seed": st.integers(0, 12)})


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(doc=_JSON | _CONFIG_DOCS)
def test_any_config_document_runs_or_is_a_config_error(tmp_path, capsys, doc):
    """Every JSON document either runs a session (0 or 3) or exits 2 with
    an error line; no exception escapes main.

    n is at most 7 and p up to 4294967311, so d ranges from 3 to far past
    the field limit, which must exit 2, and with the field's own line
    whenever the field is the document's only error.  Other integers stay in
    [-3, 20]: rounds at most 20 and swap repetitions at most 12, since a
    large round or repetition count would make a correct program slow, not
    wrong.
    """
    cfg_path = tmp_path / "session.json"
    cfg_path.write_text(json.dumps(doc))
    code = main(["session", "--config", str(cfg_path), "--no-transcript",
                 "--stats", str(tmp_path / "s.json")])
    err = capsys.readouterr().err
    assert code in (0, 2, 3)
    assert (code == 2) == err.startswith("error: ")
    field = doc.get("field") if isinstance(doc, dict) else None
    if isinstance(field, dict):
        p, n = field.get("p"), 1 if field.get("n") is None else field.get("n")
        if type(p) is int and type(n) is int and n >= 1 and p ** n > gf.MAX_D:
            assert code == 2
            if set(field) <= {"p", "n", "modulus"} and _is_config({**doc, "field": {"p": 23}}):
                assert err.startswith("error: field: d = "), err


def _is_config(doc) -> bool:
    try:
        SessionConfig.from_json(doc)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("argv, err", [
    (["session", "--p", "3", "--rounds", "5", "--eve", "fixed:x"],
     "error: --eve: fixed basis must be an integer, got 'x'\n"),
    (["session", "--p", "3", "--n", "2", "--rounds", "5", "--modulus", "1,x,1"],
     "error: --modulus: coefficient must be an integer, got 'x'\n"),
    (["verify", "--p", "3", "--n", "2", "--modulus", "1,x,1"],
     "error: --modulus: coefficient must be an integer, got 'x'\n"),
], ids=["session-eve", "session-modulus", "verify-modulus"])
def test_flag_parse_errors_name_the_flag(tmp_path, capsys, argv, err):
    if argv[0] == "session":
        argv = argv + ["--out", str(tmp_path / "t.jsonl"), "--stats", str(tmp_path / "s.json")]
    assert main(argv) == 2
    assert capsys.readouterr().err == err
