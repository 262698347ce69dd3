"""The mubqkd command and the experiment scripts, each run in a process of its
own as a shell runs them: exit codes, time windows and peak RSS bounds; and
the README's library example."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mubqkd

ROOT = Path(__file__).resolve().parent.parent
ENV = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(mubqkd.__file__))}
MUBQKD = [sys.executable, "-m", "mubqkd.cli"]
SWEEP = [sys.executable, str(ROOT / "scripts" / "detection_sweep.py")]
SOUNDNESS = [sys.executable, str(ROOT / "scripts" / "swap_soundness.py")]
LIBRARY_SESSION = [sys.executable, "-c",
                   "from mubqkd import FieldSpec, SessionConfig, session_records, session_summary; "
                   "cfg = SessionConfig(field=FieldSpec(7, 1), rounds=200000); "
                   "session_summary(cfg, session_records(cfg))"]


# A bare interpreter that runs argv, then prints argv's exit code and the peak
# RSS of argv's process as os.wait4 reports it: KiB on Linux, bytes on macOS.
# On Linux, exec starts a process's peak at the peak of the process it
# replaces, so a child of pytest, itself near 40 MiB, would read at least that
# much.
RSS_PER_MIB = 1024 * 1024 if sys.platform == "darwin" else 1024
MEASURE = [sys.executable, "-S", "-c",
           "import os, subprocess, sys\n"
           "child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
           "_, status, usage = os.wait4(child.pid, 0)\n"
           "child.returncode = os.waitstatus_to_exitcode(status)\n"
           "print(child.returncode, usage.ru_maxrss)\n"]


def run(argv, cwd, window=None):
    """argv's exit code and the peak RSS of its process in MiB.  With a
    window, argv runs under timeout(1), which stops it after that many
    seconds with exit 124."""
    if window is not None:
        argv = ["timeout", str(window), *argv]
    out = subprocess.run([*MEASURE, *argv], cwd=cwd, env=ENV, stdout=subprocess.PIPE,
                         check=True).stdout.split()
    return int(out[0]), int(out[1]) / RSS_PER_MIB


def case(name, argv, window=None, code=0, limit=None):
    """A row of test_command: no window, exit 0 and no RSS limit by default."""
    return pytest.param(argv, window, code, limit, id=name)


@pytest.mark.parametrize("argv, window, code, limit", [
    # memory does not grow with rounds, from the CLI or the library
    case("session-200k", [*MUBQKD, "session", "--p", "7", "--rounds", "200000",
                          "--no-transcript", "--stats", "mem.json"], limit=64),
    case("library-session-200k", LIBRARY_SESSION, limit=64),
    # the dense commands at large accepted d
    case("wigner-pair-p79", [*MUBQKD, "wigner", "--p", "79", "--b", "1", "--c", "2", "--pair",
                             "--out", "p79.csv"], window=120, limit=128),
    case("bases-d81", [*MUBQKD, "bases", "--p", "3", "--n", "4", "--out", "b81.csv"], limit=64),
    case("bases-d125", [*MUBQKD, "bases", "--p", "5", "--n", "3", "--max-d", "125",
                        "--out", "b125.csv"], limit=45),
    case("bases-d19683-10s", [*MUBQKD, "bases", "--p", "3", "--n", "9", "--max-d", "20000",
                              "--out", os.devnull], window=10, code=124, limit=64),
    # command runs with no in-process twin
    case("bases-d9", [*MUBQKD, "bases", "--p", "3", "--n", "2", "--out", "bases.csv"]),
    case("wigner-pair-p5", [*MUBQKD, "wigner", "--p", "5", "--b", "2", "--c", "3", "--pair",
                            "--out", "pair.csv"]),
    # the default modulus of a large field, found without exhaustive search
    case("session-d923521", [*MUBQKD, "session", "--p", "31", "--n", "4", "--rounds", "1",
                             "--no-transcript", "--stats", "d923521.json"], window=20, limit=52),
    case("session-d531441", [*MUBQKD, "session", "--p", "3", "--n", "12", "--rounds", "1",
                             "--no-transcript", "--stats", "d531441.json"], window=20, limit=46),
    case("session-d2187-eve", [*MUBQKD, "session", "--p", "3", "--n", "7", "--eve", "uniform-all",
                               "--check-frac", "0.5", "--rounds", "300", "--out", "d2187.jsonl",
                               "--stats", "d2187.json"], code=3),
    case("bases-max-d-above-limit", [*MUBQKD, "bases", "--p", "3", "--n", "13",
                                     "--max-d", "2000000"], window=20, code=2),
    # an agreeing swap comparison skips its words, so a round does not grow with --reps
    case("session-unbounded-reps", [*MUBQKD, "session", "--p", "7", "--rounds", "10", "--mode",
                                    "swap", "--reps", "99999999999999999999", "--no-transcript",
                                    "--stats", "s.json"], window=30),
    case("verify-d81", [*MUBQKD, "verify", "--p", "3", "--n", "4"]),
    case("verify-d49", [*MUBQKD, "verify", "--p", "7", "--n", "2"]),
    # the experiment scripts
    case("detection-sweep", [*SWEEP, "--rounds", "100"]),
    case("swap-soundness", [*SOUNDNESS, "--rounds", "200", "--max-reps", "3"]),
    # an unwritable --out is refused before the sweep
    case("detection-sweep-bad-out", [*SWEEP, "--rounds", "100", "--out", "nodir/x.csv"], code=2),
    case("swap-soundness-bad-out", [*SOUNDNESS, "--rounds", "200", "--max-reps", "3", "--out",
                                    "nodir/x.csv"], code=2),
    # so is a bad argument, naming its flag
    case("detection-sweep-no-rounds", [*SWEEP, "--rounds", "0"], code=2),
    case("detection-sweep-negative-seed", [*SWEEP, "--seed", "-8"], code=2),
    case("swap-soundness-no-rounds", [*SOUNDNESS, "--rounds", "0"], code=2),
    case("swap-soundness-negative-seed", [*SOUNDNESS, "--seed", "-20"], code=2),
    case("swap-soundness-p-not-prime", [*SOUNDNESS, "--p", "9"], code=2),
])
def test_command(tmp_path, argv, window, code, limit):
    """argv exits with code (124: still running when its window closed) and,
    where a limit in MiB is given, peaks at or below it."""
    got, peak = run(argv, tmp_path, window)
    assert got == code
    if limit is not None:
        assert peak <= limit, f"peak RSS {peak:.1f} MiB, limit {limit} MiB"


def test_swap_soundness_leaves_the_rate_of_a_level_without_bit0_rounds_empty(tmp_path):
    """At one round per level, some levels play no bit-0 round; their
    misdecode_rate is empty, and the levels that play one have a rate."""
    assert run([*SOUNDNESS, "--rounds", "1", "--out", "one.csv"], tmp_path)[0] == 0
    rows = [line.split(",") for line in (tmp_path / "one.csv").read_text().splitlines()[1:]]
    assert {(bit0 == "0", rate == "") for _, _, bit0, rate, _ in rows} == {(True, True),
                                                                           (False, False)}


@pytest.mark.parametrize("flags, code", [
    (["--p", "7", "--rounds", "200", "--mode", "swap", "--reps", "2", "--seed", "3"], 0),
    # a fixed-basis eavesdropper on a swap session over GF(9) is caught
    (["--p", "3", "--n", "2", "--mode", "swap", "--eve", "fixed:4", "--delta", "5", "--b", "3",
      "--c", "7", "--seed", "11", "--rounds", "200"], 3),
], ids=["d7-swap", "d9-fixed-eve"])
def test_session_replays_from_its_config(tmp_path, flags, code):
    """A session run from flags exits with code, and the config in its stats
    file, run through --config, exits the same and writes the same transcript
    byte for byte."""
    assert run([*MUBQKD, "session", *flags, "--out", "flags.jsonl", "--stats", "flags.json"],
               tmp_path)[0] == code
    config = json.loads((tmp_path / "flags.json").read_text())["config"]
    (tmp_path / "config.json").write_text(json.dumps(config))
    assert run([*MUBQKD, "session", "--config", "config.json", "--out", "config.jsonl",
                "--stats", "config_stats.json"], tmp_path)[0] == code
    assert (tmp_path / "config.jsonl").read_bytes() == (tmp_path / "flags.jsonl").read_bytes()


def test_session_at_the_field_limit_needs_no_more_memory(tmp_path):
    def peak(p):
        code, mib = run([*MUBQKD, "session", "--p", p, "--rounds", "2000", "--no-transcript",
                         "--stats", f"limit{p}.json"], tmp_path)
        assert code == 0, f"session --p {p} failed"
        return mib

    big, small = peak("1048573"), peak("7")
    assert big <= small + 4, f"peak RSS {big:.1f} MiB at d = 1048573, {small:.1f} MiB at d = 7"


def test_readme_library_example():
    text = (ROOT / "README.md").read_text().split("## Library example", 1)[1]
    exec(text.split("```python\n", 1)[1].split("```", 1)[0], {})
