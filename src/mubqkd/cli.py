"""Command-line front end: invariant verification, basis and Wigner dumps,
and protocol sessions with persisted transcripts.

Exit codes: 0 success, 1 invariant failure, 2 usage or config error, a
refused allocation (MemoryError) or a failed open, write or close of a file
that a flag names (its error names the flag; a named pipe's too), 3
eavesdropper detected (a check round failed), 141 (128 + SIGPIPE) stdout
closed by its reader, with nothing on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import stat
import sys

import numpy as np

from .entangle import entangled_mub, exponent_additivity_check, joint_c_measure, shift_remote
from .gf import FieldSpec, index_add, index_sub, refuse_oversize
from .hilbert import project_first
from .mub import mub_state, unbiasedness_report
from .phasespace import dwigner1, dwigner2_support
from .protocol import SessionConfig, session_records, session_summary
from .stream import Draws

# Largest deviation verify accepts in the projection, shift and EPR checks.
VERIFY_TOL = 1e-12

# Longest error message printed whole; a longer one, which echoes a large
# offending value, is cut to this many characters, the last one an ellipsis.
MAX_ERROR_CHARS = 200

# Most --samples verify takes.  It draws each sampled index tuple as it tests
# it, so the cap bounds time, not memory: a sample costs dense d-vector work
# in three checks, about 0.3 ms at d = 81, so 10**6 samples take minutes.
VERIFY_MAX_SAMPLES = 10 ** 6


def _flag_int(flag: str, what: str, text: str) -> int:
    """text as an int; ValueError naming the flag and the value otherwise."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{flag}: {what} must be an integer, got {text!r}") from None


@contextlib.contextmanager
def _flag(flag: str):
    """Prefix the message of an OSError raised inside with flag.  A
    BrokenPipeError becomes a plain OSError, so a named file's closed pipe
    exits 2 like any failed write; only stdout's exits 141."""
    try:
        yield
    except OSError as exc:
        raise OSError(f"{flag}: {exc}") from None


def _open(flag: str, path: str, mode: str = "r", **kwargs):
    """open(path, mode, **kwargs); an OSError's message starts with flag."""
    with _flag(flag):
        return open(path, mode, **kwargs)


def _field_config(args) -> dict:
    """The "field" object of a config document, from --p, --n and --modulus."""
    modulus = (None if args.modulus is None else
               [_flag_int("--modulus", "coefficient", t) for t in args.modulus.split(",")])
    return {"p": args.p, "n": args.n, "modulus": modulus}


def _field_from_args(args) -> FieldSpec:
    """The field of --p, --n and --modulus, refused above --max-d before it is built."""
    refuse_oversize(args.p, 1 if args.n is None else args.n, args.max_d, "--max-d")
    return FieldSpec.from_config(_field_config(args))


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _tuple_stream(d: int, width: int, samples: int, rng):
    """Index tuples to test: exhaustive for small d, sampled otherwise, one
    integers(d) per entry."""
    if d ** width <= 2500:
        yield from itertools.product(range(d), repeat=width)
    else:
        for _ in range(samples):
            yield tuple(rng.integers(d) for _ in range(width))


def _verify_report(spec: FieldSpec, samples: int, seed: int) -> dict:
    rng = Draws(seed)
    d = spec.d
    rep = unbiasedness_report(spec)
    root_d = np.sqrt(d)

    proj_dev = proj_norm_dev = 0.0
    for b, c, b1, c1 in _tuple_stream(d, 4, samples, rng):
        w = project_first(entangled_mub(spec, b, c), mub_state(spec, b1, c1))
        expect = mub_state(spec, index_sub(spec, b, b1), index_sub(spec, c, c1)) / root_d
        proj_dev = max(proj_dev, float(np.max(np.abs(w - expect))))
        proj_norm_dev = max(proj_norm_dev, abs(float(np.vdot(w, w).real) - 1.0 / d))

    shift_dev = 0.0
    for b, c, lam in _tuple_stream(d, 3, samples, rng):
        shifted = shift_remote(mub_state(spec, b, c), spec.from_index(lam))
        target = mub_state(spec, b, index_add(spec, c, lam))
        shift_dev = max(shift_dev, float(np.max(np.abs(shifted - target))))

    epr = entangled_mub(spec, 0, 0)
    epr_target = np.zeros(d * d, dtype=complex)
    epr_target[np.arange(d) * (d + 1)] = 1.0 / root_d
    epr_dev = float(np.max(np.abs(epr - epr_target)))

    additivity = all(exponent_additivity_check(spec, *labels)
                     for labels in _tuple_stream(d, 4, samples, rng))

    repeatable = True
    for _ in range(20):
        b = int(rng.integers(d))
        c = int(rng.integers(d))
        out1, post1 = joint_c_measure(spec, entangled_mub(spec, b, c), b, rng)
        out2, post2 = joint_c_measure(spec, post1, b, rng)
        if out1 != c or out2 != out1 or float(np.max(np.abs(post2 - post1))) > 1e-12:
            repeatable = False

    report = {
        "p": spec.p,
        "n": spec.n,
        "d": d,
        "modulus": list(spec.modulus),
        "basis_count": rep.basis_count,
        "max_cross_deviation": rep.max_cross_deviation,
        "max_orthonormality_deviation": rep.max_orthonormality_deviation,
        "max_completeness_deviation": rep.max_completeness_deviation,
        "max_projection_deviation": proj_dev,
        "max_projection_norm_deviation": proj_norm_dev,
        "max_shift_deviation": shift_dev,
        "max_epr_deviation": epr_dev,
        "exponent_additivity_ok": additivity,
        "joint_measure_repeatable": repeatable,
    }
    report["ok"] = bool(
        rep.basis_count == d + 1 and rep.ok()
        and all(dev < VERIFY_TOL for dev in (proj_dev, proj_norm_dev, shift_dev, epr_dev))
        and additivity and repeatable)
    return report


def cmd_verify(args) -> int:
    if args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    if args.samples > VERIFY_MAX_SAMPLES:
        raise ValueError(f"--samples must be at most {VERIFY_MAX_SAMPLES}, got {args.samples}")
    if args.seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
    spec = _field_from_args(args)
    report = _verify_report(spec, args.samples, args.seed)
    print(json.dumps(report, indent=2))
    return 0 if report["ok"] else 1


# ---------------------------------------------------------------------------
# bases / wigner dumps
# ---------------------------------------------------------------------------

def _emit(header: str, rows, path):
    """Write the header, then each row as it arrives, to path or stdout; an
    OSError from opening, writing or closing path names --out."""
    with _flag("--out") if path else contextlib.nullcontext(), \
            open(path, "w") if path else contextlib.nullcontext(sys.stdout) as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(row + "\n")


def _basis_rows(spec: FieldSpec):
    """One CSV row per amplitude; the computational basis, index d, is tagged -1.

    Each state comes from mub_state, one d-vector at a time, so memory does
    not grow with d and the basis_matrix cache stays empty.
    """
    d = spec.d
    for basis in range(d + 1):
        fam, b_idx = ("computational", -1) if basis == d else ("quadratic", basis)
        for c_idx in range(d):
            for n_idx, v in enumerate(mub_state(spec, basis, c_idx)):
                yield f"{fam},{b_idx},{c_idx},{n_idx},{float(v.real)!r},{float(v.imag)!r}"


def cmd_bases(args) -> int:
    _emit("basis,b_index,c_index,n_index,re,im", _basis_rows(_field_from_args(args)), args.out)
    return 0


def _wigner_rows(spec: FieldSpec, b: int, c: int, pair: bool):
    """CSV rows of the Wigner table of the state (b, c), or of its pair's
    support, computed when the first row is asked for."""
    if pair:
        for (q1, p1, q2, p2), v in dwigner2_support(entangled_mub(spec, b, c)).items():
            yield f"{q1},{p1},{q2},{p2},{v!r}"
    else:
        table = dwigner1(mub_state(spec, b, c))
        for q, p in itertools.product(range(spec.d), repeat=2):
            yield f"{q},{p},{float(table[q, p])!r}"


def cmd_wigner(args) -> int:
    if args.n not in (None, 1):
        raise ValueError("Wigner tables are defined for prime dimension only (n = 1)")
    spec = _field_from_args(args)
    spec.check_index(args.b, "--b")
    spec.check_index(args.c, "--c")
    header = "q1,p1,q2,p2,value" if args.pair else "q,p,value"
    _emit(header, _wigner_rows(spec, args.b, args.c, args.pair), args.out)
    return 0


# ---------------------------------------------------------------------------
# session
# ---------------------------------------------------------------------------

# argparse dest names of the flags that set a session config
_SESSION_FLAGS = ("p", "n", "modulus", "rounds", "check_frac", "mode", "reps", "eve",
                 "delta", "b", "c", "seed")


def _parse_eve(text: str) -> dict:
    """The "eve" object of a config document, from an --eve value."""
    if text == "none":
        return {"kind": "none"}
    if text in ("uniform-quadratic", "uniform-all"):
        return {"kind": "intercept_resend", "picker": text.replace("-", "_")}
    if text.startswith("fixed:"):
        return {"kind": "intercept_resend", "picker": "fixed",
                "fixed_basis": _flag_int("--eve", "fixed basis", text.split(":", 1)[1])}
    raise ValueError(f"unknown --eve value {text!r}")


def _session_doc(args):
    """The config document of --config, or of the session flags."""
    if args.config:
        given = [f"--{name.replace('_', '-')}" for name in _SESSION_FLAGS
                 if getattr(args, name) is not None]
        if given:
            raise ValueError(f"--config cannot be combined with {', '.join(given)}")
        try:
            with _open("--config", args.config, encoding="utf-8") as fh:
                return json.load(fh)
        except ValueError as exc:   # not UTF-8, or not JSON
            raise ValueError(f"--config: {exc}") from None
    if args.p is None or args.rounds is None:
        raise ValueError("session needs --p and --rounds (or --config)")
    if (args.b is None) != (args.c is None):
        raise ValueError("--b and --c set the fixed pair label and must come together")
    # a flag not given is null, which from_json reads as absent
    return {
        "field": _field_config(args), "rounds": args.rounds, "check_fraction": args.check_frac,
        "mode": args.mode, "swap_repetitions": args.reps,
        "eve": None if args.eve is None else _parse_eve(args.eve),
        "delta_offset": args.delta, "pair_label": None if args.b is None else [args.b, args.c],
        "seed": args.seed}


def _session_config(args) -> SessionConfig:
    """Config from --config or the session flags."""
    try:
        return SessionConfig.from_json(_session_doc(args))
    except RecursionError:
        raise ValueError("--config: document nested too deeply") from None


def _written(records, fh):
    """records, each written to fh, the --out file, as its JSON line on the
    way through.  fh is flushed after the last one, so a transcript that
    cannot be written fails before its summary is."""
    with _flag("--out"):
        for rec in records:
            fh.write(rec.to_jsonl())
            yield rec
        fh.flush()


@contextlib.contextmanager
def _opened(paths):
    """The files at paths, a dict of flag to path, opened to append, checked,
    then truncated (regular files only).  Two of them on one file other than
    the null device are refused: a file that writing both would clobber, or
    a pipe or terminal where their buffers would interleave.  So is one on
    the regular file that stdout writes to.  If a file cannot be opened or
    is refused, none is truncated, the ones this call created are removed,
    and the error names the path's flag: every file stays as it was.  An
    OSError from closing a file names its flag too."""
    with contextlib.ExitStack() as stack:
        files, created = [], []
        try:
            for flag, path in paths.items():
                new = not os.path.lexists(path)
                files.append(fh := _open(flag, path, "a"))
                stack.callback(_flag(flag)(fh.close))   # a failed close names flag
                if new:
                    created.append(path)
            stats = dict(zip(paths, (os.fstat(fh.fileno()) for fh in files)))
            for (a, sa), (b, sb) in itertools.combinations(stats.items(), 2):
                if os.path.samestat(sa, sb) and not os.path.samestat(sa, os.stat(os.devnull)):
                    raise ValueError(f"{a} and {b} name one file: {paths[b]}")
            stdout = None   # a stdout without a file descriptor names no file
            with contextlib.suppress(AttributeError, OSError, ValueError):
                stdout = os.fstat(sys.stdout.fileno())
            for flag, st in stats.items():
                if stdout and stat.S_ISREG(stdout.st_mode) and os.path.samestat(stdout, st):
                    raise ValueError(f"{flag} names the file that stdout writes to: {paths[flag]}")
        except (OSError, ValueError):
            stack.close()
            for path in created:
                os.remove(path)
            raise
        for fh, st in zip(files, stats.values()):
            if stat.S_ISREG(st.st_mode):
                fh.truncate(0)
        yield files


def cmd_session(args) -> int:
    config = _session_config(args)
    paths = {"--out": args.out, "--stats": args.stats}
    if args.no_transcript:
        del paths["--out"]
    # Both files are opened and checked before the first round, so a bad
    # path costs no rounds.  Records are written and counted as they are
    # made, none kept.
    with _opened(paths) as (*out, stats):
        records = session_records(config)
        s = session_summary(config, _written(records, out[0]) if out else records)
        with _flag("--stats"):
            stats.write(json.dumps(s, indent=2) + "\n")

    def fmt(x):
        return "n/a" if x is None else f"{x:.6f}"

    print(f"session d={config.field.d} rounds={s['rounds']} message={s['message_rounds']} "
          f"check={s['check_rounds']} ber={fmt(s['bit_error_rate'])} "
          f"check_pass={fmt(s['check_pass_rate'])} detected={s['eavesdropper_detected']}")
    return 3 if s["eavesdropper_detected"] else 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_field_args(sp, max_d=None, p_required=True):
    sp.add_argument("--p", type=int, required=p_required, default=None,
                    help="odd prime characteristic")
    sp.add_argument("--n", type=int, help="extension degree, d = p^n (default 1)")
    sp.add_argument("--modulus", help="comma-separated modulus coefficients c0,c1,... "
                    "(low-order first; default: the first irreducible one)")
    if max_d is not None:
        sp.add_argument("--max-d", type=int, default=max_d,
                        help="refuse dimensions d above this (default %(default)s; "
                        "d above the field limit 2^20 is refused whatever this is)")


def _verify_args(sp):
    _add_field_args(sp, 81)
    sp.add_argument("--samples", type=int, default=200,
                    help="sample count per check when exhaustive scans are too large "
                    f"(at most {VERIFY_MAX_SAMPLES})")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_verify)


def _bases_args(sp):
    _add_field_args(sp, 81)
    sp.add_argument("--out", type=str, default=None, help="output path (default stdout)")
    sp.set_defaults(func=cmd_bases)


def _wigner_args(sp):
    _add_field_args(sp, 81)
    sp.add_argument("--b", type=int, required=True, help="quadratic basis index")
    sp.add_argument("--c", type=int, required=True, help="state index")
    sp.add_argument("--pair", action="store_true", help="two-particle support instead of a single state")
    sp.add_argument("--out", type=str, default=None)
    sp.set_defaults(func=cmd_wigner)


def _session_args(sp):
    _add_field_args(sp, p_required=False)
    sp.add_argument("--rounds", type=int, help="number of rounds (required without --config)")
    sp.add_argument("--check-frac", type=float,
                    help=f"share of check rounds (default {SessionConfig.check_fraction})")
    sp.add_argument("--mode", choices=["oracle", "swap"], help=f"(default {SessionConfig.mode})")
    sp.add_argument("--reps", type=int, help="swap-test repetitions per comparison "
                    f"(default {SessionConfig.swap_repetitions})")
    sp.add_argument("--eve", help="none | fixed:<basis idx> | uniform-quadratic | uniform-all "
                    "(default none)")
    sp.add_argument("--delta", type=int, help="offset between the two pair labels (index; default 0)")
    sp.add_argument("--b", type=int, default=None, help="fixed pair label b (index); random if omitted")
    sp.add_argument("--c", type=int, default=None, help="fixed pair label c (index); random if omitted")
    sp.add_argument("--seed", type=int, help=f"(default {SessionConfig.seed})")
    sp.add_argument("--out", type=str, default="transcript.jsonl")
    sp.add_argument("--stats", type=str, default="stats.json")
    sp.add_argument("--no-transcript", action="store_true",
                    help="skip the JSONL transcript (summary only)")
    sp.add_argument("--config", type=str, default=None,
                    help="JSON session config instead of the session flags above")
    sp.set_defaults(func=cmd_session)


# subcommand: (help line, the function that adds its arguments)
_COMMANDS = {
    "verify": ("run the invariant suite and report max deviations", _verify_args),
    "bases": ("dump all d+1 basis amplitudes as CSV", _bases_args),
    "wigner": ("dump a discrete Wigner table or pair support as CSV", _wigner_args),
    "session": ("run a protocol session and persist the transcript", _session_args),
}


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The mubqkd parser: with command None, every subcommand and its
    arguments, so the top-level help and the invalid-choice error list them
    all; with a command, that subcommand alone.  Its metavar then names every
    command, so the top-level usage, which errors such as "unrecognized
    arguments" print, reads as the full parser's."""
    parser = argparse.ArgumentParser(prog="mubqkd",
                                     description="MUB entanglement simulator and protocol auditor")
    names = list(_COMMANDS) if command is None else [command]
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_line, add_args = _COMMANDS[name]
        add_args(sub.add_parser(name, help=help_line))
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = _build_parser(command).parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()   # a closed pipe shows here, not in the exit-time flush
        return code
    except BrokenPipeError:
        # a pipe's reader is gone (head, say), which exits as SIGPIPE would;
        # fd 1 goes to devnull, so the interpreter's final flush stays silent
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (ValueError, OSError, MemoryError) as exc:
        msg = str(exc) or type(exc).__name__
        if len(msg) > MAX_ERROR_CHARS:
            msg = msg[:MAX_ERROR_CHARS - 1] + "…"
        print(f"error: {msg}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
