"""One benchmark operation in a fresh interpreter.

Imports `mubqkd` from the checkout's `src/`, times the field set-up, then
times one `mubqkd.cli.main(argv)` call, untraced or traced, and writes its
measurements as JSON to --result.  A calibration loop (calibrate.py) runs
after the set-up, and the workload's one before and after the call, so that
run.py can scale each time to reference seconds.  Run by run.py, not by hand:

    python3 perfbench/worker.py --workload NAME --cli-seed N --dir OPDIR --trace 0|1 --result PATH
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

import calibrate
from tracing import bindings

ROOT = Path(__file__).resolve().parent.parent


def import_mubqkd():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import mubqkd
    import mubqkd.cli
    if not Path(mubqkd.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"mubqkd was imported from {mubqkd.__file__}, not from {src}")
    return mubqkd


def timed_setup(mubqkd, p: int, n: int) -> dict:
    """FieldSpec(p, n) plus the first public call that builds the field tables.

    shift_remote builds the tables without filling the basis-matrix cache.
    """
    import numpy as np
    t0 = perf_counter()
    spec = mubqkd.FieldSpec(p, n)
    t1 = perf_counter()
    mubqkd.shift_remote(np.full(spec.d, spec.d ** -0.5, dtype=complex), spec.one())
    t2 = perf_counter()
    return {"field_init_s": t1 - t0, "tables_s": t2 - t1, "setup_s": t2 - t0}


def time_each_call(fn, sink: list):
    """Time every call of fn, through each `mubqkd` module binding of it."""
    def timed(*args, **kwargs):
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            sink.append(perf_counter_ns() - start)
    for module, attr in bindings(fn):
        setattr(module, attr, timed)


def run_op(args) -> dict:
    import workloads
    mubqkd = import_mubqkd()
    w = workloads.get(args.workload, args.smoke)
    out = timed_setup(mubqkd, w.p, w.n)
    # The set-up builds field tables in pure Python, so the "rounds" loop
    # matches it whatever the workload.
    out["setup_calib_s"] = calibrate.loop(calibrate.SETUP)
    if args.setup_only:
        return out
    out.update(calibration=w.calibration, calib_s=[calibrate.loop(w.calibration)])

    transcript = os.path.join(args.dir, "transcript.jsonl")
    argv = w.argv(args.cli_seed, transcript, os.path.join(args.dir, "stats.json"))
    basis_matrix = mubqkd.mub.basis_matrix
    cache0 = basis_matrix.cache_info()
    tracer = round_ns = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    else:
        round_ns = []
        time_each_call(mubqkd.protocol.run_round, round_ns)

    with contextlib.redirect_stdout(io.StringIO()):
        start = perf_counter()
        rc = mubqkd.cli.main(argv)
        run_s = perf_counter() - start
    out["calib_s"].append(calibrate.loop(w.calibration))

    cache = basis_matrix.cache_info()
    out.update(rc=rc, run_s=run_s,
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
               transcript_bytes=os.path.getsize(transcript) if os.path.exists(transcript) else 0,
               basis_hits=cache.hits - cache0.hits, basis_misses=cache.misses - cache0.misses,
               basis_cache_mb=cache.currsize * 16 * w.d * w.d / 2 ** 20)
    if tracer is None:
        out["round_ns"] = round_ns
        return out

    tracer.uninstall()
    from tracing import aggregate, top_level_s
    spans = tracer.spans()
    out.update(spans=aggregate(spans), top_level_s=top_level_s(spans),
               rounds_traced=tracer.rounds_started, elem_created=tracer.elem_created,
               miss_s=tracer.miss_ns * 1e-9)
    if args.spans:
        tracer.write(args.spans)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--cli-seed", type=int, default=0)
    ap.add_argument("--dir", default=".")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default=None, help="write the traced spans to this path")
    ap.add_argument("--result", required=True)
    args = ap.parse_args()
    out = run_op(args)
    with open(args.result, "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main()
