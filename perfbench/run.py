"""mubqkd benchmark: runs one workload for a fixed time and prints its metrics.

    python3 perfbench/run.py --workload session-d7-swap --seed 1 --seconds 60 --trace 0

Each operation is one `mubqkd` CLI call in a fresh interpreter (worker.py),
built from the checkout's `src/`.  With --trace 0 the run reports the
end-to-end metrics; with --trace 1 it alternates untraced and traced
operations on the same CLI seeds and reports the per-layer metrics.  Every
operation's outputs are checked (check.py).  The last line of standard
output is the JSON result; the full record, with the machine it ran on,
goes to .perfbench/results/.  See perfbench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import check
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "rounds_per_s": "1/s",
    "round_p50_us": "us",
    "round_p99_us": "us",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "gf.tables_s": "s",
    "gf.field_init_s": "s",
    "gf.elem_created": "count",
    "gf.arith.calls": "count",
    "gf.arith.self_s": "s",
    "protocol.run_round.self_s": "s",
    "protocol.bob_decode.self_s": "s",
    "protocol.alice_encode.self_s": "s",
    "protocol.summarize.self_s": "s",
    "hilbert.swap_test.calls": "count",
    "hilbert.swap_test.self_s": "s",
    "hilbert.swaps_per_decode": "ratio",
    "hilbert.born_sample.calls": "count",
    "hilbert.born_sample.self_s": "s",
    "entangle.measure_first.calls": "count",
    "entangle.measure_first.self_s": "s",
    "entangle.entangled_mub.self_s": "s",
    "mub.mub_state.self_s": "s",
    "entangle.shift_remote.calls": "count",
    "entangle.shift_remote.self_s": "s",
    "mub.basis_matrix.calls": "count",
    "mub.basis_matrix.misses": "count",
    "mub.basis_matrix.hit_ratio": "ratio",
    "mub.basis_matrix.miss_s": "s",
    "mub.basis_cache_mb": "MiB",
    "cli.session_write_s": "s",
    "cli.transcript_bytes": "bytes",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
}

LAST_START_S = 120    # no operation starts later, so a run ends within 180 s
OP_TIMEOUT_S = 170


def environment() -> dict:
    import numpy as np
    env = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "ram_gib": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2 ** 30, 2),
        "machine": platform.machine(),
        "cpu": platform.processor() or None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": None,
        "blas_threads": None,
        "git_commit": None,
    }
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu"] = next((ln.split(":", 1)[1].strip() for ln in fh
                               if ln.startswith("model name")), env["cpu"])
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    if blas:
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    env["blas_threads"] = _blas_threads(np)
    if (ROOT / ".git").exists():
        try:
            env["git_commit"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return env


def _blas_threads(np):
    """OpenBLAS's thread count, asked of numpy's bundled library; else the env setting."""
    import ctypes
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")


class Run:
    """The operations of one benchmark run and their checked results."""

    def __init__(self, w, args, workdir: Path):
        self.w, self.args, self.workdir = w, args, workdir
        self.size = "smoke" if args.smoke else "full"
        self.started = time.monotonic()
        self.count = 0
        self.attempted = self.failed = 0
        self.findings: list[str] = []

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def op(self, cli_seed: int, trace: int = 0, setup_only: bool = False, spans=None):
        """Run one operation in a worker; return (result, its directory) or (None, dir)."""
        self.count += 1
        opdir = self.workdir / f"op{self.count}"
        opdir.mkdir()
        result_path = opdir / "result.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.w.name,
               "--cli-seed", str(cli_seed), "--dir", str(opdir), "--trace", str(trace),
               "--result", str(result_path)]
        cmd += ["--smoke"] * self.args.smoke + ["--setup-only"] * setup_only
        cmd += ["--spans", str(spans)] if spans else []
        self.attempted += 1
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                                  timeout=max(1.0, OP_TIMEOUT_S - self.elapsed()))
        except subprocess.TimeoutExpired:
            return self.fail(cli_seed, "timed out"), opdir
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            return self.fail(cli_seed, f"worker exited {proc.returncode}: {tail[0]}"), opdir
        result = json.loads(result_path.read_text())
        if not setup_only:
            found = check.check_session(self.w, result["rc"], opdir / "transcript.jsonl",
                                        opdir / "stats.json", cli_seed, self.size)
            if found:
                self.fail(cli_seed, "; ".join(found))
                result["failed"] = True
        return result, opdir

    def fail(self, cli_seed: int, why: str):
        self.failed += 1
        self.findings.append(f"operation {self.count} (CLI seed {cli_seed}): {why}")
        return None

    def more(self, done: int, minimum: int, est: float) -> bool:
        """Start another operation?  Always until `minimum` are done, then
        while the next one is expected to end within --seconds."""
        if self.attempted >= check.MAX_OPS_PER_RUN or self.elapsed() > LAST_START_S:
            return False
        return done < minimum or self.elapsed() + est <= self.args.seconds


def median(values):
    return statistics.median(values) if values else 0.0


def good(results):
    """Operations that passed their checks; all timed ones if none did."""
    ok = [r for r in results if r is not None and not r.get("failed")]
    return ok or [r for r in results if r is not None]


def percentiles(values) -> list:
    """The 99 cut points of `values`, 1st to 99th percentile."""
    return statistics.quantiles(values, n=100) if len(values) > 1 else (values or [0]) * 99


def speed(res: dict, setup: bool = False) -> float:
    """Factor that scales a wall time of this worker to reference seconds
    (calibrate.py): the set-up by the calibration right after it, the call
    by the mean of the calibrations before and after it."""
    if setup:
        return calibrate.REFERENCE_S[calibrate.SETUP] / res["setup_calib_s"]
    return calibrate.REFERENCE_S[res["calibration"]] / statistics.fmean(res["calib_s"])


def op_summary(res: dict, scaled: bool) -> dict:
    k, k_setup = (speed(res), speed(res, setup=True)) if scaled else (1.0, 1.0)
    cuts = percentiles(res["round_ns"])
    return {"setup_s": res["setup_s"] * k_setup, "run_s": res["run_s"] * k,
            "rounds": len(res["round_ns"]), "p50_us": cuts[49] * k / 1e3,
            "p99_us": cuts[98] * k / 1e3, "peak_rss_mb": res["peak_rss_mb"],
            "setup_calib_s": res["setup_calib_s"], "calib_s": res["calib_s"]}


def p99_per_op(per_op: list) -> bool:
    """p99 is taken per operation and the median reported, so that a burst of
    interference from another tenant moves it less.  An operation with fewer
    than 1000 rounds has too few beyond its p99; then the run's rounds are
    pooled."""
    return min(op["rounds"] for op in per_op) >= 1000


def untraced_metrics(probes: list, ops: list, scaled: bool) -> tuple[dict, list]:
    setups = [p["setup_s"] * (speed(p, setup=True) if scaled else 1.0) for p in probes]
    per_op = [op_summary(r, scaled) for r in ops]
    setups += [op["setup_s"] for op in per_op]
    rounds = [ns * (speed(r) if scaled else 1.0) for r in ops for ns in r["round_ns"]]
    cuts = percentiles(rounds)
    per_op_p99 = p99_per_op(per_op)
    metrics = {
        "setup_s": median(setups),
        "run_s": median([op["run_s"] for op in per_op]),
        "rounds_per_s": median([op["rounds"] / op["run_s"] for op in per_op]),
        "round_p50_us": cuts[49] / 1e3,
        "round_p99_us": (median([op["p99_us"] for op in per_op]) if per_op_p99
                         else cuts[98] / 1e3),
        "peak_rss_mb": median([op["peak_rss_mb"] for op in per_op]),
    }
    return metrics, per_op


def measure_untraced(run: Run, seeds) -> tuple[dict, dict]:
    """Operations, each after a set-up-only probe, so set-up samples spread
    over the run like the operations do.  Times are in reference seconds;
    the record keeps the wall-clock metrics too."""
    probes, results, est = [], [], 0.0
    while run.more(len(results), run.w.min_ops, est):
        t0 = time.monotonic()
        probe, opdir = run.op(workloads.GOLDEN_CLI_SEED, setup_only=True)
        shutil.rmtree(opdir)
        if probe is not None:
            probes.append(probe)
        res, opdir = run.op(next(seeds))
        shutil.rmtree(opdir)
        results.append(res)
        est = time.monotonic() - t0
    ops = good(results)
    if not ops:
        raise RuntimeError("no operation produced timings")
    metrics, per_op = untraced_metrics(probes, ops, scaled=True)
    wall, _ = untraced_metrics(probes, ops, scaled=False)
    samples = {"operations": len(ops), "setups": len(probes) + len(ops),
               "rounds": sum(op["rounds"] for op in per_op),
               "p99": "median over operations" if p99_per_op(per_op) else "pooled over the run",
               "wall_clock_metrics": wall, "ops": per_op}
    return metrics, samples


def layer_metrics(res: dict, untraced_run_s: float) -> dict:
    spans = res["spans"]

    def span(prefix):
        return spans.get(prefix, {"calls": 0, "self_s": 0.0})
    hits, misses = res["basis_hits"], res["basis_misses"]
    decodes = span("protocol.bob_decode")["calls"]
    special = {
        "gf.tables_s": res["tables_s"],
        "gf.field_init_s": res["field_init_s"],
        "gf.elem_created": res["elem_created"],
        "hilbert.swaps_per_decode": span("hilbert.swap_test")["calls"] / decodes if decodes else 0.0,
        "mub.basis_matrix.misses": misses,
        "mub.basis_matrix.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "mub.basis_matrix.miss_s": res["miss_s"],
        "mub.basis_cache_mb": res["basis_cache_mb"],
        "cli.session_write_s": span("cli.cmd_session")["self_s"],
        "cli.transcript_bytes": res["transcript_bytes"],
        "trace.coverage": res["top_level_s"] / res["run_s"],
        "trace.overhead_s": res["run_s"] * speed(res) - untraced_run_s,
    }
    out = {}
    for name in PER_LAYER:
        if name in special:
            out[name] = special[name]
        elif name.endswith(".calls"):
            out[name] = span(name[:-len(".calls")])["calls"]
        else:
            out[name] = span(name[:-len(".self_s")])["self_s"]
    return out


def measure_traced(run: Run, seeds) -> tuple[dict, dict, list]:
    """Pairs of an untraced and a traced operation on the same CLI seed."""
    pairs, est = [], 0.0
    spans_path = OUT / f"spans-{run.w.name}.jsonl"
    while run.more(len(pairs), 1, est):
        t0 = time.monotonic()
        seed = next(seeds)
        plain, plain_dir = run.op(seed)
        traced, traced_dir = run.op(seed, trace=1, spans=None if pairs else spans_path)
        if plain and traced and (
                check.transcript_sha256(plain_dir / "transcript.jsonl")
                != check.transcript_sha256(traced_dir / "transcript.jsonl")):
            run.fail(seed, "traced transcript differs from the untraced one")
            traced["failed"] = True
        shutil.rmtree(plain_dir)
        shutil.rmtree(traced_dir)
        pairs.append((plain, traced))
        est = time.monotonic() - t0
    ok = [(p, t) for p, t in pairs if p and t and not p.get("failed") and not t.get("failed")]
    ok = ok or [(p, t) for p, t in pairs if p and t]
    if not ok:
        raise RuntimeError("no traced operation produced timings")
    per_op = [layer_metrics(t, p["run_s"] * speed(p)) for p, t in ok]
    metrics = {name: median([m[name] for m in per_op]) for name in PER_LAYER}
    traced_run_s = sum(t["run_s"] for _, t in ok)
    totals: dict[str, float] = {}
    for _, t in ok:
        for name, row in t["spans"].items():
            totals[name] = totals.get(name, 0.0) + row["self_s"]
    breakdown = sorted(((name, s / traced_run_s) for name, s in totals.items()),
                       key=lambda kv: -kv[1])
    samples = {"pairs": len(ok), "traced_rounds": ok[0][1]["rounds_traced"],
               "spans_file": str(spans_path.relative_to(ROOT))}
    return metrics, samples, breakdown


def print_breakdown(name: str, metrics: dict, breakdown: list):
    print(f"breakdown {name}: layer self time as a share of traced run_s "
          f"(trace.coverage {metrics['trace.coverage']:.4f})")
    shown = 0.0
    for span, share in breakdown:
        if share < 0.001:
            break
        shown += share
        print(f"  {span:<42} {100 * share:6.2f}%")
    print(f"  {'(spans below 0.1% each)':<42} {100 * (sum(s for _, s in breakdown) - shown):6.2f}%")


def main() -> int:
    ap = argparse.ArgumentParser(description="mubqkd benchmark")
    ap.add_argument("--workload", required=True, help=", ".join(workloads.FULL))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=60)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's tests")
    args = ap.parse_args()
    if not (ROOT / "src" / "mubqkd" / "__init__.py").is_file():
        print(f"error: no mubqkd source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    w = workloads.get(args.workload, args.smoke)
    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    run = Run(w, args, workdir)
    seeds = workloads.cli_seeds(w.name, args.seed)
    try:
        if args.trace:
            metrics, samples, breakdown = measure_traced(run, seeds)
            units = PER_LAYER
        else:
            metrics, samples = measure_untraced(run, seeds)
            units, breakdown = END_TO_END, []
    except RuntimeError as exc:
        for line in run.findings:
            print(f"FAILED {line}", file=sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment()
    record = {"workload": w.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "smoke": args.smoke, "wall_s": run.elapsed(), "environment": env,
              "samples": samples, "findings": run.findings, "metrics": metrics,
              "breakdown": breakdown}
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{w.name}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print("environment " + json.dumps(env))
    print("samples " + json.dumps(samples))
    for line in run.findings:
        print(f"FAILED {line}")
    if breakdown:
        print_breakdown(w.name, metrics, breakdown)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
