"""End-to-end and per-layer benchmark of the sovchain verification engine.

Usage (from the repository root):

    python3 perfbench/run.py --workload all-spin-half --seed 7 --seconds 20 --trace 0

``--trace 0`` times passes of the workload with tracing off and reports the
end-to-end metrics. ``--trace 1`` does the same untraced passes, then one
traced pass, and reports the per-layer metrics. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
``--record PATH`` also writes the metrics, run metadata and every check row
(value, tolerance, margin) to PATH.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import (OUT_DIR, ROOT, BenchError, Tally, import_sovchain,  # noqa: E402
                       make_workloads, row_records)

SETUP_PROBES = 11
PROBE_TIMEOUT_S = 60
MAX_PASSES = 256


def declared_units():
    """Units of the end-to-end and per-layer metrics declared in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


# ---------------------------------------------------------------------------
# run metadata
# ---------------------------------------------------------------------------

def blas_info() -> dict:
    """BLAS library numpy was built with, and its thread count when readable."""
    import ctypes
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    info = {"name": blas.get("name", "unknown"), "version": blas.get("version", "unknown"),
            "threads": None}
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*.so*")) if libs.is_dir() else ():
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_metadata(args) -> dict:
    import numpy as np

    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_info(), "commit": git_commit()}


# ---------------------------------------------------------------------------
# set-up and passes
# ---------------------------------------------------------------------------

def probe_setup(workload: str, seed: int) -> float:
    """Median set-up time (import + inputs) over fresh child processes."""
    cmd = [sys.executable, str(Path(__file__).resolve().parent / "probe.py"),
           "--workload", workload, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def run_pass(jobs, tracer=None):
    """Run one pass; returns (seconds, raw results). A raising job yields its exception."""
    raws = []
    start = time.perf_counter()
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.run_id = i + 1
        try:
            raws.append(job.call())
        except Exception as err:   # one failed invocation must not end the run
            traceback.print_exc(file=sys.stderr)
            raws.append(err)
    return time.perf_counter() - start, raws


def account(jobs, raws, tally: Tally, rows=None):
    for job, raw in zip(jobs, raws):
        checks = None
        if not isinstance(raw, Exception):
            try:
                report = job.report(raw)
                checks = report["checks"]
                if rows is not None:
                    rows.extend(row_records(job, report))
            except (BenchError, OSError, ValueError) as err:
                print(f"error: {err}", file=sys.stderr)
        tally.add_job(job.command, checks)


def timed_passes(wl, seed, first_jobs, seconds, tally):
    """Untraced passes until ``seconds`` would be exceeded (at least one).

    Each pass's inputs are built before its timer starts.
    """
    times = []
    start = time.perf_counter()
    for index in range(MAX_PASSES):
        jobs = first_jobs if index == 0 else wl.pass_jobs(seed, index)
        dt, raws = run_pass(jobs)
        times.append(dt)
        account(jobs, raws, tally)
        if time.perf_counter() - start + statistics.median(times) > seconds:
            break
    return times


def traced_pass(wl, seed, tally, rows):
    """Build pass-0 inputs and run them with tracing on.

    Returns (tracer, traced wall seconds, summed dim(H) of the jobs).
    """
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        jobs = wl.pass_jobs(seed, 0)
        _, raws = run_pass(jobs, tracer)
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    account(jobs, raws, tally, rows)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.dump(OUT_DIR / f"spans-{wl.name}-seed{seed}.json", start)
    return tracer, wall, sum(job.dim for job in jobs)


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, help="also write metrics, metadata and rows here")
    return parser.parse_args(argv)


def bench(args, workloads=None) -> dict:
    workloads = workloads or make_workloads()
    if args.workload not in workloads:
        raise BenchError(f"unknown workload {args.workload!r}; choose from {sorted(workloads)}")
    if args.seed < 0:
        raise BenchError("--seed must be non-negative")
    wl = workloads[args.workload]
    e2e_units, layer_units = declared_units()

    setup_s = None if args.trace else probe_setup(wl.name, args.seed)
    import_sovchain()
    meta = run_metadata(args)
    untraced, traced, rows = Tally(), Tally(), []
    try:
        t = time.perf_counter()
        first_jobs = wl.pass_jobs(args.seed, 0)
        first_inputs_s = time.perf_counter() - t
        times = timed_passes(wl, args.seed, first_jobs, args.seconds, untraced)
        if args.trace:
            tracer, wall, dims = traced_pass(wl, args.seed, traced, rows)
    finally:
        wl.cleanup()

    if args.trace:
        metrics = tracer.layer_metrics(wall, dims)
        metrics.update({
            "cli.checks.expected": traced.expected,
            "cli.checks.failed": traced.failed,
            "cli.suites.errored": traced.errored,
            "cli.margin_max": traced.margin_max,
            "check_fail_frac": traced.fail_frac,
            "trace.overhead_s": wall - (statistics.median(times) + first_inputs_s),
        })
        units, shown = layer_units, traced
    else:
        metrics = {
            "wall_s": statistics.median(times),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "check_pass_frac": 1.0 - untraced.fail_frac,
        }
        units, shown = e2e_units, untraced
    if set(metrics) != set(units):
        raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")

    tallies = (untraced, traced)
    unexplained = sorted({r for t in tallies for r in t.unexplained(wl.known_limits)})
    print("meta " + json.dumps(meta, sort_keys=True))
    print(f"passes: {len(times)} untraced, median {statistics.median(times):.3f} s "
          f"(min {min(times):.3f}, max {max(times):.3f})")
    print(f"check_fail_frac = {shown.failed}/{shown.expected} = {shown.fail_frac:.6f} ratio; "
          f"failing rows: {shown.failing or 'none'}")
    if unexplained:
        print(f"rows failing beyond the workload's known limits: {unexplained}")
    for name in sorted(metrics):
        print(f"{name} = {metrics[name]:.6g} {units[name]}")
    result = {
        "correct": not unexplained and all(t.jobs_failed == 0 for t in tallies),
        "attempted": sum(t.jobs for t in tallies),
        "failed": sum(t.jobs_failed for t in tallies),
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    if args.record:
        record = dict(result, meta=meta, pass_seconds=times, rows=rows)
        args.record.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = bench(args)
    except (BenchError, subprocess.SubprocessError, OSError, ImportError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
