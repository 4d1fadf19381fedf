"""Benchmark for countdiag: one workload per invocation.

    python3 bench/run.py --workload mc-poisson-serial --seed 1 --seconds 30 --trace 0

Builds the workload's inputs from ``--seed``, runs whole passes of timed
operations until ``--seconds`` have elapsed, checks every output, and prints
the metrics.  With ``--trace 1`` it then runs one traced pass and prints the
per-layer metrics instead.  The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / ".work"
#: Set-up is repeated this many times and its median reported.
SETUP_REPEATS = 3
#: glibc ``mallopt`` parameters, and the mmap threshold they are pinned to:
#: the largest that glibc's own adaptive threshold reaches, with trimming at
#: twice it, as glibc sets it.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 32 << 20
REQUIRED = (
    Path("src/countdiag/__init__.py"),
    Path("tests/data/reference_grid_poisson.csv"),
    Path("tests/data/reference_grid_binomial_n10.csv"),
    Path("tests/data/reference_grid_binomial_n25.csv"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a name from BENCHMARK.json")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_package():
    """Import countdiag from this checkout's ``src`` and the benchmark modules."""
    missing = [str(p) for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        raise RuntimeError(f"not a countdiag checkout; missing {', '.join(missing)}")
    sys.path.insert(0, str(ROOT / "src"))
    import countdiag

    if Path(countdiag.__file__).resolve().parent != (ROOT / "src" / "countdiag").resolve():
        raise RuntimeError(f"countdiag imported from {countdiag.__file__}, not this checkout")
    import metrics
    import tracing
    import workloads

    return metrics, tracing, workloads


def pin_allocator():
    """Fix glibc's malloc thresholds for the whole run; False off glibc.

    By default glibc raises its mmap threshold to the largest block freed so
    far, so whether an array is mmapped, page-faulted afresh and trimmed on
    every use depends on what set-up happened to free, which depends on the
    seed: one seed's diagnose-long passes ran 3.6 s and another's 4.4 s,
    reproducibly, and the same two read alike once the thresholds were fixed.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    return bool(mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)) and bool(
        mallopt(M_TRIM_THRESHOLD, 2 * MMAP_THRESHOLD)
    )


def _getconf(name):
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    value = out.stdout.strip()
    return int(value) if value.isdigit() else None


def context(workload, workers, is_grid, allocator_pinned):
    import numpy
    import scipy

    doc = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "l2_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": _getconf("LEVEL3_CACHE_SIZE"),
        "workers": workers,
        "allocator_pinned": allocator_pinned,
    }
    if is_grid:
        doc.update(chunk=workload.chunk, replications=workload.replications,
                   cells=len(workload.scenarios),
                   computed_bytes_per_chunk_kernel=workload.kernel_bytes())
    return doc


def _run_op(op):
    """Run one operation; returns (seconds, failed)."""
    start = time.perf_counter()
    try:
        output = op.run()
    except Exception:  # a failed operation is counted, and the run goes on
        traceback.print_exc(file=sys.stderr)
        return time.perf_counter() - start, op.attempts
    elapsed = time.perf_counter() - start
    return elapsed, op.check(output)


def timed_phase(workload, seconds):
    """Whole passes of untraced operations until ``seconds`` have elapsed."""
    passes, latencies = [], []
    attempted = failed = 0
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    while True:
        pass_s, reps = 0.0, 0
        for op in workload.ops():
            elapsed, bad = _run_op(op)
            latencies.append(elapsed)
            pass_s += elapsed
            reps += op.reps
            attempted += op.attempts
            failed += bad
        passes.append((pass_s, reps))
        if time.perf_counter() - start >= seconds:
            break
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    child_cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return passes, latencies, attempted, failed, child_cpu


def peak_rss_mib(pool_workers):
    """Parent peak plus, per pool worker, the largest peak among joined children.

    ``getrusage`` reports only the largest child, so this bounds the combined
    peak from above; shared copy-on-write pages are counted in each process.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if pool_workers > 1 else 0
    return (own + pool_workers * children) / 1024.0


def traced_pass(workload, tracing, metrics, spans_path):
    """One pass with every layer entry point wrapped; returns the tracer,
    the summed operation time, and the attempted and failed counts."""
    tracer = tracing.Tracer()
    total_s = 0.0
    attempted = failed = 0
    gc.collect()
    with tracer:
        tracer.install(expected=metrics.EXPECTED_SPANS)
        for op in workload.ops(traced=True):
            with tracer.span(f"op.{op.label}"):
                elapsed, bad = _run_op(op)
            total_s += elapsed
            attempted += op.attempts
            failed += bad
    tracer.write(spans_path)
    return tracer, total_s, attempted, failed


def reference_pass(workload):
    """Untraced pass with the traced pass's settings (one mc worker)."""
    total = 0.0
    for op in workload.ops(traced=True):
        elapsed, _ = _run_op(op)
        total += elapsed
    return total


def pool_metrics(workload, workers, child_cpu_s, op_s):
    """Pool busy share from the children's CPU time, and the chunks submitted."""
    if workers <= 1:
        return {"busy_frac": 0.0, "chunks": 0}
    chunks = len(workload.scenarios) * math.ceil(workload.replications / workload.chunk)
    return {"busy_frac": child_cpu_s / (op_s * workers), "chunks": chunks}


def print_table(title, values, units):
    print(f"# {title}")
    for name, value in values.items():
        print(f"  {name:<58} {value:>16.6g} {units[name]}")


def main(argv=None) -> int:
    args = parse_args(argv)
    allocator_pinned = pin_allocator()
    started = time.perf_counter()
    try:
        metrics, tracing, workloads = import_package()
    except (ImportError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - started
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workload = workloads.make(args.workload, workers=os.cpu_count() or 1)
    is_grid = isinstance(workload, workloads.MonteCarloGrid)
    pool_workers = getattr(workload, "workers", 1)
    workdir = WORK_DIR / f"run-{os.getpid()}"
    try:
        workdir.mkdir(parents=True, exist_ok=True)
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.setup(args.seed, workdir)
            workload.warm_up()
            setups.append(time.perf_counter() - start)
        setup_s = import_s + statistics.median(setups)
        ctx = context(workload, pool_workers, is_grid, allocator_pinned)

        gc.collect()
        passes, latencies, attempted, failed, child_cpu = timed_phase(workload, args.seconds)
        e2e = metrics.end_to_end(setup_s, passes, latencies, peak_rss_mib(pool_workers))
        pool = pool_metrics(workload, pool_workers, child_cpu, sum(p[0] for p in passes))
        _, tail_pct, samples = metrics.tail(latencies)
        print_table(f"{args.workload} seed={args.seed} end-to-end (untraced)", e2e, metrics.END_TO_END)
        extra = {
            "error_rate": failed / attempted,
            "op_ms.tail.percentile": tail_pct,
            "op_ms.samples": samples,
            "pass_s": [p[0] for p in passes],
            "setup_s.runs": setups,
            "import_s": import_s,
        }
        if is_grid:
            extra["worst_z_vs_reference"] = workload.worst_z
        print("# details " + json.dumps(extra))
        print("# context " + json.dumps(ctx))

        result_metrics = e2e
        if args.trace:
            reference_s = e2e["wall_s"]
            if pool_workers > 1:
                reference_s = reference_pass(workload)
            spans_path = WORK_DIR / f"spans-{args.workload}-seed{args.seed}.csv"
            tracer, traced_s, t_attempted, t_failed = traced_pass(workload, tracing, metrics, spans_path)
            attempted += t_attempted
            failed += t_failed
            layers = metrics.per_layer(
                tracer.summary(), tracer.work, pool, traced_s / reference_s - 1.0,
            )
            print_table(f"{args.workload} seed={args.seed} per layer (traced, 1 worker)",
                        layers, metrics.PER_LAYER)
            trace_info = {"spans": len(tracer.spans), "absent": tracer.absent,
                          "file": str(spans_path.relative_to(ROOT))}
            print("# trace " + json.dumps(trace_info))
            result_metrics = layers
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    result = {
        "correct": failed == 0 and metrics.finite(result_metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in result_metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
