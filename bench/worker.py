"""One benchmark process: set up a workload, warm up, run the timed loop, check.

Started by run.py, one fresh process per set-up measurement:

    python3 bench/worker.py --workload W --seed N --seconds S --trace 0|1 \
        --spawned-at T [--setup-only]

Set-up time is the CPU time the process has used when set-up ends: interpreter
start, imports, input generation and the warm-up op. T is the CLOCK_MONOTONIC
reading (system-wide on Linux) taken just before the process was spawned; the
wall-clock set-up time measured from it is reported alongside. Prints one JSON
line on stdout.

Op costs are CPU times divided by the CPU time of a fixed reference kernel run
between ops. On a shared host the speed of a core can swing by a third from one
second to the next, as neighbours come and go; an op and the kernel beside it
slow down together, so their ratio holds while either time alone does not.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy
from scipy.optimize import linear_sum_assignment

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def import_library():
    """Import robust_shannon from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import robust_shannon

    if Path(robust_shannon.__file__).resolve().parent != (src / "robust_shannon").resolve():
        raise ImportError(f"robust_shannon came from {robust_shannon.__file__}, not {src}")


# Inputs of the reference kernel: fixed, and independent of the seed.
_REF_RNG = np.random.default_rng(0)
_REF_MATRIX = _REF_RNG.standard_normal((8, 8))
_REF_SPD = _REF_MATRIX @ _REF_MATRIX.T + np.eye(8)
_REF_COSTS = _REF_RNG.random((48, 48))


def reference_kernel() -> int:
    """About 3 ms of the work the ops are made of, sharing no code with robust_shannon.

    Python arithmetic, small LAPACK calls and a small assignment problem, so
    that it slows down with the host as the ops do.
    """
    total = 0
    for i in range(20_000):
        total += i * i
    for _ in range(40):
        np.linalg.eigh(_REF_SPD)
        np.linalg.svd(_REF_MATRIX)
    linear_sum_assignment(_REF_COSTS)
    return total


def reference_cpu_s() -> float:
    c0 = time.process_time()
    reference_kernel()
    return time.process_time() - c0


def run_window(ops, seconds, tracer=None):
    """Closed loop over the ops, cycling, until `seconds` have passed.

    Untraced, the reference kernel runs before the first op and after each op,
    and its CPU times are returned with the records. With a tracer, each op
    runs twice in a row instead, untraced and traced in alternating order, so
    that both runs see the same state of the machine.
    """
    records = []  # (op, output, error, wall_s, cpu_s, traced)
    references = [] if tracer is not None else [reference_cpu_s()]
    start = time.perf_counter()
    slot = 0
    while time.perf_counter() - start < seconds:
        op = ops[slot % len(ops)]
        modes = (False,) if tracer is None else ((False, True), (True, False))[slot % 2]
        for traced in modes:
            if tracer is not None:
                tracer.enabled, tracer.op = traced, slot
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                output, error = op.run(), None
            except Exception as exc:  # counted as a failed op, traceback reported below
                output, error = None, exc
            cpu, wall = time.process_time() - c0, time.perf_counter() - t0
            records.append((op, output, error, wall, cpu, traced))
        if tracer is None:
            references.append(reference_cpu_s())
        slot += 1
    if tracer is not None:
        tracer.enabled = False
    return records, references, time.perf_counter() - start


def count_failures(records):
    failed = 0
    for op, output, error, *_ in records:
        problem = None
        if error is not None:
            problem = "".join(traceback.format_exception(error)).strip()
        else:
            try:
                problem = op.check(output)
            except Exception:  # a check that crashes is a failed op
                problem = traceback.format_exc().strip()
        if problem is not None:
            failed += 1
            if failed <= 3:
                print(f"op {op.kind} failed: {problem}", file=sys.stderr)
    return failed


def fingerprint():
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        **openblas_info(),
        "ROBUST_SHANNON_THREADS": os.environ.get("ROBUST_SHANNON_THREADS", "unset"),
    }


def openblas_info():
    """OpenBLAS build and thread count of the libraries numpy and scipy loaded."""
    import ctypes

    info = {}
    with open("/proc/self/maps", encoding="utf-8") as maps:
        paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        owner = "numpy" if "numpy" in path else "scipy"
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                try:
                    config = getattr(lib, f"{prefix}_get_config{suffix}")
                    threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                except AttributeError:
                    continue
                config.restype, threads.restype = ctypes.c_char_p, ctypes.c_int
                info[f"{owner}_openblas"] = config().decode()
                info[f"{owner}_blas_threads"] = threads()
    return info


def op_costs(records, references):
    """Each op's CPU time over the mean CPU time of the reference kernels either side of it."""
    cpu = np.array([r[4] for r in records])
    ref = np.array(references)
    return cpu / (0.5 * (ref[:-1] + ref[1:]))


def cost_summary(costs):
    return {
        "op_mean_xref": float(costs.mean()),
        "op_p50_xref": float(np.percentile(costs, 50)),
        "op_p90_xref": float(np.percentile(costs, 90)),
    }


def raw_times(records, references, wall_s):
    """Wall-clock and CPU figures before normalisation, reported for reference."""
    wall = np.array([r[3] for r in records])
    cpu = np.array([r[4] for r in records])
    return {
        "ops_per_wall_s": len(records) / wall_s,
        "wall_p50_ms": float(np.percentile(wall, 50)) * 1e3,
        "wall_p90_ms": float(np.percentile(wall, 90)) * 1e3,
        "cpu_p50_ms": float(np.percentile(cpu, 50)) * 1e3,
        "cpu_p90_ms": float(np.percentile(cpu, 90)) * 1e3,
        "reference_p50_ms": float(np.median(references)) * 1e3,
    }


def by_kind(records, costs):
    kinds = {}
    for (op, *_), cost in zip(records, costs):
        kinds.setdefault(op.kind, []).append(cost)
    return {k: {"ops": len(v), "p50_xref": float(np.median(v))} for k, v in sorted(kinds.items())}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import_library()
    import workloads

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.build(args.workload, args.seed, workdir)
        try:
            workload.warmup.run()
        except Exception:  # the same op fails again, counted, in the timed window
            traceback.print_exc()
        usage = resource.getrusage(resource.RUSAGE_SELF)
        result = {"setup_s": usage.ru_utime + usage.ru_stime, "setup_wall_s": clock() - args.spawned_at}
        if args.setup_only:
            print(json.dumps(result))
            return
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
            records, _, _ = run_window(workload.ops, args.seconds, tracer)
            plain_s = sum(r[3] for r in records if not r[5])
            traced_s = sum(r[3] for r in records if r[5])
            # Share of untraced throughput lost to tracing, on the same ops.
            overhead = 1.0 - plain_s / traced_s
            result["metrics"] = tracer.metrics(len(records) // 2, overhead)
            result["self_share"] = self_shares(result["metrics"])
            tracer.save(OUT / f"spans-{args.workload}.npz")
        else:
            records, references, wall = run_window(workload.ops, args.seconds)
            costs = op_costs(records, references)
            result["metrics"] = cost_summary(costs)
            result["metrics"]["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            result["raw"] = raw_times(records, references, wall)
            result["by_kind"] = by_kind(records, costs)
        result["attempted"] = len(records)
        result["failed"] = count_failures(records)
        result["fingerprint"] = fingerprint()
        print(json.dumps(result))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def self_shares(metrics):
    """Each layer's share of the total traced self time, largest first."""
    selfs = {k[: -len(".self_s")]: v for k, v in metrics.items() if k.endswith(".self_s")}
    total = sum(selfs.values()) or 1.0
    return dict(sorted(((k, v / total) for k, v in selfs.items()), key=lambda kv: -kv[1]))


if __name__ == "__main__":
    main()
