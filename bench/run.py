"""robust-shannon benchmark: one workload, one seed, one timed run.

    python3 bench/run.py --workload sweep|general_channel|verify \
        --seed N --seconds S --trace 0|1

Run from anywhere; it imports robust_shannon from the src/ next to this
directory and exits non-zero without a result when that is missing.

With --trace 0 it starts 1 + 2 * SETUP_EXTRA fresh processes (bench/worker.py)
and reports their median set-up time, in CPU seconds. The middle one also runs
the timed window; the others only set up, half before it and half after, so
that the median samples the host's speed across the whole run. The window
reports the mean, median and 90th percentile op cost, peak memory and the
share of ops that passed their checks. An op's cost is its CPU time in units
of a fixed reference kernel timed beside it (unit "ref", see worker.py), which
holds steady on a host whose speed swings; one over the mean cost is the
throughput. With --trace 1 one process runs every op of the window
twice, untraced and traced, and reports per-layer metrics instead.

The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics": {name: {"value", "unit"}}}. The line before it holds the machine
fingerprint, wall-clock and CPU times before normalisation, op costs by kind
and, when traced, each layer's share of self time. Spans of a traced run are
written to bench/out/spans-<workload>.npz.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sweep", "general_channel", "verify")
SETUP_EXTRA = 2
TIME_LIMIT_S = 170.0
END_TO_END_UNITS = {
    "setup_s": "s",
    "op_mean_xref": "ref",
    "op_p50_xref": "ref",
    "op_p90_xref": "ref",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}


class WorkerFailed(Exception):
    pass


def run_worker(args, deadline, setup_only=False):
    spawned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd = [
        sys.executable, str(ROOT / "bench" / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--spawned-at", repr(spawned_at),
    ] + (["--setup-only"] if setup_only else [])
    # Sweeps run serially unless the user asks otherwise; the benchmark measures
    # that default, so a value inherited from the caller's shell is dropped.
    env = {k: v for k, v in os.environ.items() if k != "ROBUST_SHANNON_THREADS"}
    # One BLAS thread: the matrices are at most 32 x 32, and on a 2-core box a
    # second BLAS thread made d=32 solves over ten times slower whenever the
    # other core was busy, which would measure the neighbours, not the code.
    env["OPENBLAS_NUM_THREADS"] = "1"
    try:
        done = subprocess.run(
            cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker timed out after {exc.timeout:.0f} s") from exc
    if done.returncode != 0:
        raise WorkerFailed(f"worker exited {done.returncode}")
    return json.loads(done.stdout.strip().split("\n")[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "robust_shannon" / "__init__.py").is_file():
        print(f"error: no robust_shannon sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        extra = 0 if args.trace else SETUP_EXTRA
        setups = [run_worker(args, deadline, setup_only=True) for _ in range(extra)]
        result = run_worker(args, deadline)
        setups.append(result)
        setups += [run_worker(args, deadline, setup_only=True) for _ in range(extra)]
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = result["attempted"], result["failed"]
    if args.trace:
        import tracing

        units = tracing.metric_units()
    else:
        units = END_TO_END_UNITS
        result["metrics"]["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        result["metrics"]["ok_frac"] = (attempted - failed) / attempted
    metrics = {name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()}
    detail = {k: result[k] for k in ("fingerprint", "raw", "by_kind", "self_share") if k in result}
    detail["setup_cpu_s"] = [s["setup_s"] for s in setups]
    detail["setup_wall_s"] = [s["setup_wall_s"] for s in setups]
    print(json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
