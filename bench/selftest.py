"""Self-test of the benchmark: every check can fail and every metric is printed.

    python3 bench/selftest.py

1. Builds each workload, runs one op of every kind and expects its check to
   pass.
2. Feeds the checks deliberately perturbed outputs and expects each to be
   rejected, so that no check is one that can never fail.
3. Runs bench/run.py briefly on each workload, untraced and traced, and
   expects every metric BENCHMARK.json names, with its unit.
4. Runs bench/run.py in a copy holding only BENCHMARK.json and bench/, and
   expects a non-zero exit without a result.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import worker

ROOT = worker.ROOT
SEED = 7


def expect(condition, message):
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def bump_row(output, row, delta):
    """A sweep output with the value of the given data row moved by delta."""
    code, text, err = output
    lines = text.rstrip("\n").split("\n")
    fields = lines[row + 1].split(",")
    fields[2] = repr(float(fields[2]) + delta)
    lines[row + 1] = ",".join(fields)
    return code, "\n".join(lines) + "\n", err


def first_of_each_kind(ops):
    seen = {}
    for op in ops:
        seen.setdefault(op.kind, op)
    return seen


def check_workloads():
    import numpy as np

    import reference as ref
    import robust_shannon as rs
    import workloads

    workdir = worker.OUT / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name in workloads.WORKLOADS:
            ops = first_of_each_kind(workloads.build(name, SEED, workdir).ops)
            outputs = {kind: op.run() for kind, op in ops.items()}
            for kind, op in ops.items():
                expect(op.check(outputs[kind]) is None, f"{name}/{kind}: {op.check(outputs[kind])}")

            def rejects(kind, output, what):
                expect(ops[kind].check(output) is not None, f"{name}/{kind} accepted {what}")

            if name == "sweep":
                for kind, output in outputs.items():
                    rejects(kind, bump_row(output, 0, 1e-3), "an r=0 value off by 1e-3")
                    rejects(kind, (2,) + output[1:], "exit code 2")
                last = len(ops["rdf_d1"].radii) * workloads.SWEEP_BUDGETS - 1
                rejects("rdf_d1", bump_row(outputs["rdf_d1"], last, 1e-3), "a d=1 value off by 1e-3")
                rejects("capacity_d1", bump_row(outputs["capacity_d1"], last, -1e-3), "a d=1 value off by 1e-3")
                # Lowering the largest radius's first value below the smaller
                # radius's breaks monotonicity in the radius.
                code, text, err = outputs["rdf_d4"]
                rows = [line.split(",") for line in text.strip().split("\n")[1:]]
                nb = workloads.SWEEP_BUDGETS
                drop = float(rows[-nb][2]) - float(rows[-2 * nb][2]) + 1e-3
                rejects("rdf_d4", bump_row(outputs["rdf_d4"], len(rows) - nb, -drop), "a value falling with the radius")
            elif name == "general_channel":
                for kind, result in outputs.items():
                    op = ops[kind]
                    rejects(kind, dataclasses.replace(result, value_nats=result.value_nats + 1e-3), "a value off by 1e-3")
                    # A noise outside the ball, reported with its true capacity.
                    grow = (1.0 + 2.0 * op.radius / np.sqrt(np.trace(op.center))) ** 2
                    outside = rs.SpdMatrix(grow * op.center)
                    rejects(kind, dataclasses.replace(
                        result, worst_case_cov=outside, value_nats=ref.capacity(op.channel, outside.entries, op.power)
                    ), "a worst-case noise outside the ball")
                    # The center itself, reported with its true capacity, is
                    # beaten by an in-ball draw.
                    at_center = ref.capacity(op.channel, op.center, op.power)
                    expect(op.upper_bound < at_center - 1e-6, f"{name}/{kind}: no draw beats the center")
                    rejects(kind, dataclasses.replace(
                        result, worst_case_cov=op.request.ball.center, value_nats=at_center
                    ), "the center as the worst case")
            else:
                report = outputs["gelbrich"]
                rejects("gelbrich", dataclasses.replace(report, lower_bound_ok=False), "a failed lower bound")
                rejects("gelbrich", dataclasses.replace(
                    report, gelbrich_closed_form=report.gelbrich_closed_form + 1e-3
                ), "a closed form off by 1e-3")
                worst_rdf, worst_cap = ops["dominance"].compound
                rdf, cap = outputs["dominance"]
                rejects("dominance", (worst_rdf + 1e-3, cap), "a draw above the compound RDF")
                rejects("dominance", (rdf, worst_cap - 1e-3), "a draw below the compound capacity")
                rejects("brute_force", outputs["brute_force"] + 1.5e-3, "a grid value off by 1.5e-3")
                code, text, err = outputs["cli_dominance"]
                rejects("cli_dominance", (1, text, err), "exit code 1")
                rejects("cli_dominance", (0, text.replace("OK:", "FAILED:"), err), "a FAILED line")
            print(f"selftest: {name}: {len(ops)} kinds pass their checks and reject perturbed outputs")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_benchmark(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "2", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            done = run_benchmark(ROOT, workload, trace)
            expect(done.returncode == 0, f"{workload} trace={trace} exited {done.returncode}: {done.stderr}")
            result = json.loads(done.stdout.strip().split("\n")[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"result keys {set(result)}")
            expect(result["correct"] and result["failed"] == 0, f"{workload} trace={trace}: {result}")
            wanted = {m["name"]: m["unit"] for m in spec[section]}
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(printed == wanted, f"{workload} trace={trace} metrics differ: {set(printed) ^ set(wanted)}")
            print(f"selftest: {workload} trace={trace}: {len(printed)} metrics with units")


def check_predictions():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    predictions = json.loads((ROOT / "bench" / "predictions.json").read_text())["predictions"]
    workloads = {w["name"] for w in spec["workloads"]}
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    # Every per-layer metric but the tracing overhead belongs to a prediction.
    names = {m["name"] for m in spec["per_layer"]} - {"trace.overhead_frac"}
    layers = {n.removesuffix(".calls").removesuffix(".self_s") for n in names}
    covered = set()
    for p in predictions:
        covered.update(p["layers"])
        for pair in p["moves"] + p["holds"]:
            workload, metric = pair.split(":")
            expect(workload in workloads and metric in end_to_end | {"*"}, f"{p['name']}: unknown pair {pair}")
    expect(covered == layers, f"predictions cover {covered ^ layers} wrongly")
    print(f"selftest: predictions name every layer metric ({len(layers)})")


def check_bare_copy():
    bare = worker.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / "bench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in (ROOT / "bench").iterdir():
            if path.is_file():
                shutil.copy(path, bare / "bench")
        done = run_benchmark(bare, "sweep", 0)
        expect(done.returncode != 0, "benchmark succeeded without the library sources")
        expect('"metrics"' not in done.stdout, "benchmark printed a result without the library sources")
        print("selftest: a copy without src/ exits non-zero without a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    worker.import_library()
    check_workloads()
    check_predictions()
    check_reports()
    check_bare_copy()
    print("selftest: OK")


if __name__ == "__main__":
    main()
