"""Command-line front end.

Loads covariance/channel matrices from JSON, evaluates (radius, budget)
points through ``sweep_compound`` and emits them as CSV or JSON rows, or runs
the verification oracles. ``rdf`` and ``capacity`` are the radius-0 points
of ``compound-rdf`` and ``compound-capacity`` (the classical limits, labelled
"classical" in the diagnostics), and ``sweep`` evaluates a grid. Output is
byte-stable for a fixed command line and seed: numbers are serialized with
full round-trip precision and rows in deterministic order.

Exit codes: 0 success, 1 verification suite failed, 2 config/domain error,
3 solver did not converge, 4 output I/O failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from .classical import ChannelMatrix
from .compound import sweep_compound
from .errors import RobustShannonError, SolverNoConverge
from .oracle import (
    MAX_EXACT_ASSIGNMENT,
    check_gelbrich,
    random_seeded_laws,
    sampler_dominance_checks,
)
from .psd_geometry import SpdMatrix

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_NO_CONVERGE = 3
EXIT_IO = 4


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def load_covariance(path: str) -> SpdMatrix:
    """Load {"dim": d, "rows": [[...], ...]} as a covariance matrix.

    Rows are averaged with their transpose; relative asymmetry above 1e-6
    is rejected.
    """
    m = _load_matrix(path)
    asym = float(np.abs(m - m.T).max())
    scale = max(float(np.abs(m).max()), 1e-300)
    if asym > 1e-6 * scale:
        raise ValueError(f"{path}: matrix asymmetry {asym:.3e} exceeds 1e-6 relative")
    return SpdMatrix(0.5 * (m + m.T))


def load_channel(path: str) -> ChannelMatrix:
    """Load a channel matrix from the same JSON layout (no symmetrization)."""
    return ChannelMatrix(_load_matrix(path))


def _load_matrix(path: str) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"cannot parse {path}: {exc}") from exc
    if not isinstance(payload, dict) or "dim" not in payload or "rows" not in payload:
        raise ValueError(f'{path}: expected an object with "dim" and "rows"')
    rows = np.asarray(payload["rows"], dtype=float)
    dim = payload["dim"]
    if rows.ndim != 2 or rows.shape != (dim, dim):
        raise ValueError(f"{path}: rows must form a {dim}x{dim} matrix")
    return rows


def _parse_grid(text: str) -> list[float]:
    """Either a single float or 'start:stop:count'."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid spec must be start:stop:count, got {text!r}")
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
        if count < 1:
            raise ValueError(f"grid count must be at least 1, got {count}")
        return [float(v) for v in np.linspace(start, stop, count)]
    return [float(text)]


def _parse_float_list(text: str) -> list[float]:
    values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    if not values:
        raise ValueError(f"empty list: {text!r}")
    return values


def _resolve_center(args) -> SpdMatrix:
    if args.sigma0_scalar is not None:
        if args.sigma0_scalar <= 0:
            raise ValueError(f"--sigma0-scalar must be positive, got {args.sigma0_scalar}")
        return SpdMatrix([[args.sigma0_scalar**2]])
    if args.center is None:
        raise ValueError("one of --center or --sigma0-scalar is required")
    return load_covariance(args.center)


def _resolve_channel(args, dim: int) -> ChannelMatrix:
    if args.channel:
        return load_channel(args.channel)
    return ChannelMatrix(np.eye(dim))


def emit(rows, fmt: str, units: str, stream) -> None:
    """Write ``SweepPoint`` rows as CSV (header + data, LF endings) or a JSON array."""
    if not rows:
        raise ValueError("nothing to emit")
    bits = units == "bits"
    if fmt == "csv":
        header = "r,budget,value_nats" + (",value_bits" if bits else "") + ",worst_case_trace"
        lines = [header]
        for row in rows:
            fields = [_fmt(row.r), _fmt(row.budget), _fmt(row.value_nats)]
            if bits:
                fields.append(_fmt(row.value_nats / math.log(2)))
            fields.append(_fmt(row.worst_case_trace))
            lines.append(",".join(fields))
        stream.write("\n".join(lines) + "\n")
    else:
        payload = []
        for row in rows:
            item = {"r": row.r, "budget": row.budget, "value_nats": row.value_nats}
            if bits:
                item["value_bits"] = row.value_nats / math.log(2)
            item["worst_case_trace"] = row.worst_case_trace
            item["diagnostics"] = asdict(row.diagnostics)
            payload.append(item)
        stream.write(json.dumps(payload, indent=2) + "\n")
    stream.flush()


def _cmd_point(args, out) -> int:
    """One (radius, budget) point; the classical subcommands fix the radius at 0."""
    center = _resolve_center(args)
    if args.kind == "rdf":
        point, channel = (args.radius, args.distortion), None
    else:
        point, channel = (args.radius, args.power), _resolve_channel(args, center.dim)
    emit(sweep_compound(args.kind, center, [point], channel), args.format, args.units, out)
    return EXIT_OK


def _cmd_sweep(args, out) -> int:
    center = _resolve_center(args)
    radii = _parse_float_list(args.radii)
    channel = None
    if args.kind == "rdf":
        if args.distortion is None:
            raise ValueError("sweep --kind rdf requires --distortion")
        budgets = _parse_grid(args.distortion)
    else:
        if args.power is None:
            raise ValueError("sweep --kind capacity requires --power")
        budgets = _parse_grid(args.power)
        channel = _resolve_channel(args, center.dim)
    grid = sorted((r, b) for r in radii for b in budgets)
    emit(sweep_compound(args.kind, center, grid, channel), args.format, args.units, out)
    return EXIT_OK


def _cmd_verify(args, out) -> int:
    failures = 0
    if args.suite == "gelbrich":
        for index, (p, q) in enumerate(random_seeded_laws(args.seed, pairs=5)):
            report = check_gelbrich(p, q, MAX_EXACT_ASSIGNMENT, args.seed + 1000 + index)
            status = "PASS" if report.lower_bound_ok else "FAIL"
            failures += not report.lower_bound_ok
            out.write(
                f"{status} gelbrich pair={index} empirical={report.empirical:.6g} "
                f"closed_form={report.gelbrich_closed_form:.6g}\n"
            )
    else:
        for line, ok in sampler_dominance_checks(args.seed, draws=200):
            failures += not ok
            out.write(("PASS " if ok else "FAIL ") + line + "\n")
    out.write(f"{'OK' if failures == 0 else 'FAILED'}: suite={args.suite} seed={args.seed}\n")
    out.flush()
    return EXIT_OK if failures == 0 else EXIT_VERIFY_FAILED


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robust-shannon",
        description="Gaussian rate-distortion and capacity, classical and worst-case "
        "over Bures-Wasserstein ambiguity balls.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--units", choices=("nats", "bits"), default="nats")
        p.add_argument("--seed", type=int, default=0)

    def add_center(p):
        p.add_argument("--center", help="covariance matrix JSON file")
        p.add_argument(
            "--sigma0-scalar",
            type=float,
            help="scalar nominal standard deviation (bypasses --center for d=1)",
        )

    p = sub.add_parser("rdf", help="classical Gaussian rate-distortion")
    add_center(p)
    p.add_argument("--distortion", type=float, required=True)
    add_common(p)
    p.set_defaults(handler=_cmd_point, kind="rdf", radius=0.0)

    p = sub.add_parser("capacity", help="classical Gaussian channel capacity")
    add_center(p)
    p.add_argument("--channel", help="channel matrix JSON file (default identity)")
    p.add_argument("--power", type=float, required=True)
    add_common(p)
    p.set_defaults(handler=_cmd_point, kind="capacity", radius=0.0)

    p = sub.add_parser("compound-rdf", help="worst-case rate-distortion over a ball")
    add_center(p)
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--distortion", type=float, required=True)
    add_common(p)
    p.set_defaults(handler=_cmd_point, kind="rdf")

    p = sub.add_parser("compound-capacity", help="worst-case capacity over a ball")
    add_center(p)
    p.add_argument("--channel", help="channel matrix JSON file (default identity)")
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--power", type=float, required=True)
    add_common(p)
    p.set_defaults(handler=_cmd_point, kind="capacity")

    p = sub.add_parser("sweep", help="evaluate a (radius, budget) grid")
    p.add_argument("--kind", choices=("rdf", "capacity"), required=True)
    add_center(p)
    p.add_argument("--channel", help="channel matrix JSON file (capacity only)")
    p.add_argument("--radii", required=True, help="comma-separated radii")
    p.add_argument("--distortion", help="distortion value or start:stop:count grid")
    p.add_argument("--power", help="power value or start:stop:count grid")
    add_common(p)
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("verify", help="run a verification oracle suite")
    p.add_argument("--suite", choices=("gelbrich", "dominance"), default="gelbrich")
    add_common(p)
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args, sys.stdout)
    except SolverNoConverge as exc:
        diag = exc.diagnostics
        detail = f" after {diag.iterations} iterations" if diag is not None else ""
        sys.stderr.write(f"error: solver did not converge{detail}: {exc}\n")
        return EXIT_NO_CONVERGE
    except (ValueError, RobustShannonError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG
    except OSError as exc:
        sys.stderr.write(f"error: output failed: {exc}\n")
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
