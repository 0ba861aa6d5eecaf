"""Command-line front end.

Loads covariance/channel matrices from JSON, evaluates (radius, budget)
points through ``sweep_compound`` and emits them as CSV or JSON rows, or runs
the verification oracles. The five solve subcommands share one handler:
``rdf`` and ``capacity`` are the radius-0 points of ``compound-rdf`` and
``compound-capacity`` (the classical limits, labelled "classical" in the
diagnostics), and ``sweep`` evaluates a grid. Each takes exactly one center
source, ``--center`` or ``--sigma0-scalar``, and no flag it would not read;
``--seed`` belongs to ``verify`` alone. Output is byte-stable for a fixed
command line: numbers are serialized with full round-trip precision and rows
in deterministic order.

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


def load_covariance(path: str) -> SpdMatrix:
    """Load {"dim": d, "rows": [[...], ...]}, d a positive integer and every
    entry a JSON number (not true or false), as a covariance matrix.

    Relative asymmetry above 1e-6 is rejected; below it ``SpdMatrix``
    averages the rows with their transpose.
    """
    m = _load_matrix(path)
    asym = float(np.abs(m - m.T).max())
    scale = max(float(np.abs(m).max()), 1e-300)
    if asym > 1e-6 * scale:
        raise ValueError(f"{path}: matrix asymmetry {asym:.3e} exceeds 1e-6 relative")
    return SpdMatrix(m)


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
    dim, rows = payload["dim"], payload["rows"]
    if type(dim) is not int or dim < 1:  # a JSON true loads as a bool, a subclass of int
        raise ValueError(f'{path}: "dim" must be a positive integer, got {json.dumps(dim)}')
    square = type(rows) is list and len(rows) == dim and all(type(row) is list and len(row) == dim for row in rows)
    top = sys.float_info.max  # a larger JSON integer is beyond the float range
    if not square or any(type(v) is not float and not (type(v) is int and abs(v) <= top) for row in rows for v in row):
        raise ValueError(f"{path}: rows must form a {dim}x{dim} matrix of numbers in the float range")
    return np.array(rows, dtype=float)


def _parse_number(text: str, flag: str, kind=float):
    """``text`` as a ``kind`` (float or int); ValueError naming ``--flag`` when it is not one."""
    try:
        return kind(text)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ValueError(f"--{flag}: expected {what}, got {text!r}") from None


def _parse_grid(text: str, flag: str) -> list[float]:
    """Either a single float or 'start:stop:count' with finite ends whose span
    stop - start is finite too; every rejection names ``--flag``."""
    if ":" not in text:
        return [_parse_number(text, flag)]
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"--{flag}: grid spec must be start:stop:count, got {text!r}")
    start, stop = _parse_number(parts[0], flag), _parse_number(parts[1], flag)
    count = _parse_number(parts[2], flag, int)
    if not math.isfinite(stop - start):  # also where an end is not finite
        raise ValueError(f"--{flag}: grid ends must be finite and stop - start in the float range, got {text!r}")
    if count < 1:
        raise ValueError(f"--{flag}: grid count must be at least 1, got {count}")
    try:
        return [float(v) for v in np.linspace(start, stop, count)]
    except MemoryError:
        raise ValueError(f"--{flag}: grid count {count} does not fit in memory") from None


def _parse_float_list(text: str, flag: str) -> list[float]:
    values = [_parse_number(tok, flag) for tok in text.split(",") if tok.strip() != ""]
    if not values:
        raise ValueError(f"--{flag}: empty list: {text!r}")
    return values


def _seed(text: str) -> int:
    """``--seed``: a non-negative integer, as numpy's generators require."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {seed}")
    return seed


def _resolve_center(args) -> SpdMatrix:
    if args.sigma0_scalar is not None:
        if not 0.0 < args.sigma0_scalar < math.inf:
            raise ValueError(f"--sigma0-scalar must be positive and finite, got {args.sigma0_scalar}")
        try:
            variance = args.sigma0_scalar**2
        except OverflowError:
            raise ValueError(f"--sigma0-scalar {args.sigma0_scalar} overflows when squared") from None
        if variance == 0.0:
            raise ValueError(f"--sigma0-scalar {args.sigma0_scalar} underflows to 0 when squared")
        return SpdMatrix([[variance]])
    return load_covariance(args.center)


def emit(rows, fmt: str, units: str, stream) -> None:
    """Write ``SweepPoint`` rows as CSV (header + data, LF endings) or a JSON array."""
    if not rows:
        raise ValueError("nothing to emit")
    table = []  # the value columns of each row, in output order
    for row in rows:
        item = {"r": row.r, "budget": row.budget, "value_nats": row.value_nats}
        if units == "bits":
            item["value_bits"] = row.value_nats / math.log(2)
        item["worst_case_trace"] = row.worst_case_trace
        table.append(item)
    if fmt == "csv":
        lines = [",".join(table[0])]  # the header, then every number at full round-trip precision
        lines += [",".join([format(float(v), ".17g") for v in item.values()]) for item in table]
        stream.write("\n".join(lines) + "\n")
    else:
        for item, row in zip(table, rows):
            item["diagnostics"] = asdict(row.diagnostics)
        stream.write(json.dumps(table, indent=2) + "\n")
    stream.flush()


BUDGET_FLAGS = {"rdf": "distortion", "capacity": "power"}


def _cmd_solve(args, out) -> int:
    """Evaluate a (radius, budget) grid: one point for the single-point
    commands (radius 0 for ``rdf`` and ``capacity``), radii x budgets for
    ``sweep``. Only ``sweep`` has flags of the other kind, and rejects them."""
    for flag in ("power", "channel") if args.kind == "rdf" else ("distortion",):
        if getattr(args, flag, None) is not None:
            raise ValueError(f"sweep --kind {args.kind} does not take --{flag}")
    center = _resolve_center(args)
    budget = getattr(args, BUDGET_FLAGS[args.kind])
    if args.subcommand == "sweep":
        radii = _parse_float_list(args.radii, "radii")
        if budget is None:
            raise ValueError(f"sweep --kind {args.kind} requires --{BUDGET_FLAGS[args.kind]}")
        budgets = _parse_grid(budget, BUDGET_FLAGS[args.kind])
        grid = sorted((r, b) for r in radii for b in budgets)
    else:
        grid = [(args.radius, budget)]
    channel = getattr(args, "channel", None)  # None: the identity
    channel = load_channel(channel) if channel is not None else None
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

    def add_solve(name, help, kind=None):
        """A solve subcommand with its center source, channel (capacity
        only) and output flags."""
        p = sub.add_parser(name, help=help)
        if kind is None:
            p.add_argument("--kind", choices=tuple(BUDGET_FLAGS), required=True)
        center = p.add_mutually_exclusive_group(required=True)
        center.add_argument("--center", help="covariance matrix JSON file")
        center.add_argument(
            "--sigma0-scalar", type=float, help="scalar nominal standard deviation (a 1x1 center)"
        )
        if kind != "rdf":
            p.add_argument("--channel", help="channel matrix JSON file (capacity; default identity)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--units", choices=("nats", "bits"), default="nats")
        p.set_defaults(handler=_cmd_solve, kind=kind)
        return p

    for name, help in (
        ("rdf", "classical Gaussian rate-distortion"),
        ("capacity", "classical Gaussian channel capacity"),
        ("compound-rdf", "worst-case rate-distortion over a ball"),
        ("compound-capacity", "worst-case capacity over a ball"),
    ):
        kind = name.removeprefix("compound-")
        p = add_solve(name, help, kind)
        if kind == name:
            p.set_defaults(radius=0.0)
        else:
            p.add_argument("--radius", type=float, required=True)
        p.add_argument(f"--{BUDGET_FLAGS[kind]}", type=float, required=True)

    p = add_solve("sweep", "evaluate a (radius, budget) grid")
    p.add_argument("--radii", required=True, help="comma-separated radii")
    p.add_argument("--distortion", help="distortion value or start:stop:count grid")
    p.add_argument("--power", help="power value or start:stop:count grid")

    p = sub.add_parser("verify", help="run a verification oracle suite")
    p.add_argument("--suite", choices=("gelbrich", "dominance"), default="gelbrich")
    p.add_argument("--seed", type=_seed, default=0, help="non-negative integer")
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
