"""The benchmark's workloads: seeded inputs, ops and their correctness checks.

Each workload is a closed loop with one caller: an op starts only after the
previous one has returned. The ops of a workload are variants drawn from a
seeded pool, run in a fixed order that cycles. Every output is checked after
the timed window against `reference.py` or against a bound that any correct
answer must meet; no stored numbers are involved.

An op has a `kind`, a `run()` that calls the library and returns its output,
and a `check(output)` that returns None when the output is correct and a
message otherwise.

The library is reached through the package and module objects at call time
(`rs.compound_capacity`, `cli.main`), so that the tracing wrappers installed
in those namespaces see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

import reference as ref
import robust_shannon as rs
from robust_shannon import cli

WORKLOADS = ("sweep", "general_channel", "verify")


@dataclass
class Workload:
    ops: list  # run in this order, cycling
    warmup: object  # run once, untimed, as the last step of set-up


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Generate the named workload's inputs from the seed."""
    rng = np.random.default_rng(seed)
    if name == "sweep":
        return _sweep(rng, workdir)
    if name == "general_channel":
        return _general_channel(rng)
    if name == "verify":
        return _verify(rng)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")


def _rotation(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def _log_uniform(rng, lo, hi, size):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), size))


def _spd(rng, eigenvalues):
    q = _rotation(rng, len(eigenvalues))
    m = (q * eigenvalues) @ q.T
    return 0.5 * (m + m.T)


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


# --- sweep -------------------------------------------------------------------
# Centers cycle through d = 1, 4, 16, 16 with log-uniform spectra in [0.5, 2],
# so every seed gives problems of the same conditioning. Each center is swept
# for RDF, then for capacity. Since d=16 takes two of the four slots, the
# median falls inside the d=16 RDF sweeps and the 90th percentile inside the
# d=16 capacity sweeps, away from the edges between kinds. Radii are fractions
# of sqrt(tr C), the scale of the ball; budgets are 8-point linear grids.

SWEEP_DIMS = (1, 4, 16, 16)
SWEEP_CENTERS = 96
SWEEP_RADIUS_FRACTIONS = (0.0, 0.1, 0.25, 0.5)
SWEEP_BUDGETS = 8
SWEEP_GRIDS = {"rdf": ("--distortion", 0.05, 0.8), "capacity": ("--power", 0.1, 2.0)}


@dataclass
class SweepOp:
    problem: str  # "rdf" or "capacity"
    center: np.ndarray
    path: str

    def __post_init__(self):
        self.eigenvalues = np.linalg.eigvalsh(self.center)
        total = float(self.eigenvalues.sum())
        self.radii = [f * math.sqrt(total) for f in SWEEP_RADIUS_FRACTIONS]
        self.kind = f"{self.problem}_d{len(self.eigenvalues)}"
        flag, lo, hi = SWEEP_GRIDS[self.problem]
        self.budgets = np.linspace(lo * total, hi * total, SWEEP_BUDGETS)
        self.argv = [
            "sweep", "--kind", self.problem, "--center", self.path,
            "--radii", ",".join(repr(r) for r in self.radii),
            flag, f"{lo * total!r}:{hi * total!r}:{SWEEP_BUDGETS}",
        ]

    def run(self):
        return _run_cli(self.argv)

    def classical(self, eigenvalues, budget):
        if self.problem == "rdf":
            return ref.rdf(eigenvalues, budget)
        return ref.capacity_from_inverse_gains(eigenvalues, budget)

    def check(self, output):
        code, text, err = output
        if code != 0:
            return f"sweep exited {code}: {err.strip()}"
        rows = [line.split(",") for line in text.strip().split("\n")[1:]]
        if len(rows) != len(self.radii) * SWEEP_BUDGETS:
            return f"sweep printed {len(rows)} rows"
        table = np.array([[float(x) for x in row[:3]] for row in rows])
        radii, budgets, values = (table[:, k].reshape(len(self.radii), -1) for k in range(3))
        if not (np.array_equal(radii[:, 0], self.radii) and np.array_equal(budgets[0], self.budgets)):
            return "sweep rows do not follow the requested grid"
        for b, budget in enumerate(self.budgets):
            expected = self.classical(self.eigenvalues, budget)
            if not ref.close(values[0, b], expected, 1e-8):
                return f"r=0 budget={budget}: {values[0, b]} vs classical {expected}"
        for i, r in enumerate(self.radii):
            for b, budget in enumerate(self.budgets):
                value = values[i, b]
                if self.eigenvalues.size == 1:
                    grown = (math.sqrt(self.eigenvalues[0]) + r) ** 2
                    expected = (
                        max(0.0, 0.5 * math.log(grown / budget))
                        if self.problem == "rdf"
                        else 0.5 * math.log1p(budget / grown)
                    )
                    if not ref.close(value, expected, 1e-6):
                        return f"d=1 r={r} budget={budget}: {value} vs closed form {expected}"
                # The radially grown center lies on the ball's boundary, so the
                # worst case is at least as bad as the classical limit there.
                grown = self.eigenvalues * (1.0 + r / math.sqrt(self.eigenvalues.sum())) ** 2
                radial = self.classical(grown, budget)
                worse = value - radial if self.problem == "rdf" else radial - value
                if worse < -1e-6 * max(1.0, abs(radial)):
                    return f"r={r} budget={budget}: {value} beaten by the radial point {radial}"
        # RDF grows with the radius and falls with the distortion; capacity
        # falls with the radius and grows with the power.
        sign = 1.0 if self.problem == "rdf" else -1.0
        slack = 1e-9 * max(1.0, float(np.abs(values).max()))
        if np.any(sign * np.diff(values, axis=0) < -slack):
            return "values not monotone in the radius"
        if np.any(sign * np.diff(values, axis=1) > slack):
            return "values not monotone in the budget"
        return None


def _sweep(rng, workdir: Path) -> Workload:
    ops = []
    for i in range(SWEEP_CENTERS):
        d = SWEEP_DIMS[i % len(SWEEP_DIMS)]
        center = _spd(rng, _log_uniform(rng, 0.5, 2.0, d))
        path = workdir / f"center-{i}.json"
        path.write_text(json.dumps({"dim": d, "rows": center.tolist()}))
        ops += [SweepOp(kind, center, str(path)) for kind in ("rdf", "capacity")]
    return Workload(ops, warmup=ops[5])  # d=16 capacity: the largest matrices


# --- general_channel ---------------------------------------------------------
# Non-commuting channel H = U diag(h) W^T, noise center with log-uniform
# spectrum in [0.5, 2], radius 0.2 sqrt(tr C), power tr C. The spectra ranges
# are fixed so that the seed moves the eigenbases, not the conditioning. With
# d = 4, 8, 8, 16, 32 the median falls inside the d=8 solves and the 90th
# percentile inside the d=32 ones.

GC_DIMS = (4, 8, 8, 16, 32)
GC_INSTANCES = 300
GC_DRAWS = 4


@dataclass
class CapacityOp:
    channel: np.ndarray
    center: np.ndarray
    radius: float
    power: float
    draw_seed: int

    def __post_init__(self):
        self.kind = f"capacity_d{len(self.center)}"
        self.request = rs.CompoundCapacityRequest(
            rs.BwBall(rs.SpdMatrix(self.center), self.radius), rs.ChannelMatrix(self.channel), self.power
        )

    def run(self):
        return rs.compound_capacity(self.request)

    @cached_property
    def upper_bound(self):
        """Least classical capacity among the center and a few in-ball draws."""
        noises = [self.center]
        for k in range(GC_DRAWS):
            draw = rs.random_psd_in_ball(self.request.ball, self.draw_seed + k).entries
            if ref.bw_distance(self.center, draw) > self.radius * (1.0 + 1e-6):
                raise RuntimeError(f"in-ball draw {k} lies outside the ball")
            noises.append(draw)
        return min(ref.capacity(self.channel, n, self.power) for n in noises)

    def check(self, result):
        value, worst = result.value_nats, result.worst_case_cov.entries
        at_worst = ref.capacity(self.channel, worst, self.power)
        if not ref.close(value, at_worst, 1e-8):
            return f"value {value} is not the capacity {at_worst} at the returned noise"
        dist = ref.bw_distance(self.center, worst)
        if dist > self.radius * (1.0 + 1e-6) + 1e-9:
            return f"worst-case noise at distance {dist} outside radius {self.radius}"
        if value > self.upper_bound + 1e-6:
            return f"value {value} exceeds the capacity {self.upper_bound} at an in-ball noise"
        return None


def _general_channel(rng) -> Workload:
    ops = []
    for i in range(GC_INSTANCES):
        d = GC_DIMS[i % len(GC_DIMS)]
        center = _spd(rng, _log_uniform(rng, 0.5, 2.0, d))
        channel = (_rotation(rng, d) * _log_uniform(rng, 0.5, 1.5, d)) @ _rotation(rng, d).T
        total = float(np.trace(center))
        ops.append(CapacityOp(channel, center, 0.2 * math.sqrt(total), total, int(rng.integers(2**31))))
    return Workload(ops, warmup=ops[4])  # d=32: starts the BLAS threads


# --- verify ------------------------------------------------------------------
# The cycle gives each kind a share that puts the median inside the dominance
# batches and the 90th percentile inside the n=512 Gelbrich checks, away from
# the edges between kinds, so the percentiles do not jump between kinds.
# `verify --suite gelbrich` is left out: it checks n=256 clouds against a slack
# calibrated at n=512 and printed FAILED for 6 of 150 seeds tried.

VERIFY_CYCLE = (
    "gelbrich", "dominance", "dominance", "dominance",
    "gelbrich", "dominance", "dominance", "dominance",
    "gelbrich", "dominance", "brute_force", "dominance",
    "gelbrich", "dominance", "dominance", "dominance",
    "gelbrich", "dominance", "dominance", "cli_dominance",
)
VERIFY_VARIANTS = {"gelbrich": 64, "dominance": 64, "brute_force": 8, "cli_dominance": 8}
VERIFY_PASSES = 64  # passes of the cycle that use every variant equally often
GELBRICH_N = 512
GELBRICH_SHIFT = 3.0
DOMINANCE_DRAWS = 24
BRUTE_FORCE_STEP = 1e-3  # the step at which the grid agrees with the solver within 1e-3
BRUTE_FORCE_RADIUS = 0.25  # fixes the grid size, and with it the op's time and memory


@dataclass
class GelbrichOp:
    kind = "gelbrich"
    laws: tuple
    seed: int

    def run(self):
        return rs.check_gelbrich(*self.laws, GELBRICH_N, self.seed)

    @cached_property
    def closed_form(self):
        p, q = self.laws
        return ref.gaussian_w2(p.mean, p.cov.entries, q.mean, q.cov.entries)

    def check(self, report):
        if not ref.close(report.gelbrich_closed_form, self.closed_form, 1e-8):
            return f"closed form {report.gelbrich_closed_form} vs reference {self.closed_form}"
        if not report.lower_bound_ok:
            return f"empirical {report.empirical} below the closed form {self.closed_form}"
        return None


@dataclass
class DominanceOp:
    kind = "dominance"
    ball: rs.BwBall
    distortion: float
    power: float
    seed: int

    def run(self):
        """Extreme classical limits over a batch of in-ball draws."""
        eye = np.eye(self.ball.center.dim)
        rdf, cap = -math.inf, math.inf
        for k in range(DOMINANCE_DRAWS):
            draw = rs.random_psd_in_ball(self.ball, self.seed + k)
            rdf = max(rdf, rs.gaussian_rdf(draw, self.distortion))
            cap = min(cap, rs.gaussian_capacity(eye, draw, self.power).rate_nats)
        return rdf, cap

    @cached_property
    def compound(self):
        eye = rs.ChannelMatrix(np.eye(self.ball.center.dim))
        return (
            rs.compound_rdf(rs.CompoundRdfRequest(self.ball, self.distortion)).value_nats,
            rs.compound_capacity(rs.CompoundCapacityRequest(self.ball, eye, self.power)).value_nats,
        )

    def check(self, output):
        (rdf, cap), (worst_rdf, worst_cap) = output, self.compound
        if rdf > worst_rdf + 1e-6:
            return f"an in-ball draw has rate {rdf} above the compound RDF {worst_rdf}"
        if cap < worst_cap - 1e-6:
            return f"an in-ball draw has capacity {cap} below the compound capacity {worst_cap}"
        return None


@dataclass
class BruteForceOp:
    kind = "brute_force"
    problem: str  # "rdf" or "capacity"
    center: rs.SpdMatrix
    radius: float
    budget: float

    def run(self):
        return rs.brute_force_compound(self.problem, self.center, self.radius, self.budget, BRUTE_FORCE_STEP)

    @cached_property
    def solver(self):
        ball = rs.BwBall(self.center, self.radius)
        if self.problem == "rdf":
            return rs.compound_rdf(rs.CompoundRdfRequest(ball, self.budget)).value_nats
        eye = rs.ChannelMatrix(np.eye(self.center.dim))
        return rs.compound_capacity(rs.CompoundCapacityRequest(ball, eye, self.budget)).value_nats

    def check(self, value):
        if abs(value - self.solver) > 1e-3:
            return f"grid {self.problem} {value} vs solver {self.solver}"
        return None


@dataclass
class CliDominanceOp:
    kind = "cli_dominance"
    seed: int

    def run(self):
        return _run_cli(["verify", "--suite", "dominance", "--seed", str(self.seed)])

    def check(self, output):
        code, text, err = output
        if code != 0 or not text.strip().split("\n")[-1].startswith("OK:"):
            return f"verify --suite dominance exited {code}: {text.strip()} {err.strip()}"
        return None


def _law(rng, d, mean):
    return rs.GaussianLaw(mean, rs.SpdMatrix(_spd(rng, _log_uniform(rng, 0.5, 2.0, d))))


def _verify(rng) -> Workload:
    # Dimensions alternate 2, 3 and spectra are log-uniform in [0.5, 2], so
    # that the pools of two seeds cost about the same.
    variants = {kind: [] for kind in VERIFY_VARIANTS}
    for i in range(VERIFY_VARIANTS["gelbrich"]):
        # Means 3 apart keep the closed form well above the sampling error at
        # n=512, so the one-sided check has no false alarms to count.
        d = 2 + i % 2
        mean = rng.standard_normal(d)
        direction = rng.standard_normal(d)
        shifted = mean + GELBRICH_SHIFT * direction / np.linalg.norm(direction)
        laws = (_law(rng, d, mean), _law(rng, d, shifted))
        variants["gelbrich"].append(GelbrichOp(laws, int(rng.integers(2**31))))
    for i in range(VERIFY_VARIANTS["dominance"]):
        center = rs.SpdMatrix(_spd(rng, _log_uniform(rng, 0.5, 2.0, 2 + i % 2)))
        ball = rs.BwBall(center, float(rng.uniform(0.3, 0.5)))
        distortion = float(rng.uniform(0.3, 0.7)) * center.trace
        variants["dominance"].append(
            DominanceOp(ball, distortion, float(rng.uniform(1.0, 3.0)), int(rng.integers(2**31)))
        )
    for i in range(VERIFY_VARIANTS["brute_force"]):
        center = rs.SpdMatrix.from_diag(rng.uniform(0.5, 2.0, 2))
        problem = ("rdf", "capacity")[i % 2]
        budget = float(rng.uniform(0.3, 0.8) * center.trace if problem == "rdf" else rng.uniform(0.5, 2.0))
        variants["brute_force"].append(BruteForceOp(problem, center, BRUTE_FORCE_RADIUS, budget))
    for _ in range(VERIFY_VARIANTS["cli_dominance"]):
        variants["cli_dominance"].append(CliDominanceOp(int(rng.integers(2**31))))
    ops, used = [], {kind: 0 for kind in VERIFY_VARIANTS}
    for kind in VERIFY_CYCLE * VERIFY_PASSES:
        pool = variants[kind]
        ops.append(pool[used[kind] % len(pool)])
        used[kind] += 1
    return Workload(ops, warmup=ops[0])
