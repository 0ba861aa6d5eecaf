"""Independent verification machinery.

Gaussian sampling, exact empirical Wasserstein-2 between equal-size sample
clouds by optimal assignment, a sampled check of the Gaussian closed-form
distance against the empirical one, and exhaustive grid searches for small
compound instances. The grid oracles share the solvers' waterfill; their
independence comes from the exhaustive grid over the ball, not from the
inner solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .classical import (
    ChannelMatrix,
    _check_distortion,
    _check_power,
    gaussian_capacity,
    gaussian_rdf,
    reverse_waterfill_rows,
    waterfill_rows,
)
from .compound import (
    CompoundCapacityRequest,
    CompoundRdfRequest,
    compound_capacity,
    compound_rdf,
)
from .errors import TooLargeForExact
from .psd_geometry import (
    BwBall,
    GaussianLaw,
    SpdMatrix,
    gaussian_w2,
    matrix_sqrt,
    random_psd_in_ball,
)

MAX_EXACT_ASSIGNMENT = 512
GELBRICH_SLACK = 0.15  # calibrated at n = 512; see demos/gelbrich_calibration.py


@dataclass(frozen=True, eq=False)
class SampleCloud:
    """Finite point cloud with the seed that produced it."""

    points: np.ndarray
    seed: int

    def __post_init__(self):
        p = np.array(self.points, dtype=float)
        if p.ndim != 2 or p.shape[0] < 1:
            raise ValueError("points must be a nonempty n x d array")
        if not np.all(np.isfinite(p)):
            raise ValueError("points must be finite")
        p.setflags(write=False)
        object.__setattr__(self, "points", p)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class GelbrichReport:
    empirical: float
    gelbrich_closed_form: float
    lower_bound_ok: bool


def sample_gaussian(law: GaussianLaw, n: int, seed: int) -> SampleCloud:
    """n i.i.d. draws from the law, deterministic per seed.

    Generator: numpy PCG64 (standard normals via ziggurat), colored by the
    symmetric square root of the covariance.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, law.dim))
    factor = matrix_sqrt(law.cov).entries
    return SampleCloud(law.mean + z @ factor, seed)


def empirical_w2(a: SampleCloud, b: SampleCloud) -> float:
    """Exact Wasserstein-2 between equal-weight empirical measures.

    Solves the assignment problem on the squared-Euclidean cost matrix; the
    exact solution avoids the regularization bias of entropic approximations,
    which matters because the closed-form comparison is one-sided. In one
    dimension the monotone pairing of the sorted clouds is that solution.
    """
    if a.size != b.size:
        raise ValueError(f"cloud sizes differ: {a.size} vs {b.size}")
    if a.dim != b.dim:
        raise ValueError(f"cloud dimensions differ: {a.dim} vs {b.dim}")
    if a.size > MAX_EXACT_ASSIGNMENT:
        raise TooLargeForExact(
            f"{a.size} points exceed the exact-assignment bound {MAX_EXACT_ASSIGNMENT}"
        )
    if a.dim == 1:
        gaps = np.sort(a.points[:, 0]) - np.sort(b.points[:, 0])
        return math.sqrt(float(np.mean(gaps * gaps)))
    diff = a.points[:, None, :] - b.points[None, :, :]
    cost = np.einsum("ijk,ijk->ij", diff, diff)
    rows, cols = linear_sum_assignment(cost)
    return math.sqrt(float(cost[rows, cols].mean()))


def check_gelbrich(p: GaussianLaw, q: GaussianLaw, n: int, seed: int) -> GelbrichReport:
    """Empirical distance between fresh sample clouds vs the Gaussian closed form.

    The clouds are decorrelated by spawning two child seeds from the given
    one. Finite samples overestimate the distance only on average, so the
    one-sided check allows the calibrated slack.
    """
    if n > MAX_EXACT_ASSIGNMENT:
        raise TooLargeForExact(
            f"{n} points exceed the exact-assignment bound {MAX_EXACT_ASSIGNMENT}"
        )
    seed_a, seed_b = (int(x) for x in np.random.SeedSequence(seed).generate_state(2))
    empirical = empirical_w2(sample_gaussian(p, n, seed_a), sample_gaussian(q, n, seed_b))
    closed_form = gaussian_w2(p, q)
    ok = empirical >= closed_form * (1.0 - GELBRICH_SLACK)
    return GelbrichReport(empirical, closed_form, ok)


def random_seeded_laws(seed: int, pairs: int):
    """Deterministic stream of random Gaussian law pairs, d = 1..3, for verification runs."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(pairs):
        d = int(rng.integers(1, 4))
        laws = []
        for _ in range(2):
            g = rng.standard_normal((d, d))
            cov = SpdMatrix(g @ g.T + 0.1 * np.eye(d))
            laws.append(GaussianLaw(rng.standard_normal(d), cov))
        out.append(tuple(laws))
    return out


def sampler_dominance_checks(seed: int, draws: int):
    """Compound values vs classical limits at in-ball sampler draws.

    Yields one report line per problem kind; a draw beating the compound
    extremum beyond a 1e-6 slack marks the check failed.
    """
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((2, 2))
    ball = BwBall(SpdMatrix(g @ g.T + 0.5 * np.eye(2)), 0.4)
    distortion = 0.8
    power = 2.0
    rdf_value = compound_rdf(CompoundRdfRequest(ball, distortion)).value_nats
    cap_value = compound_capacity(
        CompoundCapacityRequest(ball, ChannelMatrix(np.eye(2)), power)
    ).value_nats
    worst_rdf = -math.inf
    worst_cap = math.inf
    for k in range(draws):
        draw = random_psd_in_ball(ball, seed + 10_000 + k)
        worst_rdf = max(worst_rdf, gaussian_rdf(draw, distortion))
        worst_cap = min(worst_cap, gaussian_capacity(np.eye(2), draw, power).rate_nats)
    yield (
        f"dominance rdf compound={rdf_value:.6g} max_draw={worst_rdf:.6g}",
        worst_rdf <= rdf_value + 1e-6,
    )
    yield (
        f"dominance capacity compound={cap_value:.6g} min_draw={worst_cap:.6g}",
        worst_cap >= cap_value - 1e-6,
    )


def brute_force_compound(
    kind: str, center: SpdMatrix, r: float, budget: float, grid_step: float
) -> float:
    """Exhaustive grid extremum of a small compound problem.

    Grids the per-axis standard deviations over the box around the center's
    diagonal square roots, keeps the points within the ball, evaluates the
    classical limit at each diagonal covariance, and returns the max (rate
    distortion) or min (capacity, identity channel). Cost grows as
    (2r / grid_step)^d; only diagonal centers with d <= 3 are accepted.
    """
    if kind not in ("rdf", "capacity"):
        raise ValueError(f"kind must be 'rdf' or 'capacity', got {kind!r}")
    if center.dim > 3:
        raise ValueError(f"dimension {center.dim} too large for the grid oracle")
    diag = np.diag(center.entries)
    if float(np.abs(center.entries - np.diag(diag)).max()) > 1e-12 * max(1.0, center.trace):
        raise ValueError("center must be diagonal")
    if not (float(grid_step) > 0.0 and math.isfinite(grid_step)):
        raise ValueError(f"grid_step must be positive and finite, got {grid_step}")
    if not (float(r) >= 0.0 and math.isfinite(r)):
        raise ValueError(f"r must be nonnegative and finite, got {r}")
    budget = _check_distortion(budget) if kind == "rdf" else _check_power(budget)
    s = np.sqrt(diag)
    axes = [
        np.arange(max(0.0, si - r), si + r + 0.5 * grid_step, grid_step) for si in s
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    u = np.stack([m.ravel() for m in mesh], axis=1)
    feasible = np.linalg.norm(u - s, axis=1) <= r * (1.0 + 1e-12) + 1e-15
    spectra = u[feasible] ** 2
    if kind == "rdf":
        return float(reverse_waterfill_rows(spectra, budget)[2].max())
    # With unit channel the inverse gains are the noise eigenvalues; a noiseless
    # mode makes the capacity infinite, which the minimum then passes over.
    with np.errstate(divide="ignore"):
        return float(waterfill_rows(spectra, budget)[2].min())
