"""Independent verification machinery.

Gaussian sampling, exact empirical Wasserstein-2 between equal-size sample
clouds by optimal assignment, a sampled check of the Gaussian closed-form
distance against the empirical one, and grid searches for small compound
instances. The grid oracles share the solvers' waterfill; their independence
comes from the grid over the ball, not from the inner solve. A grid search
evaluates only the grid's frontier, the last point within the ball on each
line along the last axis: the Gaussian RDF is nondecreasing and the
identity-channel capacity nonincreasing in each variance, so the extremum
over the frontier is the extremum over the whole grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _lapack
from .classical import (
    ChannelMatrix,
    _check_distortion,
    _check_power,
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
    _check_radius,
    gaussian_w2,
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
        if not np.isfinite(p).all():
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
    return SampleCloud(law.mean + z @ law.cov._root, seed)


def linear_sum_assignment(cost: np.ndarray):
    """``scipy.optimize.linear_sum_assignment``, imported on the first call:
    only ``empirical_w2`` needs it, and importing scipy.optimize takes about
    0.2 s, which a CLI solve command would otherwise pay for nothing."""
    from scipy.optimize import linear_sum_assignment as solve

    return solve(cost)


def empirical_w2(a: SampleCloud, b: SampleCloud) -> float:
    """Exact Wasserstein-2 between equal-weight empirical measures.

    Solves the assignment problem for the squared-Euclidean cost; the exact
    solution avoids the regularization bias of entropic approximations, which
    matters because the closed-form comparison is one-sided. In one dimension
    the monotone pairing of the sorted clouds is that solution.

    In higher dimension the assignment runs on moment-matched clouds,
    x~ = A^{1/2}(x - x̄) and y~ = A^{-1/2}(y - ȳ), with A the positive
    definite Brenier map between the Gaussian moment fits of the two clouds.
    For any such A, |x~_i - y~_j|² = -2<x_i - x̄, y_j - ȳ> + f(i) + g(j), and
    |x_i - y_j|² has the same form: the two cost matrices differ only by row
    and column constants, so they have the same optimal assignments. Half
    the new cost is the Fenchel-Young gap of the Gaussian Brenier
    potentials, near 0 along the optimal pairing, which keeps the
    shortest augmenting paths short. The cost is built as |x~_i|² + |y~_j|²
    - 2<x~_i, y~_j>: one matrix product into one n x n array, with the two
    norm columns added to it. The norms are row and column constants too,
    but without them the column reduction below puts its zeros at far
    points, and the assignment took about seven times as long. Subtracting
    the column minima, then the row minima, changes the cost by more row
    and column constants and starts the assignment from a reduced matrix
    with a zero in every row and column, as in Jonker and Volgenant's
    column reduction. The returned value is the mean squared distance of
    the assigned pairs of original points.
    When either fit is singular or nearly so (n <= d, repeated points, a
    rank-one cloud) or A is ill-conditioned, A = I: rounding in a badly
    conditioned transform could otherwise pick a worse assignment.
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
    x = a.points - a.points.mean(axis=0)
    y = b.points - b.points.mean(axis=0)
    axes, scale = _brenier_axes(x, y)
    x = (x @ axes) * scale
    y = (y @ axes) / scale
    cost = x @ (-2.0 * y.T)
    cost += np.einsum("ij,ij->i", x, x)[:, None]
    cost += np.einsum("ij,ij->i", y, y)
    cost -= cost.min(axis=0)
    cost -= cost.min(axis=1)[:, None]
    rows, cols = linear_sum_assignment(cost)
    gaps = a.points[rows] - b.points[cols]
    return math.sqrt(float(np.einsum("ij,ij->i", gaps, gaps).mean()))


def _brenier_axes(x: np.ndarray, y: np.ndarray):
    """Eigenvectors V and square-root eigenvalues of the Brenier map A.

    A = Sx^{-1/2} (Sx^{1/2} Sy Sx^{1/2})^{1/2} Sx^{-1/2} maps the Gaussian
    moment fit of the centered cloud x onto that of y. Coordinates in the
    orthonormal V keep the transform's cross term -2<x, y> exact up to the
    orthogonality of V, whatever the spread of A's eigenvalues. Returns
    (I, 1) when Sx or A has a condition number above 1e8; A has the rank of
    Sy, so a singular fit of y lands there too.
    """
    n, d = x.shape
    identity = np.eye(d), np.ones(d)
    var_x, axes_x = _lapack.eigh(x.T @ x / n)
    if not var_x[0] > 1e-8 * var_x[-1]:
        return identity
    root = np.sqrt(var_x)
    half = (axes_x * root) @ axes_x.T
    inv_half = (axes_x / root) @ axes_x.T
    mid_w, mid_v = _lapack.eigh(half @ (y.T @ y / n) @ half)
    mid = (mid_v * np.sqrt(np.maximum(mid_w, 0.0))) @ mid_v.T
    w, v = _lapack.eigh(inv_half @ mid @ inv_half)
    if not w[0] > 1e-8 * w[-1]:
        return identity
    return v, np.sqrt(w)


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
    extremum beyond a 1e-6 slack marks the check failed. The draws' spectra
    are scored as rows of one waterfill per kind; with the identity channel
    the inverse gains are the noise eigenvalues.
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
    spectra = np.array(
        [random_psd_in_ball(ball, seed + 10_000 + k)._eigvals for k in range(draws)]
    )
    worst_rdf = float(reverse_waterfill_rows(spectra, distortion)[2].max())
    worst_cap = float(waterfill_rows(spectra, power)[2].min())
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
    """Grid extremum of a small compound problem.

    Grids the per-axis standard deviations over the box around the center's
    diagonal square roots, keeps the points within the ball, evaluates the
    classical limit at each diagonal covariance, and returns the max (rate
    distortion) or min (capacity, identity channel). Only the grid's
    frontier is evaluated (see ``_grid_frontier``), so the cost grows as
    (2r / grid_step)^(d - 1); only diagonal centers with d <= 3 are accepted.
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
    r = _check_radius(r)
    budget = _check_distortion(budget) if kind == "rdf" else _check_power(budget)
    s = np.sqrt(diag)
    axes = [
        np.arange(max(0.0, si - r), si + r + 0.5 * grid_step, grid_step) for si in s
    ]
    spectra = _grid_frontier(axes, s, r * (1.0 + 1e-12) + 1e-15) ** 2
    if kind == "rdf":
        return float(reverse_waterfill_rows(spectra, budget)[2].max())
    # With unit channel the inverse gains are the noise eigenvalues; a noiseless
    # mode makes the capacity infinite, which the minimum then passes over.
    with np.errstate(divide="ignore"):
        return float(waterfill_rows(spectra, budget)[2].min())


def _grid_frontier(axes, s: np.ndarray, reach: float) -> np.ndarray:
    """For each point of the leading axes' grid, the last point u of its line
    along the last axis with |u - s| <= reach, as rows; lines with no such
    point are left out.

    Along a line the shift u_d - s_d, rounded, is nondecreasing, so the
    rounded distance falls up to the point nearest s_d and rises after it,
    and the points within reach are contiguous. A bisection from that
    nearest point finds the last one, testing the same rounded predicate on
    every line at once; memory and time grow with the number of lines, not
    with the grid.
    """
    lead = np.zeros((1, 0))
    for t in axes[:-1]:
        lead = np.column_stack([np.repeat(lead, t.size, axis=0), np.tile(t, len(lead))])
    last = axes[-1]

    def within(lead, j):
        return np.linalg.norm(np.column_stack([lead, last[j]]) - s, axis=1) <= reach

    lo = np.full(len(lead), int(np.argmin(np.abs(last - s[-1]))))
    keep = within(lead, lo)
    lead, lo = lead[keep], lo[keep]
    hi = np.full(len(lo), last.size - 1)
    while np.any(lo < hi):
        mid = (lo + hi + 1) // 2
        ok = within(lead, mid)
        lo = np.where(ok, mid, lo)
        hi = np.where(ok, hi, mid - 1)
    return np.column_stack([lead, last[lo]])
