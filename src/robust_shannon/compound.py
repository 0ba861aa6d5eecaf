"""Worst-case Shannon limits over Bures-Wasserstein ambiguity balls.

The compound rate-distortion function is the supremum of the Gaussian RDF
over all source covariances within a given distance of a nominal covariance;
the compound capacity is the infimum of the Gaussian channel capacity over
noise covariances in such a ball. Both extrema are attained by Gaussians, so
the problems reduce to optimization on the PSD cone.

Solver strategy: the RDF objective depends on the covariance only through
its spectrum, and among matrices with a fixed spectrum the ball distance is
minimized by the one commuting with the center with descending-aligned
eigenvalues. The supremum is therefore attained in the center's eigenbasis
and reduces to a Euclidean-ball-constrained search over the square roots of
the eigenvalues. Capacity gets the same reduction whenever the channel
shares an eigenbasis with the center (or is a scalar multiple of the
identity); otherwise the search uses the Danskin envelope gradient in
optimal-transport-map coordinates, where the ball is an exact Euclidean ball
and PSD-ness is automatic. All of these run one projected-gradient loop that
minimizes (the RDF passes its negated rate); each objective hands its inner
waterfill to the gradient, so an accepted point is solved once. Convergence
is declared on value stagnation because the waterfilling objectives carry
kinks where the water level crosses an eigenvalue.

The general-channel capacity is a convex problem: capacity is convex in the
noise covariance and the ball is convex. It is therefore solved from one
start, the center, and certified afterwards by a Frank-Wolfe duality gap
(``SolverDiagnostics.certificate_gap``), an upper bound in nats on how far
the returned value lies above the optimum. The linear minimization over the
ball behind the gap is a scalar dual search, solved by Newton steps that
climb onto the root of a trust-region secular equation from below, so
every step gives a valid bound. A singular center is made
positive definite by a small diagonal jitter, reported as
``SolverDiagnostics.jitter``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from .classical import (
    ChannelMatrix,
    WaterfillAllocation,
    _check_distortion,
    _check_power,
    capacity_from_gains,
    gaussian_capacity,
    rdf_from_spectrum,
    reverse_waterfill,
)
from .errors import RobustShannonError, SolverNoConverge
from .psd_geometry import (
    BwBall,
    SpdMatrix,
    _ensure_positive_definite,
    _symmetrize,
    symmetric_eig,
)

VALUE_STAGNATION_TOL = 1e-10
STAGNATION_PATIENCE = 10
MAX_ITERATIONS = 10_000
ARMIJO = 1e-4
MAX_HALVINGS = 60
MAX_SECULAR_NEWTON = 50


@dataclass(frozen=True)
class SolverDiagnostics:
    """How a compound value was obtained.

    ``jitter`` is the diagonal shift added to a singular center before
    solving (0.0 when none was needed, and always for the RDF).
    ``certificate_gap`` is an upper bound, in nats, on how far the returned
    value lies above the true optimum (at a converged point it can read a
    few ulps below zero from rounding); it is set on the general-channel
    capacity path and None elsewhere.
    """

    iterations: int
    final_step_norm: float
    converged: bool
    solver_path: str
    jitter: float = 0.0
    certificate_gap: float | None = None


@dataclass(frozen=True, eq=False)
class CompoundRdfRequest:
    """Worst-case rate-distortion query: ambiguity ball plus distortion budget."""

    ball: BwBall
    distortion: float

    def __post_init__(self):
        object.__setattr__(self, "distortion", _check_distortion(self.distortion))


@dataclass(frozen=True, eq=False)
class CompoundCapacityRequest:
    """Worst-case capacity query: noise ambiguity ball, channel, power budget."""

    ball: BwBall
    channel: ChannelMatrix
    power: float

    def __post_init__(self):
        if self.channel.dim != self.ball.center.dim:
            raise ValueError("channel and ball center dimensions do not match")
        object.__setattr__(self, "power", _check_power(self.power))


@dataclass(frozen=True, eq=False)
class CompoundResult:
    value_nats: float
    worst_case_cov: SpdMatrix
    inner_allocation: WaterfillAllocation
    diagnostics: SolverDiagnostics


class SweepPoint(NamedTuple):
    r: float
    budget: float
    value_nats: float
    worst_case_trace: float
    diagnostics: SolverDiagnostics


def compound_rdf_scalar(sigma0: float, r: float, distortion: float) -> float:
    """Closed-form scalar worst-case RDF: half log+ of (sigma0 + r)^2 / D."""
    _check_scalar_domain(sigma0, r)
    return max(0.0, 0.5 * math.log((sigma0 + r) ** 2 / _check_distortion(distortion)))


def compound_capacity_scalar(sigma0: float, r: float, power: float) -> float:
    """Closed-form scalar worst-case capacity: half log(1 + B / (sigma0 + r)^2)."""
    _check_scalar_domain(sigma0, r)
    return 0.5 * math.log1p(_check_power(power) / (sigma0 + r) ** 2)


def _check_scalar_domain(sigma0, r):
    if not (float(sigma0) > 0.0 and math.isfinite(sigma0)):
        raise ValueError(f"sigma0 must be positive and finite, got {sigma0}")
    if not (float(r) >= 0.0 and math.isfinite(r)):
        raise ValueError(f"r must be nonnegative and finite, got {r}")


def _project_ball(x, center, radius):
    """Euclidean projection onto the ball of ``radius`` around ``center``;
    a point inside is returned as is."""
    diff = x - center
    norm = float(np.linalg.norm(diff))
    if norm > radius:
        return center + diff * (radius / norm)
    return x


def _minimize(objective, gradient, x0, center, radius, label):
    """Projected gradient descent on the ball ||x - center|| <= radius.

    ``objective(x)`` returns the value at x together with the inner solve
    behind it, and ``gradient(x, inner)`` takes that inner solve, so the
    accepted point of one iteration is never solved again for the next.
    Steps halve until the Armijo condition (1e-4 on the projected step)
    holds; converged once the relative value change stays below
    VALUE_STAGNATION_TOL for STAGNATION_PATIENCE consecutive iterations.
    Maximization problems pass the negated objective. Returns (x, value,
    diagnostics).
    """
    x = _project_ball(np.asarray(x0, dtype=float), center, radius)
    value, inner = objective(x)
    stagnant = 0
    step_norm = 0.0
    for iteration in range(1, MAX_ITERATIONS + 1):
        grad = gradient(x, inner)
        improved = False
        alpha = 1.0
        for _ in range(MAX_HALVINGS):
            candidate = _project_ball(x - alpha * grad, center, radius)
            if np.array_equal(candidate, x):
                break  # step underflowed: first-order stationary
            descent = float(grad @ (candidate - x))
            if descent < 0.0:
                cand_value, cand_inner = objective(candidate)
                if cand_value <= value + ARMIJO * descent:
                    improved = True
                    break
            alpha *= 0.5
        if not improved:
            # The iterate did not move; every further iteration would repeat
            # this line search verbatim, so the stagnation rule is met.
            return x, value, SolverDiagnostics(iteration, 0.0, True, label)
        step_norm = float(np.linalg.norm(candidate - x))
        rel_change = abs(cand_value - value) / max(1.0, abs(value))
        x, value, inner = candidate, cand_value, cand_inner
        stagnant = stagnant + 1 if rel_change < VALUE_STAGNATION_TOL else 0
        if stagnant >= STAGNATION_PATIENCE:
            return x, value, SolverDiagnostics(iteration, step_norm, True, label)
    raise SolverNoConverge(
        f"value did not stagnate within {MAX_ITERATIONS} iterations",
        SolverDiagnostics(MAX_ITERATIONS, step_norm, False, label),
    )


def _rdf_objective(u, distortion):
    """Negated rate at the spectrum u**2, with its waterfill (None when the
    budget covers the total variance and the rate is zero)."""
    lam = u * u
    if distortion >= float(lam.sum()):
        return 0.0, None
    alloc = rdf_from_spectrum(lam, distortion)
    return -alloc.rate_nats, alloc


def _rdf_gradient(u, alloc):
    grad = np.zeros_like(u)
    if alloc is None:
        return grad
    active = u * u > alloc.level
    grad[active] = -1.0 / u[active]
    grad[~active] = -u[~active] / alloc.level
    return grad


def compound_rdf(req: CompoundRdfRequest) -> CompoundResult:
    """Worst-case rate-distortion over the ambiguity ball, in nats.

    Eigenvalue-space reduction: with s the square roots of the center's
    descending eigenvalues, maximizes the reverse-waterfilled rate over
    nonnegative u with ||u - s|| <= radius, starting from the radial
    inflation of s. The worst-case covariance is assembled in the center's
    eigenbasis.
    """
    ball, distortion = req.ball, req.distortion
    if ball.radius == 0.0:
        alloc = reverse_waterfill(ball.center, distortion)
        diag = SolverDiagnostics(0, 0.0, True, "eigen-reduction")
        return CompoundResult(alloc.rate_nats, ball.center, alloc, diag)
    vals, vecs = symmetric_eig(ball.center)
    s = np.sqrt(vals)
    norm_s = float(np.linalg.norm(s))
    direction = s / norm_s if norm_s > 0.0 else np.full_like(s, 1.0 / math.sqrt(s.size))
    u0 = s + ball.radius * direction
    u_star, _, diagnostics = _minimize(
        lambda u: _rdf_objective(u, distortion),
        _rdf_gradient,
        u0,
        s, ball.radius,
        "eigen-reduction",
    )
    worst = SpdMatrix((vecs * (u_star * u_star)) @ vecs.T)
    alloc = reverse_waterfill(worst, distortion)
    return CompoundResult(alloc.rate_nats, worst, alloc, diagnostics)


def _commuting_channel_axes(center: SpdMatrix, h: np.ndarray):
    """Common eigenbasis of the center and the channel, or None.

    Tries the center's eigenvectors first, then (for a symmetric channel)
    the channel's own; the second attempt covers centers with repeated
    eigenvalues. Returns (basis, center stddevs per axis, channel weight
    per axis), paired axis-wise, unsorted.
    """
    _, vecs = symmetric_eig(center)
    mixed = vecs.T @ h @ vecs
    if _is_diagonal(mixed):
        return vecs, np.sqrt(center._eigvals), np.diag(mixed).copy()
    if float(np.abs(h - h.T).max()) <= 1e-10 * max(1.0, float(np.abs(h).max())):
        hvals, hvecs = np.linalg.eigh(_symmetrize(h))
        mixed_center = hvecs.T @ center.entries @ hvecs
        if _is_diagonal(mixed_center):
            axis_vars = np.maximum(np.diag(mixed_center), 0.0)
            return hvecs, np.sqrt(axis_vars), hvals
    return None


def _is_diagonal(m):
    off = m - np.diag(np.diag(m))
    return float(np.abs(off).max()) <= 1e-10 * max(1.0, float(np.abs(m).max()))


def _capacity_objective(u, hvals, power):
    """Capacity at the noise spectrum u**2, with its waterfill.

    Every iterate has u >= s > 0 (s: the jittered center's stddevs), as the
    gradient is nonpositive and the projection only rescales u - s; a dead
    mode's zero gain stays inactive in the waterfill."""
    alloc = capacity_from_gains((hvals / u) ** 2, power)
    return alloc.rate_nats, alloc


def _capacity_gradient(u, hvals, alloc):
    grad = np.zeros_like(u)
    active = alloc.per_mode > 0.0
    grad[active] = u[active] / (alloc.level * hvals[active] ** 2) - 1.0 / u[active]
    return grad


class _TransportCoordinates:
    """Noise covariances in a ball, in optimal-transport-map coordinates.

    With the center eigendecomposed as V diag(lam) V^T, a symmetric S
    parametrizes the noise V (S diag(lam) S) V^T, which is PSD for free. The
    squared ball distance to the center is the lam-weighted sum of squared
    entries of S - I, so in the scaled upper-triangle coordinates x the
    feasible set is exactly the Euclidean ball ||x|| <= radius, and the
    projection is a rescale. Every ball point is reached (the optimal map of
    any feasible noise is such an S), and every x in the ball is feasible
    (its map is an admissible coupling, so it can only overestimate the
    distance).
    """

    def __init__(self, center: SpdMatrix, channel: np.ndarray, power: float):
        self.lam, self.basis = symmetric_eig(center)
        d = self.lam.size
        self.rows, self.cols = np.triu_indices(d)
        diag = self.rows == self.cols
        self.scale = np.where(
            diag, np.sqrt(self.lam[self.rows]), np.sqrt(self.lam[self.rows] + self.lam[self.cols])
        )
        self.pack = np.where(diag, 1.0, 2.0)
        self.channel = self.basis.T @ channel @ self.basis
        self.power = power

    def smatrix(self, x: np.ndarray) -> np.ndarray:
        s = np.zeros((self.lam.size, self.lam.size))
        entries = x / self.scale
        s[self.rows, self.cols] = entries
        s[self.cols, self.rows] = entries
        return s + np.eye(self.lam.size)

    def noise(self, x: np.ndarray) -> SpdMatrix:
        s = self.smatrix(x)
        return SpdMatrix(s @ (self.lam[:, None] * s))

    def noise_in_original_basis(self, x: np.ndarray) -> SpdMatrix:
        return SpdMatrix(self.basis @ self.noise(x).entries @ self.basis.T)

    def objective(self, x: np.ndarray):
        """Capacity at the noise of x, with that (jittered) noise and its inner solve."""
        noise, _ = _ensure_positive_definite(self.noise(x))
        result = gaussian_capacity(self.channel, noise, self.power)
        return result.rate_nats, (noise, result)

    def gradient(self, x: np.ndarray, inner) -> np.ndarray:
        """Danskin envelope gradient pulled back to the x coordinates.

        The chain rule through S diag(lam) S takes the covariance gradient G
        to diag(lam) S G + G S diag(lam) on the symmetric slot.
        """
        noise, result = inner
        s = self.smatrix(x)
        g = _noise_gradient(self.channel, noise, result.input_cov)
        m = (self.lam[:, None] * s) @ g + g @ (s * self.lam[None, :])
        return self.pack * m[self.rows, self.cols] / self.scale


def _noise_gradient(h, noise: SpdMatrix, input_cov: SpdMatrix) -> np.ndarray:
    """Danskin gradient of the capacity in the (positive definite) noise W:
    0.5 ((W + H Q* H^T)^{-1} - W^{-1}) at the inner-optimal input Q*."""
    output_cov = noise.entries + h @ input_cov.entries @ h.T
    g = 0.5 * (np.linalg.inv(_symmetrize(output_cov)) - np.linalg.inv(noise.entries))
    return _symmetrize(g)


def compound_capacity(req: CompoundCapacityRequest) -> CompoundResult:
    """Worst-case capacity over the noise ambiguity ball, in nats.

    Uses the eigenvalue-space reduction when the channel shares an eigenbasis
    with the center (starting from the center itself); otherwise projected
    gradient descent in transport coordinates, started once at the center,
    with a Frank-Wolfe duality gap as ``diagnostics.certificate_gap``. The
    worst-case noise covariance is returned alongside the inner waterfilling
    at that noise; ``diagnostics.jitter`` is the diagonal shift that made a
    singular center positive definite.
    """
    ball, power = req.ball, req.power
    h = req.channel.entries
    center_pd, jitter = _ensure_positive_definite(ball.center)
    if ball.radius == 0.0:
        rate, _, alloc = gaussian_capacity(req.channel, ball.center, power)
        diag = SolverDiagnostics(0, 0.0, True, "eigen-reduction", jitter)
        return CompoundResult(rate, ball.center, alloc, diag)
    axes = _commuting_channel_axes(center_pd, h)
    gap = None
    if axes is not None:
        basis, s, hvals = axes
        u_star, _, diagnostics = _minimize(
            lambda u: _capacity_objective(u, hvals, power),
            lambda u, alloc: _capacity_gradient(u, hvals, alloc),
            s.copy(),
            s, ball.radius,
            "eigen-reduction",
        )
        worst = SpdMatrix((basis * (u_star * u_star)) @ basis.T)
        rate, _, alloc = gaussian_capacity(req.channel, worst, power)
    else:
        coords = _TransportCoordinates(center_pd, h, power)
        x, _, diagnostics = _minimize(
            coords.objective,
            coords.gradient,
            np.zeros(coords.rows.size),
            0.0, ball.radius,
            "projected-gradient",
        )
        worst = coords.noise_in_original_basis(x)
        rate, input_cov, alloc = gaussian_capacity(req.channel, worst, power)
        gap = _frank_wolfe_gap(h, center_pd, worst, input_cov, ball.radius)
    diagnostics = replace(diagnostics, jitter=jitter, certificate_gap=gap)
    return CompoundResult(rate, worst, alloc, diagnostics)


def _frank_wolfe_gap(h, center: SpdMatrix, noise: SpdMatrix, input_cov: SpdMatrix, radius):
    """Frank-Wolfe duality gap of the capacity at ``noise``, in nats.

    The capacity is convex in the noise covariance and the ball is convex,
    so with G the Danskin gradient at the (jittered) noise W and Q* its
    optimal input, the optimum is at least C(W) - tr(G W) - max over the
    ball of tr(-G N). The maximum is bounded from above by
    ``_ball_support``, so the gap bounds C(W) - C* from above.
    """
    noise, _ = _ensure_positive_definite(noise)
    g = _noise_gradient(h, noise, input_cov)
    a, q = np.linalg.eigh(-g)
    b = np.maximum(np.einsum("ij,ij->j", q, center.entries @ q), 0.0)
    return float(np.sum(g * noise.entries)) + _ball_support(a, b, radius)


def _support_dual(a, b, radius, gamma):
    """U(gamma) = gamma r^2 + gamma sum_i b_i a_i / (gamma - a_i).

    For a PSD A = Q diag(a) Q^T and b_i = q_i^T C q_i, every gamma > max(a)
    (and > 0) bounds max tr(A N) over the ball of ``radius`` around C: U is
    the Lagrangian dual of that maximum in Gaussian coupling form, with
    x^T A x - gamma ||x - y||^2 maximized pointwise over x, so weak duality
    makes it an upper bound.
    """
    return gamma * (radius * radius + float(np.sum(b * a / (gamma - a))))


def _ball_support(a, b, radius):
    """Upper bound on max tr(A N) over the ball: U minimized over gamma.

    U is convex with stationary point sum_i b_i a_i^2 / (gamma - a_i)^2 =
    r^2, a trust-region secular equation. Newton on f^{-1/2} = 1/r, which
    is increasing and concave, started left of the root (where each term
    alone already reaches r^2) climbs monotonically onto it, so every
    iterate stays a valid gamma. In the hard case, b about 0 on the top
    eigenvector, there is no root and U increases from max(a); the search
    then stops at once just above max(a).
    """
    top = float(a.max())
    if top <= 0.0:
        return 0.0  # A is negative semidefinite and N is PSD
    root = np.sqrt(b) * np.abs(a)
    r2 = radius * radius
    gamma = max(float(np.max(a + root / radius)), top * (1.0 + 1e-12))
    for _ in range(MAX_SECULAR_NEWTON):
        terms = (root / (gamma - a)) ** 2
        f = float(terms.sum())
        if f <= r2:
            break  # at the root, or past it in the hard case
        step = f * (math.sqrt(f) / radius - 1.0) / float(np.sum(terms / (gamma - a)))
        gamma += step
        if step <= 1e-15 * gamma:
            break
    return _support_dual(a, b, radius, gamma)


def sweep_compound(
    kind: str,
    center: SpdMatrix,
    grid: Sequence[tuple[float, float]],
    channel: ChannelMatrix | None = None,
) -> list[SweepPoint]:
    """Evaluate a compound problem around ``center`` over (radius, budget) pairs.

    Capacity sweeps use ``channel`` (the identity when None); RDF sweeps take
    none. Pointwise identical to the single-shot solvers, in input order,
    each point with its diagnostics. A per-point failure, a bad budget or
    radius included, is re-raised as the same exception, diagnostics
    included, with the grid index prefixed to its message.
    """
    if kind not in ("rdf", "capacity"):
        raise ValueError(f"kind must be 'rdf' or 'capacity', got {kind!r}")
    if kind == "rdf" and channel is not None:
        raise ValueError("an RDF sweep takes no channel")
    points = list(grid)
    if not points:
        raise ValueError("grid must be non-empty")
    if kind == "capacity" and channel is None:
        channel = ChannelMatrix(np.eye(center.dim))
    out = []
    for index, (r, budget) in enumerate(points):
        try:
            if kind == "rdf":
                res = compound_rdf(CompoundRdfRequest(BwBall(center, r), budget))
            else:
                res = compound_capacity(CompoundCapacityRequest(BwBall(center, r), channel, budget))
        except (ValueError, RobustShannonError) as exc:
            exc.args = (f"grid point {index} (r={r}, budget={budget}): {exc}",)
            raise
        out.append(
            SweepPoint(
                float(r), float(budget), res.value_nats, res.worst_case_cov.trace, res.diagnostics
            )
        )
    return out
