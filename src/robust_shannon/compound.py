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
and reduces to a Euclidean-ball-constrained problem over the square roots
u of the eigenvalues. Capacity gets the same reduction whenever the channel
shares an eigenbasis with the center (or is a scalar multiple of the
identity). Both reductions are solved from their KKT conditions: given the
water level and the ball multiplier, every mode's stationary point is in
closed form, so the solve is a scalar root find for the water level (its
equation is monotone) around one for the multiplier (the norm of u - s
decreases in it), each by Newton steps kept inside a shrinking bracket.
Both problems are convex in suitable coordinates, so the KKT point is the
optimum.

A channel that shares no eigenbasis with the center leaves the capacity a
convex problem (capacity is convex in the noise covariance and the ball is
convex) without a closed-form reduction. It is solved by projected gradient
in optimal-transport-map coordinates, where the ball is an exact Euclidean
ball and PSD-ness is automatic, from one start, the center, using the
Danskin envelope gradient; each objective hands its inner waterfill to the
gradient, so an accepted point is solved once, and convergence is declared
on value stagnation because the waterfilling objective carries kinks.

Every compound result carries a duality gap
(``SolverDiagnostics.certificate_gap``), an upper bound in nats on the
distance from the returned value to the optimum. For capacity it is the
Frank-Wolfe gap, whose linear minimization over the ball is a scalar dual
search, solved by Newton steps that climb onto the root of a trust-region
secular equation from below, so every step gives a valid bound. For the
RDF it is the analogous linearization bound in the coordinates where the
reduced problem is concave. A singular noise center is made positive
definite by a small diagonal jitter, reported as
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
    reverse_waterfill,
    waterfill_rows,
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
ROOT_STEP_TOL = 1e-14


@dataclass(frozen=True)
class SolverDiagnostics:
    """How a compound value was obtained.

    ``iterations`` counts water-level steps on the eigen-reduction paths
    and projected-gradient iterations otherwise. ``jitter`` is the diagonal
    shift added to a singular center before solving (0.0 when none was
    needed, and always for the RDF). ``certificate_gap`` is an upper bound,
    in nats, on how far the returned value lies from the true optimum
    (above it for capacity, below it for the RDF; at a converged point it
    can read a few ulps below zero from rounding). Every returned result
    converged: a solve that does not raises ``SolverNoConverge`` with these
    diagnostics, the gap None.
    """

    iterations: int
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


def _project_ball(x, radius):
    """Euclidean projection onto the ball of ``radius`` around 0; a point
    inside is returned as is."""
    norm = float(np.linalg.norm(x))
    if norm > radius:
        return x * (radius / norm)
    return x


def _minimize(objective, gradient, x0, radius):
    """Projected gradient descent on the ball ||x|| <= radius, from x0 in it.

    ``objective(x)`` returns the value at x together with the inner solve
    behind it, and ``gradient(x, inner)`` takes that inner solve, so the
    accepted point of one iteration is never solved again for the next.
    Steps halve until the Armijo condition (1e-4 on the projected step)
    holds; converged once the relative value change stays below
    VALUE_STAGNATION_TOL for STAGNATION_PATIENCE consecutive iterations.
    Returns (x, value, diagnostics); x may be a matrix (Frobenius norm).
    """
    label = "projected-gradient"
    x = x0
    value, inner = objective(x)
    stagnant = 0
    for iteration in range(1, MAX_ITERATIONS + 1):
        grad = gradient(x, inner)
        improved = False
        alpha = 1.0
        for _ in range(MAX_HALVINGS):
            candidate = _project_ball(x - alpha * grad, radius)
            if np.array_equal(candidate, x):
                break  # step underflowed: first-order stationary
            descent = float(np.vdot(grad, candidate - x))
            if descent < 0.0:
                cand_value, cand_inner = objective(candidate)
                if cand_value <= value + ARMIJO * descent:
                    improved = True
                    break
            alpha *= 0.5
        if not improved:
            # The iterate did not move; every further iteration would repeat
            # this line search verbatim, so the stagnation rule is met.
            return x, value, SolverDiagnostics(iteration, label)
        rel_change = abs(cand_value - value) / max(1.0, abs(value))
        x, value, inner = candidate, cand_value, cand_inner
        stagnant = stagnant + 1 if rel_change < VALUE_STAGNATION_TOL else 0
        if stagnant >= STAGNATION_PATIENCE:
            return x, value, SolverDiagnostics(iteration, label)
    raise SolverNoConverge(
        f"value did not stagnate within {MAX_ITERATIONS} iterations",
        SolverDiagnostics(MAX_ITERATIONS, label),
    )


def _increasing_root(fun, x, lo, hi, cap, what):
    """Root of an increasing function on [lo, hi] by safeguarded Newton steps.

    ``fun(x)`` returns the value and the slope at x and a payload, whatever
    the caller keeps of that evaluation. Each evaluation moves the bracket
    end on its side. A step that leaves the bracket is cut back to the bound
    it crosses while that bound is still the initial one, and replaced by
    bisection once the bound was evaluated. Stops when the next step is at
    most ROOT_STEP_TOL relative to x and returns (x, steps, payload at x);
    raises SolverNoConverge after ``cap`` steps.
    """
    initial_lo = initial_hi = True
    for k in range(1, cap + 1):
        f, slope, payload = fun(x)
        if f == 0.0:
            return x, k, payload
        if f < 0.0:
            lo, initial_lo = x, False
        else:
            hi, initial_hi = x, False
        nxt = x - f / slope if slope > 0.0 else math.nan
        if not abs(nxt - x) <= ROOT_STEP_TOL * abs(x) and not lo < nxt < hi:
            if initial_lo and nxt <= lo:
                nxt = lo
            elif initial_hi and nxt >= hi:
                nxt = hi
            else:
                nxt = 0.5 * (lo + hi)
        if abs(nxt - x) <= ROOT_STEP_TOL * abs(x):
            return x, k, payload
        x = nxt
    raise SolverNoConverge(
        f"{what} search did not converge within {cap} steps",
        SolverDiagnostics(cap, "eigen-reduction"),
    )


def compound_rdf(req: CompoundRdfRequest) -> CompoundResult:
    """Worst-case rate-distortion over the ambiguity ball, in nats.

    Eigenvalue-space reduction: with s the square roots of the center's
    descending eigenvalues, maximizes the reverse-waterfilled rate over
    u >= 0 with ||u - s|| <= radius by solving its KKT conditions
    (``_RdfKkt``). The worst-case covariance is assembled in the center's
    eigenbasis, and ``diagnostics.certificate_gap`` bounds its distance to
    the optimum (``_rdf_gap``).
    """
    ball, distortion = req.ball, req.distortion
    if ball.radius == 0.0:
        alloc = reverse_waterfill(ball.center, distortion)
        diag = SolverDiagnostics(0, "eigen-reduction", certificate_gap=0.0)
        return CompoundResult(alloc.rate_nats, ball.center, alloc, diag)
    vals, vecs = symmetric_eig(ball.center)
    s = np.sqrt(vals)
    norm_s = float(np.linalg.norm(s))
    if distortion >= (norm_s + ball.radius) ** 2:
        # Every spectrum in the ball sums to at most the budget: the rate is
        # zero everywhere, reported at the radial (largest-trace) point.
        direction = s / norm_s if norm_s > 0.0 else np.full_like(s, 1.0 / math.sqrt(s.size))
        u = s + ball.radius * direction
        diagnostics = SolverDiagnostics(0, "eigen-reduction")
    else:
        u, diagnostics = _RdfKkt(s, ball.radius, distortion).solve()
    lam = u * u
    worst = SpdMatrix((vecs * lam) @ vecs.T)
    alloc = reverse_waterfill(worst, distortion)
    gap = _rdf_gap(lam, alloc, vals, ball.radius, distortion)
    return CompoundResult(alloc.rate_nats, worst, alloc, replace(diagnostics, certificate_gap=gap))


class _RdfKkt:
    """KKT solve of the RDF reduction: max rate(u^2) over ||u - s|| <= r.

    With water level theta and ball multiplier kappa, each mode's
    stationary point is in closed form. Above the water (u^2 >= theta)
    u = (s + sqrt(s^2 + 4/kappa))/2; below it u = s kappa theta /
    (kappa theta - 1), for kappa theta > 1; u is the smaller of the two.
    The multiplier is searched as omega = 1 - 1/(kappa theta), in which
    u - s decreases and the branch below the water, s (1 - omega)/omega,
    stays well conditioned for small s; omega <= 0 puts every mode above
    the water. At omega = 0 the modes with s = 0 jump from 0 to
    sqrt(theta); when the radius falls inside that jump they share what
    the other modes leave of it, each with u^2 <= theta (the hard case).

    The water level solves sum min(u^2, theta) = D, increasing in theta on
    [D/d, (s_max + r)^2]; the search starts at the top, where every mode is
    below the water and u is the radial point s (1 + r/||s||). In
    the coordinates (lambda/(2 theta), 1/(2 theta)) the reduced problem
    maximizes a jointly concave function over a convex cone, so this KKT
    point is the optimum.
    """

    def __init__(self, s, radius, distortion):
        self.s, self.radius, self.distortion = s, radius, distortion
        self.r2 = radius * radius
        self.zero = s == 0.0
        norm_s = float(np.linalg.norm(s))
        self.omega_radial = norm_s / (norm_s + radius)  # every mode below the water
        # the last solve's theta, omega and d omega/d theta: the next multiplier
        # search starts on that tangent
        self.theta, self.omega, self.slope = 0.0, self.omega_radial, 0.0

    def solve(self):
        top = (float(self.s[0]) + self.radius) ** 2
        _, steps, u = _increasing_root(
            self._excess, top, self.distortion / self.s.size, top, MAX_ITERATIONS, "water level"
        )
        return u, SolverDiagnostics(steps, "eigen-reduction")

    def _modes(self, theta, omega):
        """u - s at (theta, omega), its partial derivatives in omega and
        theta, and the mask of the modes below the water."""
        s = self.s
        x = theta * (1.0 - omega)  # 1/kappa
        root = np.sqrt(s * s + 4.0 * x)
        delta = 2.0 * x / (s + root)
        d_omega = -theta / root
        d_theta = (1.0 - omega) / root
        if omega <= 0.0:
            return delta, d_omega, d_theta, np.zeros(s.size, dtype=bool)
        below = s * ((1.0 - omega) / omega)
        under = below < delta
        delta = np.where(under, below, delta)
        d_omega = np.where(under, -s / (omega * omega), d_omega)
        d_theta = np.where(under, 0.0, d_theta)
        return delta, d_omega, d_theta, under

    def _multiplier(self, theta, lo, hi):
        """omega in [lo, hi] with ||u - s|| = r; returns ``_modes`` there."""

        def residual(omega):
            modes = self._modes(theta, omega)
            delta, d_omega = modes[:2]
            return self.r2 - float(delta @ delta), -2.0 * float(delta @ d_omega), modes

        start = self.omega + self.slope * (theta - self.theta)
        if not lo < start < hi:
            start = self.omega if lo < self.omega < hi else hi
        self.omega, _, modes = _increasing_root(
            residual, start, lo, hi, MAX_SECULAR_NEWTON, "ball multiplier"
        )
        self.theta = theta
        return modes

    def _excess(self, theta):
        """sum min(u^2, theta) - D at theta, with its slope in theta and u."""
        s, d, zero, r2 = self.s, self.s.size, self.zero, self.r2
        above = 2.0 * theta / (s + np.sqrt(s * s + 4.0 * theta))  # u - s at omega = 0
        above[zero] = 0.0
        rho0 = float(above @ above)
        n_zero = int(zero.sum())
        if rho0 <= r2 < rho0 + n_zero * theta:
            # hard case: kappa theta = 1 and the s = 0 modes share the rest
            self.theta, self.omega, self.slope = theta, 0.0, 0.0
            d_above = 1.0 / np.sqrt(s[~zero] ** 2 + 4.0 * theta)
            slope = (d - n_zero) - 2.0 * float(above[~zero] @ d_above)
            above[zero] = math.sqrt((r2 - rho0) / n_zero)
            return (d - n_zero) * theta + r2 - rho0 - self.distortion, slope, s + above
        if r2 < rho0:
            lo, hi = 0.0, self.omega_radial
        else:  # every mode above the water: at 1/kappa = (s_max + r) r the top one spends r
            lo, hi = 1.0 - max(theta, (float(s[0]) + self.radius) * self.radius) / theta, 0.0
        delta, d_omega, d_theta, under = self._multiplier(theta, lo, hi)
        u = s + delta
        self.slope = -float(delta @ d_theta) / float(delta @ d_omega)
        value = float(np.minimum(u * u, theta).sum()) - self.distortion
        n_below = int(under.sum())
        slope = float(d - n_below)
        if n_below:
            # below the water u = s/omega, and u^2 moves with theta only through omega
            slope -= 2.0 * float(s[under] @ s[under]) / self.omega**3 * self.slope
        return value, slope, u


def _rdf_gap(lam, alloc, center_vals, radius, distortion):
    """Duality gap of the RDF reduction at the spectrum ``lam``, in nats.

    With theta the water level of lam and c = min(1, theta/lam), the rate at
    any ball point is at most R(lam) + eta (S - D), where S = max sum c_i
    lambda_i over the ball (bounded by ``_ball_support``) and eta is that
    point's 1/(2 theta), at most d/(2D) as every level is at least D/d. So
    d (S - D)/(2D) bounds the distance to the optimum; 0 at zero rate.
    """
    if alloc.rate_nats == 0.0:
        return 0.0
    c = alloc.level / np.maximum(lam, alloc.level)
    support = _ball_support(c, center_vals, radius)
    return lam.size * (support - distortion) / (2.0 * distortion)


def _commuting_channel_axes(center: SpdMatrix, h: np.ndarray):
    """Common eigenbasis of the center and the channel, or None.

    Tries the center's eigenvectors first; where repeated eigenvalues mix
    them, a symmetric channel gets the eigenvectors of C + t H, t a fixed
    irrational multiple of ||C|| / ||H||, kept if both are diagonal in them
    (an accidental tie only loses the reduction). Returns (basis, center
    stddevs per axis, channel weight per axis), paired axis-wise, unsorted.
    """
    _, vecs = symmetric_eig(center)
    mixed = vecs.T @ h @ vecs
    if _is_diagonal(mixed):
        return vecs, np.sqrt(center._eigvals), np.diag(mixed).copy()
    if float(np.abs(h - h.T).max()) <= 1e-10 * max(1.0, float(np.abs(h).max())):
        t = (math.sqrt(5.0) - 1.0) / 2.0 * np.linalg.norm(center.entries) / np.linalg.norm(h)
        _, vecs = np.linalg.eigh(center.entries + t * _symmetrize(h))
        mixed_center = vecs.T @ center.entries @ vecs
        mixed = vecs.T @ h @ vecs
        if _is_diagonal(mixed_center) and _is_diagonal(mixed):
            axis_vars = np.maximum(np.diag(mixed_center), 0.0)
            return vecs, np.sqrt(axis_vars), np.diag(mixed).copy()
    return None


def _is_diagonal(m):
    off = m - np.diag(np.diag(m))
    return float(np.abs(off).max()) <= 1e-10 * max(1.0, float(np.abs(m).max()))


class _CapacityKkt:
    """KKT solve of the commuting-channel capacity: min capacity over ||u - s|| <= r.

    u are the noise stddevs per axis, s the (jittered) center's and w = h^2
    the squared channel weights. With water level nu and ball multiplier
    kappa, a mode with s^2 >= w nu gets no power and keeps u = s (dead
    modes, w = 0, always); otherwise u is the positive root of
    (kappa + 1/(w nu)) u^2 - kappa s u - 1 = 0, solved for u - s without
    cancellation. kappa = 0 when u = max(s, sqrt(w nu)) lies inside the
    ball; else ||u - s|| = r fixes it, with 1/||u - s|| increasing in kappa.
    The water level solves sum (nu - u^2/w)+ = P, increasing in nu between
    the classical levels at the noise stddevs s and s + r; the search starts
    at the latter, which is the answer at d = 1. The problem is jointly
    convex in (u^2, 1/nu), so this KKT point is the optimum.
    """

    def __init__(self, s, w, radius, power):
        self.s, self.w, self.radius, self.power = s, w, radius, power
        # the last solve's nu, kappa and d kappa/d nu: the next multiplier
        # search starts on that tangent
        self.nu, self.kappa, self.slope = 0.0, 0.0, 0.0

    def solve(self):
        s, w = self.s, self.w
        with np.errstate(divide="ignore"):
            inverse = np.stack([s * s, (s + self.radius) ** 2]) / w
        (lo, hi), _, _ = waterfill_rows(inverse, self.power)
        _, steps, u = _increasing_root(
            self._excess, float(hi), float(lo), float(hi), MAX_ITERATIONS, "water level"
        )
        return u, SolverDiagnostics(steps, "eigen-reduction")

    def _excess(self, nu):
        """sum (nu - u^2/w)+ - P at nu, with its slope in nu and u."""
        s, w = self.s, self.w
        active = w * nu > s * s
        sa, wa = s[active], w[active]
        u = s.copy()
        if sa.size == 0:
            return -self.power, 0.0, u
        c = 1.0 / (wa * nu)
        e = 1.0 - c * sa * sa
        free = np.sqrt(wa * nu) - sa  # u - s at kappa = 0
        free_norm = math.sqrt(float(free @ free))
        if free_norm <= self.radius:
            u[active] = sa + free
            return -self.power, 0.0, u
        c2, e2, e4 = 2.0 * c, 2.0 * e, 4.0 * e

        def residual(kappa):
            # (kappa + c) d^2 + (kappa + 2c) s d - e = 0 for d = u - s
            kc = kappa + c
            k2c = (kappa + c2) * sa
            delta = e2 / (k2c + np.sqrt(k2c * k2c + kc * e4))
            ua = sa + delta
            jac = 2.0 * kc * delta + k2c  # its derivative in d
            squares = delta * delta
            norm2 = float(squares.sum())
            norm = math.sqrt(norm2)
            slope = float((squares / jac) @ ua) / (norm2 * norm)
            return 1.0 / norm - 1.0 / self.radius, slope, (delta, ua, jac)

        hi = sa.size / self.radius**2
        start = self.kappa + self.slope * (nu - self.nu)
        if not 0.0 < start < hi:
            # the kappa = 0 step pulled onto the sphere, with each mode's
            # kappa from its quadratic there, weighted by its share of r^2
            guess = free * (self.radius / free_norm)
            u0 = sa + guess
            start = float(guess @ ((1.0 - c * u0 * u0) / u0)) / self.radius**2
            start = min(start, hi)
        self.kappa, _, (delta, ua, jac) = _increasing_root(
            residual, start, 0.0, hi, MAX_SECULAR_NEWTON, "ball multiplier"
        )
        u[active] = ua
        d_kappa = -delta * ua / jac
        d_nu = ua * ua * c / (nu * jac)
        self.nu, self.slope = nu, -float(delta @ d_nu) / float(delta @ d_kappa)
        value = nu * sa.size - float(ua @ (ua / wa)) - self.power
        slope = sa.size - 2.0 * float((ua / wa) @ (d_nu + d_kappa * self.slope))
        return value, slope, u


class _TransportCoordinates:
    """Noise covariances in a ball, in optimal-transport-map coordinates.

    With the center eigendecomposed as V diag(lam) V^T, a symmetric S
    parametrizes the noise V (S diag(lam) S) V^T, which is PSD for free. The
    squared ball distance to the center is sum_ij (S - I)_ij^2 lam_j, so in
    the symmetric coordinates Y = (S - I) * W, with W_ij = sqrt((lam_i +
    lam_j)/2) entrywise, the feasible set is exactly the Frobenius ball
    ||Y|| <= radius, and the projection is a rescale. Every ball point is
    reached (the optimal map of any feasible noise is such an S), and every
    Y in the ball is feasible (its map is an admissible coupling, so it can
    only overestimate the distance).
    """

    def __init__(self, center: SpdMatrix, channel: np.ndarray, power: float):
        self.lam, self.basis = symmetric_eig(center)
        self.weight = np.sqrt(0.5 * (self.lam[:, None] + self.lam[None, :]))
        self.channel = self.basis.T @ channel @ self.basis
        self.power = power

    def smatrix(self, y: np.ndarray) -> np.ndarray:
        return np.eye(self.lam.size) + y / self.weight

    def noise(self, y: np.ndarray) -> SpdMatrix:
        """The noise of y, in the center's eigenbasis."""
        s = self.smatrix(y)
        return SpdMatrix(s @ (self.lam[:, None] * s))

    def objective(self, y: np.ndarray):
        """Capacity at the noise of y, with that (jittered) noise and its inner solve."""
        noise, _ = _ensure_positive_definite(self.noise(y))
        result = gaussian_capacity(self.channel, noise, self.power)
        return result.rate_nats, (noise, result)

    def gradient(self, y: np.ndarray, inner) -> np.ndarray:
        """Danskin envelope gradient pulled back to the Y coordinates.

        The chain rule through S diag(lam) S takes the covariance gradient G
        to diag(lam) S G + G S diag(lam), and dS = dY / W.
        """
        noise, result = inner
        g = _noise_gradient(self.channel, noise, result.input_cov)
        m = (self.lam[:, None] * self.smatrix(y)) @ g
        return (m + m.T) / self.weight


def _noise_gradient(h, noise: SpdMatrix, input_cov: SpdMatrix) -> np.ndarray:
    """Danskin gradient of the capacity in the (positive definite) noise W:
    0.5 ((W + H Q* H^T)^{-1} - W^{-1}) at the inner-optimal input Q*."""
    output_cov = noise.entries + h @ input_cov.entries @ h.T
    g = 0.5 * (np.linalg.inv(_symmetrize(output_cov)) - np.linalg.inv(noise.entries))
    return _symmetrize(g)


def compound_capacity(req: CompoundCapacityRequest) -> CompoundResult:
    """Worst-case capacity over the noise ambiguity ball, in nats.

    Uses the eigenvalue-space reduction, solved from its KKT conditions
    (``_CapacityKkt``), when the channel shares an eigenbasis with the
    center; otherwise projected gradient descent in transport coordinates,
    started once at the center. Either way ``diagnostics.certificate_gap``
    is the Frank-Wolfe duality gap at the returned noise. The worst-case
    noise covariance is returned alongside the inner waterfilling at that
    noise (per axis of the shared eigenbasis on the reduction, per singular
    direction of the whitened channel otherwise); ``diagnostics.jitter`` is
    the diagonal shift that made a singular center positive definite.
    """
    ball, power = req.ball, req.power
    h = req.channel.entries
    center_pd, jitter = _ensure_positive_definite(ball.center)
    if ball.radius == 0.0:
        rate, _, alloc = gaussian_capacity(req.channel, ball.center, power)
        diag = SolverDiagnostics(0, "eigen-reduction", jitter, 0.0)
        return CompoundResult(rate, ball.center, alloc, diag)
    axes = _commuting_channel_axes(center_pd, h)
    if axes is not None:
        basis, s, hvals = axes
        w = hvals * hvals
        if power == 0.0 or not np.any(w):
            u, diagnostics = s, SolverDiagnostics(0, "eigen-reduction")
        else:
            u, diagnostics = _CapacityKkt(s, w, ball.radius, power).solve()
        noise = u * u
        worst = SpdMatrix((basis * noise) @ basis.T)
        alloc = capacity_from_gains(w / noise, power)  # per axis of the shared basis
        rate = alloc.rate_nats
        gap = _axis_frank_wolfe_gap(noise, w, s * s, alloc.per_mode, ball.radius)
    else:
        coords = _TransportCoordinates(center_pd, h, power)
        y, _, diagnostics = _minimize(
            coords.objective, coords.gradient, np.zeros(h.shape), ball.radius
        )
        worst = SpdMatrix(coords.basis @ coords.noise(y).entries @ coords.basis.T)
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


def _axis_frank_wolfe_gap(noise, w, center_vars, p, radius):
    """``_frank_wolfe_gap`` in a basis shared by noise, center and channel.

    There the Danskin gradient is diagonal, G_i = -w p / (2 n (n + w p))
    per axis with noise variance n, squared channel weight w and the
    waterfilled power p, and it is formed without subtracting two inverses,
    which loses all accuracy once a jittered singular center puts noise
    variances near 1e-13.
    """
    g = -0.5 * w * p / (noise * (noise + w * p))
    return float(g @ noise) + _ball_support(-g, center_vars, radius)


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
