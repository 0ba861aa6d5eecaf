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
optimum. The solves work on rows, one per (radius, budget) around a shared
center, stepped in lock step with the converged rows masked out: a
single-shot call is one row, a sweep one batch.

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
    _whitened_gains,
    gaussian_capacity,
    reverse_waterfill_rows,
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

    ``solver_path`` is "classical" at radius 0 (the classical limit at the
    center: nothing solved, 0 iterations, gap 0.0), "eigen-reduction" for
    the RDF and a channel sharing the center's eigenbasis, and
    "projected-gradient" otherwise; ``iterations`` counts water-level steps
    or projected-gradient iterations. ``jitter`` is the diagonal shift
    added to a singular center before solving (0.0 when none was needed,
    and always for the RDF). ``certificate_gap`` is an upper bound, in
    nats, on how far the returned value lies from the true optimum (above
    it for capacity, below it for the RDF; at a converged point it can read
    a few ulps below zero from rounding). It is None only in the
    diagnostics of a ``SolverNoConverge``: every returned result converged.
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


def _rowdot(a, b):
    return np.einsum("ij,ij->i", a, b)


def _increasing_root(fun, x, lo, hi, rows, cap, what):
    """Roots of increasing functions, one per row of ``rows``, on [lo, hi] by
    safeguarded Newton steps taken in lock step.

    ``fun(x, rows)`` returns the values and slopes at x of the given rows and
    a payload, a tuple of per-row arrays of whatever the caller keeps. Each
    evaluation moves a row's bracket end on its side. A step that leaves the
    bracket is cut back to the bound it crosses while that bound is still
    the initial one, and replaced by bisection once the bound was evaluated.
    A row stops, and is masked out, when its next step is at most
    ROOT_STEP_TOL relative to x. Returns (x, steps, payload at x) per row;
    raises SolverNoConverge after ``cap`` steps.
    """
    n = x.size
    steps, found, payload = np.zeros(n, dtype=int), np.empty(n), None
    live, initial_lo, initial_hi = np.arange(n), np.ones(n, dtype=bool), np.ones(n, dtype=bool)
    for k in range(1, cap + 1):  # x, lo, hi and the flags hold the live rows only
        f, slope, part = fun(x, rows[live])
        if payload is None:
            payload = tuple(np.empty((n,) + p.shape[1:], p.dtype) for p in part)
        below, above = f < 0.0, f > 0.0
        lo, hi = np.where(below, x, lo), np.where(above, x, hi)
        initial_lo, initial_hi = initial_lo & ~below, initial_hi & ~above
        nxt = x - np.divide(f, slope, out=np.full(x.size, math.nan), where=slope > 0.0)
        tol, step = ROOT_STEP_TOL * np.abs(x), np.abs(nxt - x)
        out = ~(step <= tol) & ~((lo < nxt) & (nxt < hi))
        if out.any():
            cut_lo = out & initial_lo & (nxt <= lo)
            cut_hi = out & initial_hi & (nxt >= hi)
            nxt = np.where(cut_lo, lo, np.where(cut_hi, hi, np.where(out, 0.5 * (lo + hi), nxt)))
            step = np.abs(nxt - x)
        done = (f == 0.0) | (step <= tol)
        if done.any():
            found[live[done]], steps[live[done]] = x[done], k
            for store, p in zip(payload, part):
                store[live[done]] = p[done]
            keep = ~done
            live, nxt, lo, hi = live[keep], nxt[keep], lo[keep], hi[keep]
            initial_lo, initial_hi = initial_lo[keep], initial_hi[keep]
            if live.size == 0:
                return found, steps, payload
        x = nxt
    raise SolverNoConverge(
        f"{what} search did not converge within {cap} steps",
        SolverDiagnostics(cap, "eigen-reduction"),
    )


def compound_rdf(req: CompoundRdfRequest) -> CompoundResult:
    """Worst-case rate-distortion over the ambiguity ball, in nats.

    Eigenvalue-space reduction: with s the square roots of the center's
    descending eigenvalues, maximizes the reverse-waterfilled rate over
    u >= 0 with ||u - s|| <= radius, as one row of ``_rdf_rows``. The worst
    case is assembled in the center's eigenbasis (the center at r = 0).
    """
    ball, distortion = req.ball, req.distortion
    vals, vecs = symmetric_eig(ball.center)
    lam, (level, per_mode, rate), steps, gap = _rdf_rows(
        vals, np.array([ball.radius]), np.array([distortion])
    )
    worst = ball.center if ball.radius == 0.0 else SpdMatrix((vecs * lam[0]) @ vecs.T)
    alloc = WaterfillAllocation(float(level[0]), per_mode[0], float(rate[0]))
    path = "classical" if ball.radius == 0.0 else "eigen-reduction"
    diagnostics = SolverDiagnostics(int(steps[0]), path, certificate_gap=float(gap[0]))
    return CompoundResult(alloc.rate_nats, worst, alloc, diagnostics)


def _rdf_rows(vals, radius, distortion):
    """The RDF reduction around the center spectrum ``vals`` (descending), one
    row per (radius, distortion): worst-case spectra, their reverse waterfill
    (level, per_mode, rate), water-level steps and certificate gaps.

    ``_rdf_gap`` at the center, with S bounded by Cauchy-Schwarz, caps the
    radius' effect at d (2 ||s|| r + r^2)/(2D); rows where that is below the
    float resolution, r = 0 among them, keep the center with it as their
    gap. Rows whose budget covers every spectrum in the ball keep the radial
    (largest-trace) point at zero rate; ``_RdfKkt`` solves the rest.
    """
    d = vals.size
    s = np.sqrt(vals)
    norm_s = float(np.linalg.norm(s))
    effect = d * radius * (2.0 * norm_s + radius) / (2.0 * distortion)
    center = effect <= np.finfo(float).eps
    moved = ~center & (distortion < (norm_s + radius) ** 2)
    direction = s / norm_s if norm_s > 0.0 else np.full_like(s, 1.0 / math.sqrt(d))
    lam = (s + radius[:, None] * direction) ** 2
    lam[center] = vals
    steps = np.zeros(radius.size, dtype=int)
    if moved.any():
        u, steps[moved] = _RdfKkt(s, radius[moved], distortion[moved]).solve()
        lam[moved] = u * u
    level, per_mode, rate = reverse_waterfill_rows(lam, distortion[:, None])
    gap = np.where(center, effect, 0.0)
    certify = ~center & (rate > 0.0)
    if certify.any():
        at = (lam[certify], level[certify], vals, radius[certify], distortion[certify])
        gap[certify] = _rdf_gap(*at)
    return lam, (level, per_mode, rate), steps, gap


class _RdfKkt:
    """KKT solve of the RDF reduction max rate(u^2) over ||u - s|| <= r, one
    row per (radius, distortion) around the shared s, the rows in lock step.

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
        # every mode below the water; kept below 1 (kappa finite) when r/||s|| rounds away
        self.omega_radial = np.minimum(norm_s / (norm_s + radius), np.nextafter(1.0, 0.0))
        # each row's last theta, omega and d omega/d theta: its next multiplier
        # search starts on that tangent
        self.theta = np.zeros(radius.size)
        self.omega = self.omega_radial.copy()
        self.slope = np.zeros(radius.size)

    def solve(self):
        """Worst-case u and the water-level steps, one row each."""
        top = (self.s[0] + self.radius) ** 2
        lo, rows = self.distortion / self.s.size, np.arange(top.size)
        _, steps, (u,) = _increasing_root(
            self._excess, top, lo, top, rows, MAX_ITERATIONS, "water level"
        )
        return u, steps

    def _modes(self, theta, omega):
        """u - s at each row's (theta, omega), its partial derivatives in
        omega and theta, and the mask of the modes below the water."""
        s = self.s
        x = (theta * (1.0 - omega))[:, None]  # 1/kappa
        root = np.sqrt(s * s + 4.0 * x)
        delta = 2.0 * x / (s + root)
        d_omega = -theta[:, None] / root
        d_theta = (1.0 - omega)[:, None] / root
        lifted = omega > 0.0  # omega <= 0 puts every mode above the water
        safe = np.where(lifted, omega, 1.0)[:, None]
        below = s * ((1.0 - safe) / safe)
        under = lifted[:, None] & (below < delta)
        delta = np.where(under, below, delta)
        d_omega = np.where(under, -s / (safe * safe), d_omega)
        d_theta = np.where(under, 0.0, d_theta)
        return delta, d_omega, d_theta, under

    def _multiplier(self, theta, lo, hi, rows):
        """omega in [lo, hi] with ||u - s|| = r per row; returns ``_modes`` there."""
        omega = self.omega[rows]
        start = omega + self.slope[rows] * (theta - self.theta[rows])
        fallback = np.where((lo < omega) & (omega < hi), omega, hi)
        start = np.where((lo < start) & (start < hi), start, fallback)
        self.theta[rows] = theta
        self.omega[rows], _, modes = _increasing_root(
            self._residual, start, lo, hi, rows, MAX_SECULAR_NEWTON, "ball multiplier"
        )
        return modes

    def _residual(self, omega, rows):
        modes = self._modes(self.theta[rows], omega)
        delta, d_omega = modes[:2]
        return self.r2[rows] - _rowdot(delta, delta), -2.0 * _rowdot(delta, d_omega), modes

    def _excess(self, theta, rows):
        """sum min(u^2, theta) - D at each row's theta, with its slope in theta and u."""
        s, d, zero = self.s, self.s.size, self.zero
        r2, distortion = self.r2[rows], self.distortion[rows]
        level = theta[:, None]
        above = 2.0 * level / (s + np.sqrt(s * s + 4.0 * level))  # u - s at omega = 0
        above[:, zero] = 0.0
        rho0 = _rowdot(above, above)
        n_zero = int(zero.sum())
        value, slope, u = np.empty(rows.size), np.empty(rows.size), np.empty((rows.size, d))
        # hard case: kappa theta = 1 and the s = 0 modes share the rest
        hard = (rho0 <= r2) & (r2 < rho0 + n_zero * theta)
        if hard.any():
            at = rows[hard]
            self.theta[at], self.omega[at], self.slope[at] = theta[hard], 0.0, 0.0
            d_above = 1.0 / np.sqrt(s * s + 4.0 * theta[hard, None])
            slope[hard] = (d - n_zero) - 2.0 * _rowdot(above[hard], d_above)
            spare = r2[hard] - rho0[hard]
            value[hard] = (d - n_zero) * theta[hard] + spare - distortion[hard]
            share = above[hard]
            share[:, zero] = np.sqrt(spare / n_zero)[:, None]
            u[hard] = s + share
        soft = ~hard
        if soft.any():
            at, level, radius = rows[soft], theta[soft], self.radius[rows[soft]]
            inside = r2[soft] < rho0[soft]
            # every mode above the water: at 1/kappa = (s_max + r) r the top one spends r
            lo = np.where(inside, 0.0, 1.0 - np.maximum(level, (s[0] + radius) * radius) / level)
            hi = np.where(inside, self.omega_radial[at], 0.0)
            delta, d_omega, d_theta, under = self._multiplier(level, lo, hi, at)
            tangent = -_rowdot(delta, d_theta) / _rowdot(delta, d_omega)
            self.slope[at] = tangent
            u[soft] = s + delta
            value[soft] = np.minimum(u[soft] ** 2, level[:, None]).sum(axis=1) - distortion[soft]
            # below the water u = s/omega, and u^2 moves with theta only through omega
            n_below = under.sum(axis=1)
            curvature = np.divide(
                (under * (s * s)).sum(axis=1), self.omega[at] ** 3,
                out=np.zeros(at.size), where=n_below > 0,
            )
            slope[soft] = (d - n_below) - 2.0 * curvature * tangent
        return value, slope, (u,)


def _rdf_gap(lam, level, center_vals, radius, distortion):
    """Duality gap of the RDF reduction at each row's spectrum ``lam``, in nats.

    With theta the water level of lam and c = min(1, theta/lam), the rate at
    any ball point is at most R(lam) + eta (S - D), where S = max sum c_i
    lambda_i over the ball (bounded by ``_ball_support``) and eta is that
    point's 1/(2 theta), at most d/(2D) as every level is at least D/d. So
    d (S - D)/(2D) bounds the distance to the optimum.
    """
    c = level[:, None] / np.maximum(lam, level[:, None])
    support = _ball_support(c, center_vals, radius)
    return lam.shape[1] * (support - distortion) / (2.0 * distortion)


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
    """KKT solve of the commuting-channel capacity, min capacity over
    ||u - s|| <= r, one row per (radius, power), the rows in lock step.

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
    convex in (u^2, 1/nu), so this KKT point is the optimum. Every row has
    some power and some live mode.
    """

    def __init__(self, s, w, radius, power):
        self.s, self.w, self.radius, self.power = s, w, radius, power
        m = radius.size
        # each row's last nu, kappa and d kappa/d nu: its next multiplier
        # search starts on that tangent
        self.nu, self.kappa, self.slope = np.zeros(m), np.zeros(m), np.zeros(m)
        # each row's 1/(w nu) and 1 - s^2/(w nu) at the nu being evaluated,
        # 1 and 0 off its active modes, so that those keep u = s
        self.c, self.e = np.ones((m, s.size)), np.zeros((m, s.size))

    def solve(self):
        """Worst-case u and the water-level steps, one row each."""
        s, w, m = self.s, self.w, self.radius.size
        with np.errstate(divide="ignore"):
            inverse = np.vstack([np.tile(s * s, (m, 1)), (s + self.radius[:, None]) ** 2]) / w
        levels, _, _ = waterfill_rows(inverse, np.tile(self.power, 2)[:, None])
        lo, hi = levels[:m], levels[m:]
        _, steps, (u,) = _increasing_root(
            self._excess, hi, lo, hi, np.arange(m), MAX_ITERATIONS, "water level"
        )
        return u, steps

    def _excess(self, nu, rows):
        """sum (nu - u^2/w)+ - P at each row's nu, with its slope in nu and u."""
        s, w = self.s, self.w
        wnu = w * nu[:, None]
        active = wnu > s * s
        c = 1.0 / np.where(active, wnu, 1.0)
        e = np.where(active, 1.0 - c * s * s, 0.0)
        free = np.where(active, np.sqrt(wnu) - s, 0.0)  # u - s at kappa = 0
        free_norm = np.sqrt(_rowdot(free, free))
        value, slope, u = -self.power[rows], np.zeros(rows.size), s + free
        tight = free_norm > self.radius[rows]  # the rows where the ball binds
        if not tight.any():
            return value, slope, (u,)
        at, level, active = rows[tight], nu[tight], active[tight]
        c, radius = c[tight], self.radius[at]
        self.c[at], self.e[at] = c, e[tight]
        hi = active.sum(axis=1) / radius**2
        start = self.kappa[at] + self.slope[at] * (level - self.nu[at])
        # the kappa = 0 step pulled onto the sphere, with each mode's
        # kappa from its quadratic there, weighted by its share of r^2
        guess = free[tight] * (radius / free_norm[tight])[:, None]
        u0 = s + guess
        pulled = np.minimum(_rowdot(guess, (1.0 - c * u0 * u0) / u0) / radius**2, hi)
        start = np.where((0.0 < start) & (start < hi), start, pulled)
        self.kappa[at], _, (delta, ua, jac) = _increasing_root(
            self._residual, start, np.zeros(at.size), hi, at, MAX_SECULAR_NEWTON, "ball multiplier"
        )
        d_kappa = -delta * ua / jac
        d_nu = ua * ua * c / (level[:, None] * jac)
        tangent = -_rowdot(delta, d_nu) / _rowdot(delta, d_kappa)
        self.nu[at], self.slope[at] = level, tangent
        weighted = np.where(active, ua / np.where(active, w, 1.0), 0.0)  # u/w on the active modes
        value[tight] = level * active.sum(axis=1) - _rowdot(weighted, ua) - self.power[at]
        d_total = d_nu + d_kappa * tangent[:, None]
        slope[tight] = active.sum(axis=1) - 2.0 * _rowdot(weighted, d_total)
        u[tight] = ua
        return value, slope, (u,)

    def _residual(self, kappa, rows):
        # (kappa + c) d^2 + (kappa + 2c) s d - e = 0 for d = u - s
        s, c, e = self.s, self.c[rows], self.e[rows]
        kc = kappa[:, None] + c
        k2c = (kappa[:, None] + 2.0 * c) * s
        delta = 2.0 * e / (k2c + np.sqrt(k2c * k2c + kc * (4.0 * e)))
        ua = s + delta
        jac = 2.0 * kc * delta + k2c  # its derivative in d
        squares = delta * delta
        norm2 = squares.sum(axis=1)
        norm = np.sqrt(norm2)
        slope = _rowdot(squares / jac, ua) / (norm2 * norm)
        return 1.0 / norm - 1.0 / self.radius[rows], slope, (delta, ua, jac)


def _capacity_rows(s, w, radius, power):
    """The commuting-channel capacity reduction around the (jittered) center
    stddevs ``s`` with squared channel weights ``w``, one row per (radius,
    power): worst-case noise variances, their waterfill (level, per_mode,
    rate), water-level steps and Frank-Wolfe gaps.

    Capacity is convex in the noise variances n, |dC/dn_i| <= w P /
    (2 s^2 (s^2 + w P)) at the center, and the ball moves n_i by at most
    2 s_i r + r^2; rows where that bound is below the float resolution, r = 0
    and power 0 among them, keep the center with it as their gap.
    ``_CapacityKkt`` solves the rest together.
    """
    wp = w * power[:, None]
    slack = 0.5 * wp / (s * s * (s * s + wp))
    effect = radius * _rowdot(slack, 2.0 * s + radius[:, None])
    moved = effect > np.finfo(float).eps
    noise = np.tile(s * s, (radius.size, 1))
    steps = np.zeros(radius.size, dtype=int)
    if moved.any():
        u, steps[moved] = _CapacityKkt(s, w, radius[moved], power[moved]).solve()
        noise[moved] = u * u
    with np.errstate(divide="ignore"):
        level, per_mode, rate = waterfill_rows(noise / w, power[:, None])
    gap = effect
    if moved.any():
        at = (noise[moved], w, s * s, per_mode[moved], radius[moved])
        gap[moved] = _axis_frank_wolfe_gap(*at)
    return noise, (level, per_mode, rate), steps, gap


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

    Uses the eigenvalue-space reduction, solved from its KKT conditions as
    the one row of ``_capacity_rows``, when the channel shares an eigenbasis
    with the center; otherwise projected gradient descent in transport
    coordinates, started once at the center. Either way
    ``diagnostics.certificate_gap`` is the Frank-Wolfe duality gap at the
    returned noise. The worst-case noise covariance is returned alongside
    the inner waterfilling at that noise (per axis of the shared eigenbasis
    on the reduction, per singular direction of the whitened channel
    otherwise); ``diagnostics.jitter`` is the diagonal shift that made a
    singular center positive definite.
    """
    ball, power = req.ball, req.power
    h = req.channel.entries
    center_pd, jitter = _ensure_positive_definite(ball.center)
    if ball.radius == 0.0:
        rate, _, alloc = gaussian_capacity(req.channel, ball.center, power)
        diag = SolverDiagnostics(0, "classical", jitter, 0.0)
        return CompoundResult(rate, ball.center, alloc, diag)
    axes = _commuting_channel_axes(center_pd, h)
    if axes is not None:
        basis, s, hvals = axes
        noise, (level, per_mode, rate), steps, gap = _capacity_rows(
            s, hvals * hvals, np.array([ball.radius]), np.array([power])
        )
        worst = SpdMatrix((basis * noise[0]) @ basis.T)
        alloc = WaterfillAllocation(float(level[0]), per_mode[0], float(rate[0]))
        diagnostics = SolverDiagnostics(int(steps[0]), "eigen-reduction", jitter, float(gap[0]))
        return CompoundResult(alloc.rate_nats, worst, alloc, diagnostics)
    coords = _TransportCoordinates(center_pd, h, power)
    y, _, diagnostics = _minimize(coords.objective, coords.gradient, np.zeros(h.shape), ball.radius)
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
    support = _ball_support(a[None], b, np.array([radius]))
    return float(np.sum(g * noise.entries)) + float(support[0])


def _axis_frank_wolfe_gap(noise, w, center_vars, p, radius):
    """``_frank_wolfe_gap`` in a basis shared by noise, center and channel,
    for rows of noise variances, powers and radii.

    There the Danskin gradient is diagonal, G_i = -w p / (2 n (n + w p))
    per axis with noise variance n, squared channel weight w and the
    waterfilled power p, and it is formed without subtracting two inverses,
    which loses all accuracy once a jittered singular center puts noise
    variances near 1e-13.
    """
    g = -0.5 * w * p / (noise * (noise + w * p))
    return _rowdot(g, noise) + _ball_support(-g, center_vars, radius)


def _support_dual(a, b, radius, gamma):
    """U(gamma) = gamma r^2 + gamma sum_i b_i a_i / (gamma - a_i), per row.

    For a PSD A = Q diag(a) Q^T and b_i = q_i^T C q_i, every gamma > max(a)
    (and > 0) bounds max tr(A N) over the ball of ``radius`` around C: U is
    the Lagrangian dual of that maximum in Gaussian coupling form, with
    x^T A x - gamma ||x - y||^2 maximized pointwise over x, so weak duality
    makes it an upper bound.
    """
    return gamma * (radius * radius + np.sum(b * a / (gamma[:, None] - a), axis=1))


def _ball_support(a, b, radius):
    """Upper bound on max tr(A N) over the ball, U minimized over gamma, for
    rows of ``a`` and ``radius`` (``b`` one row or one per row).

    U is convex with stationary point sum_i b_i a_i^2 / (gamma - a_i)^2 =
    r^2, a trust-region secular equation. Newton on f^{-1/2} = 1/r, which
    is increasing and concave, started left of the root (where each term
    alone already reaches r^2) climbs monotonically onto it, so every
    iterate stays a valid gamma. In the hard case, b about 0 on the top
    eigenvector, there is no root and U increases from max(a); the search
    then stops at once just above max(a). Rows step in lock step.
    """
    top = a.max(axis=1)
    support = np.zeros(top.size)  # 0 where A is negative semidefinite, as N is PSD
    rows = np.flatnonzero(top > 0.0)
    a, b, radius, top = a[rows], np.broadcast_to(b, a.shape)[rows], radius[rows], top[rows]
    root = np.sqrt(b) * np.abs(a)
    gamma = np.maximum(np.max(a + root / radius[:, None], axis=1), top * (1.0 + 1e-12))
    live = np.arange(rows.size)
    for _ in range(MAX_SECULAR_NEWTON):
        shift = gamma[live, None] - a[live]
        terms = (root[live] / shift) ** 2
        f = terms.sum(axis=1)
        climb = f > radius[live] ** 2  # else at the root, or past it in the hard case
        live, f, terms, shift = live[climb], f[climb], terms[climb], shift[climb]
        step = f * (np.sqrt(f) / radius[live] - 1.0) / np.sum(terms / shift, axis=1)
        gamma[live] += step
        live = live[step > 1e-15 * gamma[live]]
        if live.size == 0:
            break
    support[rows] = _support_dual(a, b, radius, gamma)
    return support


def sweep_compound(
    kind: str,
    center: SpdMatrix,
    grid: Sequence[tuple[float, float]],
    channel: ChannelMatrix | None = None,
) -> list[SweepPoint]:
    """Evaluate a compound problem around ``center`` over (radius, budget) pairs.

    Capacity sweeps use ``channel`` (the identity when None); RDF sweeps take
    none. Every grid point is validated first; then the points are solved in
    lock step as one batch (``_sweep_rows``), or one by one for a channel
    that shares no eigenbasis with the center. Pointwise equal to the
    single-shot solvers, in input order, each point with its diagnostics. A
    failure, a bad budget or radius included, is re-raised as the same
    exception, diagnostics included, with the lowest failing grid index
    prefixed to its message.
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
    index, requests = 0, []
    try:
        for index, (r, budget) in enumerate(points):
            ball = BwBall(center, r)
            if kind == "rdf":
                requests.append(CompoundRdfRequest(ball, budget))
            else:
                requests.append(CompoundCapacityRequest(ball, channel, budget))
        index = 0  # a failure of the work shared by every point is reported at the first
        radius = np.array([req.ball.radius for req in requests])
        budgets = [req.distortion if kind == "rdf" else req.power for req in requests]
        try:
            swept = _sweep_rows(kind, center, channel, radius, np.array(budgets))
        except SolverNoConverge:
            swept = None  # rows do not interact: one by one, the first to fail is the lowest
        if swept is not None:
            return swept
        solve, swept = compound_rdf if kind == "rdf" else compound_capacity, []
        for index, req in enumerate(requests):
            res = solve(req)
            point = (req.ball.radius, budgets[index], res.value_nats, res.worst_case_cov.trace)
            swept.append(SweepPoint(*point, res.diagnostics))
        return swept
    except (ValueError, RobustShannonError) as exc:
        r, budget = points[index]
        exc.args = (f"grid point {index} (r={r}, budget={budget}): {exc}",)
        raise


def _sweep_rows(kind, center, channel, radius, budget):
    """Every sweep point as a row of ``_rdf_rows`` or ``_capacity_rows``, the
    row solvers of the single-shot calls, with the center's eigensystem,
    jitter and shared axes computed once; None when the channel shares no
    eigenbasis with the center. Capacity at r = 0 is the classical limit,
    computed as ``gaussian_capacity`` does. No covariance is built.
    """
    zero = radius == 0.0
    if kind == "rdf":
        lam, (_, _, value), steps, gap = _rdf_rows(symmetric_eig(center)[0], radius, budget)
        jitter, trace = 0.0, lam.sum(axis=1)
    else:
        center_pd, jitter = _ensure_positive_definite(center)
        axes = _commuting_channel_axes(center_pd, channel.entries)
        if axes is None:
            return None
        _, s, hvals = axes
        noise, (_, _, value), steps, gap = _capacity_rows(s, hvals * hvals, radius, budget)
        trace = noise.sum(axis=1)
        if zero.any():
            gains, _ = _whitened_gains(channel.entries, center)
            with np.errstate(divide="ignore"):
                inverse = np.tile(1.0 / gains, (int(zero.sum()), 1))
            value[zero] = waterfill_rows(inverse, budget[zero, None])[2]
    trace[zero], gap[zero] = center.trace, 0.0  # nothing is solved at r = 0
    path = np.where(zero, "classical", "eigen-reduction")
    columns = (a.tolist() for a in (radius, budget, value, trace, steps, gap, path))
    return [
        SweepPoint(r, b, v, t, SolverDiagnostics(k, p, jitter, g))
        for r, b, v, t, k, g, p in zip(*columns)
    ]
