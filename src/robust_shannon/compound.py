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
closed form, so each iteration evaluates the modes once and takes one joint
(semismooth) Newton step on the pair of equations, budget and ball, from
the partial derivatives of the closed forms (Qi & Sun, Math. Programming
58, 1993). The water level keeps a bracket that only evaluations proving
its side move; a step that leaves it, or that does not halve the last one,
holds the level while the multiplier settles inside its own bracket. Both
problems are convex in suitable coordinates, so the KKT point is the
optimum. The solves work on rows, one per (radius, budget) around a shared
center: each iteration evaluates the closed forms of every row in one
lock-step numpy call, and then steps the live rows one by one in Python
floats. Single-shot calls and sweeps share one solve path, ``_solve``,
which does each set-up step once per call, at unit scale: a single-shot
call is one row, a sweep one batch.

A channel that shares no eigenbasis with the center leaves the capacity a
convex problem (capacity is convex in the noise covariance and the ball is
convex) without a closed-form reduction. It is solved by projected gradient
in optimal-transport-map coordinates, where the ball is an exact Euclidean
ball and PSD-ness is automatic, from one start, the center, using the
Danskin envelope gradient, a Gram product of the Cholesky factor and the
left singular vectors of the whitened channel that each evaluation takes
for its inner waterfill. Those come from one symmetric eigendecomposition
of the whitened channel's Gram product, or from its SVD where the gains
spread too far apart for that (``classical._gram_whitened_gains``). On the
sphere an outward gradient loses its radial part, so the rescale acts as a
retraction. Each line search starts from the Barzilai-Borwein step (and
from 1 again if that finds no descent), and the solve stops on its
certificate: once a step leaves the value unchanged to VALUE_STAGNATION_TOL
(relative) and the Frank-Wolfe gap below is at most VALUE_STAGNATION_TOL
max(1, |value|). An iterate that no step moves is returned only if its gap
meets that bound.

Every compound result carries a duality gap
(``SolverDiagnostics.certificate_gap``), an upper bound in nats on the
distance from the returned value to the optimum. For capacity it is the
Frank-Wolfe gap, whose linear minimization over the ball is a scalar dual
search, solved by Newton steps that climb onto the root of a trust-region
secular equation from below, so every step gives a valid bound. For the
RDF it is the analogous linearization bound in the coordinates where the
reduced problem is concave. Every search starts at the dual multiplier
fitted to the returned point: the eigen-reductions' at its spectrum, in
lock step over the rows in numpy, and the general channel's at its
transport map, on its one row in Python floats. A singular noise center is
made positive definite by a small diagonal jitter, reported as
``SolverDiagnostics.jitter``.
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from . import _lapack
from .classical import (
    ChannelMatrix,
    WaterfillAllocation,
    _capacity_core,
    _check_distortion,
    _check_power,
    _gram_whitened_gains,
    _inverse_gains,
    _whitened_gains,
    reverse_waterfill_rows,
    waterfill_rows,
)
from .errors import RobustShannonError, SolverNoConverge
from .psd_geometry import (
    BwBall,
    SpdMatrix,
    _check_radius,
    _ensure_positive_definite,
    _real,
    _symmetrize,
    symmetric_eig,
)

VALUE_STAGNATION_TOL = 1e-10
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
    "projected-gradient" otherwise; ``iterations`` counts KKT evaluations
    (each evaluates every mode once at a water level and ball multiplier and
    takes one joint Newton step) or projected-gradient iterations.
    ``jitter`` is the diagonal shift
    added to a singular center before solving (0.0 when none was needed,
    and always for the RDF), in a ``SolverNoConverge``'s diagnostics too. ``certificate_gap`` is an upper bound, in
    nats, on how far the returned value lies from the true optimum (above
    it for capacity, below it for the RDF). The projected-gradient gap is
    never below zero; an eigen-reduction's can read a few ulps below zero
    from rounding at a converged point. A projected-gradient
    ``SolverNoConverge`` carries the gap at its last iterate; the gap is
    None only in the diagnostics of an eigen-reduction's
    ``SolverNoConverge``.
    """

    iterations: int
    solver_path: str
    jitter: float
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
    """Closed-form scalar worst-case RDF: half log+ of (sigma0 + r)^2 / D.

    Where the square is not a normal float, or the ratio is 0 or infinite,
    the log is taken as log(sigma0 + r) - log(D) / 2 instead. (A subnormal
    ratio is below 1, so its rate is 0 either way.)
    """
    sigma0, r = _check_scalar_domain(sigma0, r)
    distortion = _check_distortion(distortion)
    square = _normal_square(sigma0 + r)
    if square is not None and 0.0 < square / distortion < math.inf:
        return max(0.0, 0.5 * math.log(square / distortion))
    return max(0.0, _log_sum(sigma0, r) - 0.5 * math.log(distortion))


def compound_capacity_scalar(sigma0: float, r: float, power: float) -> float:
    """Closed-form scalar worst-case capacity: half log(1 + B / (sigma0 + r)^2).

    Where the square is not a normal float or the ratio q overflows (and
    B > 0), log q = log B - 2 log(sigma0 + r) gives log(1 + q) = max(log q,
    0) + log1p(exp(-|log q|)).
    """
    sigma0, r = _check_scalar_domain(sigma0, r)
    power = _check_power(power)
    square = _normal_square(sigma0 + r)
    if square is not None and power / square < math.inf:
        return 0.5 * math.log1p(power / square)
    if power == 0.0:
        return 0.0
    log_ratio = math.log(power) - 2.0 * _log_sum(sigma0, r)
    return 0.5 * (max(log_ratio, 0.0) + math.log1p(math.exp(-abs(log_ratio))))


def _check_scalar_domain(sigma0, r):
    """(sigma0, r) as floats; ValueError unless sigma0 > 0 and r >= 0, both finite."""
    s = _real(sigma0)
    if not (s > 0.0 and math.isfinite(s)):
        raise ValueError(f"sigma0 must be positive and finite, got {sigma0}")
    return s, _check_radius(r)


def _normal_square(s: float):
    """s ** 2 when it is a normal float; None where it overflows or underflows."""
    try:
        square = s**2
    except OverflowError:
        return None
    return square if sys.float_info.min <= square < math.inf else None


def _log_sum(a: float, b: float) -> float:
    """log(a + b) of a > 0 and b >= 0, also where a + b overflows."""
    hi, lo = max(a, b), min(a, b)
    return math.log(hi) + math.log1p(lo / hi)


def _project_ball(x, radius):
    """Euclidean projection onto the ball of ``radius`` around 0; a point
    inside is returned as is."""
    norm = math.sqrt(float(np.vdot(x, x)))
    if norm > radius:
        return x * (radius / norm)
    return x


def _minimize(objective, gradient, gap, x0, radius):
    """Projected gradient descent on the ball ||x|| <= radius, from x0 in it.

    ``objective(x)`` returns the value at x together with the inner solve
    behind it; ``gradient(x, inner)`` and ``gap(inner, radius)``, a duality
    gap over the ball, take that inner solve, so the accepted point of one
    iteration is never solved again. At ||x|| >= r (1 - 1e-12) a gradient
    with <g, x> < 0 loses its radial part. Each line search starts from the
    Barzilai-Borwein step <s, s>/<s, y>, with s the last move and y the
    change in gradient (from 1 on the first iteration and when <s, y> <= 0),
    and halves until the Armijo condition (1e-4 on the projected step)
    holds; a search from a Barzilai-Borwein step that finds none is run
    again from 1. Converged once an accepted step changes the value by less
    than VALUE_STAGNATION_TOL relative and the gap at the new iterate is at
    most VALUE_STAGNATION_TOL max(1, |value|), or once the line search from
    1 cannot move an iterate whose gap meets that bound; if the gap there
    does not, ``SolverNoConverge``, which carries the gap at the last
    iterate. Returns (x, value, inner, diagnostics), the diagnostics with
    the gap at x; x may be a matrix (Frobenius norm and inner product).
    The jitter, which only the caller knows, reads NaN.
    """
    label = "projected-gradient"
    x = x0
    value, inner = objective(x)
    grad = None
    for iteration in range(1, MAX_ITERATIONS + 1):
        new_grad = gradient(x, inner)
        norm = math.sqrt(float(np.vdot(x, x)))
        if norm >= radius * (1.0 - 1e-12) and np.vdot(new_grad, x) < 0.0:
            unit = x / norm  # on the sphere, heading out: step along it
            new_grad = new_grad - np.vdot(new_grad, unit) * unit
        alpha = 1.0 if grad is None else _barzilai_borwein(move, new_grad - grad)
        grad = new_grad
        step = _line_search(objective, x, value, grad, radius, alpha)
        if step is None and alpha != 1.0:
            step = _line_search(objective, x, value, grad, radius, 1.0)
        if step is not None:
            candidate, cand_value, cand_inner = step
            stagnant = abs(cand_value - value) < VALUE_STAGNATION_TOL * max(1.0, abs(value))
            move, x, value, inner = candidate - x, candidate, cand_value, cand_inner
        if step is None or stagnant:
            diagnostics = SolverDiagnostics(iteration, label, math.nan, gap(inner, radius))
            if diagnostics.certificate_gap <= VALUE_STAGNATION_TOL * max(1.0, abs(value)):
                return x, value, inner, diagnostics
            if step is None:  # every further iteration would repeat this line search verbatim
                raise SolverNoConverge("line search cannot move an iterate whose gap is above tolerance", diagnostics)
    raise SolverNoConverge(
        f"value did not stagnate within {MAX_ITERATIONS} iterations",
        SolverDiagnostics(MAX_ITERATIONS, label, math.nan, gap(inner, radius)),
    )


def _barzilai_borwein(move, grad_change):
    """The Barzilai-Borwein step <s, s>/<s, y> for the move s and the change
    y in gradient along it; 1 when <s, y> <= 0."""
    curvature = float(np.vdot(move, grad_change))
    return float(np.vdot(move, move)) / curvature if curvature > 0.0 else 1.0


def _line_search(objective, x, value, grad, radius, alpha):
    """The first projected step from x, starting at alpha and halving at
    most MAX_HALVINGS times, that meets the Armijo condition, as (candidate,
    its value, its inner solve); None if the step underflows first (the
    projected step no longer moves x) or the halvings run out."""
    for _ in range(MAX_HALVINGS):
        candidate = _project_ball(x - alpha * grad, radius)
        if np.array_equal(candidate, x):
            return None
        descent = float(np.vdot(grad, candidate - x))
        if descent < 0.0:
            cand_value, cand_inner = objective(candidate)
            if cand_value <= value + ARMIJO * descent:
                return candidate, cand_value, cand_inner
        alpha *= 0.5
    return None


def _rowdot(a, b):
    return np.einsum("ij,ij->i", a, b)


def _kkt_newton(kkt, level, mult, lo, hi):
    """Joint Newton steps on the KKT pair of each row; each iteration
    evaluates all rows in one lock-step call, then steps the live rows.

    ``kkt.evaluate(level, mult)`` evaluates every row's modes once at
    (level, multiplier) and returns the multiplier it used (moved into
    its interval at that level), the budget residual b, the ball residual c
    (relative, so that |c| <= ROOT_STEP_TOL means the ball holds to that
    tolerance), their partials (b_level, b_mult, c_level, c_mult) and u. c
    rises in the multiplier and b moves in it in the direction ``kkt.sign``,
    so at a fixed level b - g has the sign of sign c, g being b on the ball:
    an increasing function of the level with its root at the optimum.

    Each row takes the joint Newton step, whose level part is the Newton
    step on the estimate of g along the ball's tangent (the Schur complement
    of c_mult). An evaluation proves its level low when b < 0 with sign c
    >= 0, or, once the multiplier is settled (|c| within ROOT_STEP_TOL, or
    its own Newton step within ROOT_STEP_TOL relative), when that estimate
    is below 0; high alike; such a level moves its side of the row's
    bracket [lo, hi]. A level step that leaves the bracket is cut back to
    the bound it crosses while that bound is still the initial one, and
    replaced by bisection once the bound was evaluated. A row whose step
    bisects or is not at most half the last one (a Newton cycle at a kink
    where a mode changes branch) holds its level until an evaluation proves
    its side, stepping its multiplier alone, as does a row whose level step
    is within ROOT_STEP_TOL relative. The signs of c bracket the multiplier
    at a level, and as c falls in the level (u - s grows with it) the bound
    on the side the level leaves stays valid at the next one; a multiplier
    step that leaves a two-sided bracket bisects it. The row stops once its
    level step comes with a settled multiplier or a multiplier step within
    ROOT_STEP_TOL relative: its u is recorded, and it holds its level and
    the multiplier ``evaluate`` returns. Returns (u, evaluations) per row;
    raises SolverNoConverge after MAX_ITERATIONS evaluations, its ``_row``
    the lowest live row and its jitter NaN for the caller.

    The live rows step one at a time in Python floats. A division by zero
    takes numpy's result (``_divide``) and a NaN bound stays a NaN in a
    maximum or a minimum, as in numpy, so the special values an evaluation
    can return run their course as NaNs and infinities and never raise.
    """
    n, sign = level.size, kkt.sign
    level, lo, hi = level.tolist(), lo.tolist(), hi.tolist()
    initial_lo, initial_hi, waiting = [True] * n, [True] * n, [False] * n
    mult_lo, mult_hi, last = [-math.inf] * n, [math.inf] * n, [math.inf] * n
    steps, found, live = np.zeros(n, dtype=int), None, list(range(n))
    for k in range(1, MAX_ITERATIONS + 1):  # every row is evaluated, stopped ones hold
        mult, b, c, jacobian, u = kkt.evaluate(np.array(level), mult)
        found = np.empty_like(u) if found is None else found
        mult, b, c, b_level, b_mult, c_level, c_mult = (a.tolist() for a in (mult, b, c, *jacobian))
        still = []
        for i in live:
            x, m, bi, ci, cm = level[i], mult[i], b[i], c[i], c_mult[i]
            ratio = _divide(b_mult[i], cm)
            reduced, estimate = b_level[i] - ratio * c_level[i], bi - ratio * ci
            settled = abs(ci) <= ROOT_STEP_TOL * max(abs(m * cm), 1.0)  # NaN first, so it wins
            # the sign of g that the evaluation proves, 0 where it proves none
            # (c != 0 where the multiplier is not settled)
            side = estimate if settled else (bi if (bi < 0.0) == (sign * ci > 0.0) else 0.0)
            if side < 0.0:
                lo[i], initial_lo[i] = x, False
            elif side > 0.0:
                hi[i], initial_hi[i] = x, False
            nxt = x - estimate / reduced if reduced > 0.0 else math.nan
            close = estimate == 0.0 or abs(nxt - x) <= ROOT_STEP_TOL * abs(x)
            out = not close and not lo[i] < nxt < hi[i]
            if out:  # cut back to a bound still initial, else bisect
                cut = lo[i] if initial_lo[i] and nxt <= lo[i] else hi[i] if initial_hi[i] and nxt >= hi[i] else None
                nxt, out = (0.5 * (lo[i] + hi[i]), True) if cut is None else (cut, False)
            # the joint step's size: relative in the level, and in the multiplier
            # relative to the larger of the multiplier and its step
            mult_step = abs(_divide(ci + c_level[i] * (nxt - x), cm))
            size = _divide(abs(nxt - x), abs(x)) + mult_step / (abs(m) + mult_step + 1e-300)
            waiting[i] = (waiting[i] or out or not size <= 0.5 * last[i]) and not (side < 0.0 or side > 0.0)
            nxt, last[i] = (x, last[i]) if close or waiting[i] else (nxt, size)
            new, tol = m - _divide(ci + c_level[i] * (nxt - x), cm), ROOT_STEP_TOL * abs(m)
            # the multiplier's bracket at the next level: c falls in the level, so
            # a bound on the side the level moves away from stays valid
            mlo, mhi = mult_lo[i], mult_hi[i]  # a NaN bound stays, as in np.maximum
            mult_lo[i] = mlo = -math.inf if nxt < x else m if ci < 0.0 and not (mlo > m or mlo != mlo) else mlo
            mult_hi[i] = mhi = math.inf if nxt > x else m if ci > 0.0 and not (mhi < m or mhi != mhi) else mhi
            if -math.inf < mlo < math.inf and -math.inf < mhi < math.inf and not mlo < new < mhi:
                new = new if abs(new - m) <= tol else 0.5 * (mlo + mhi)
            if close and (settled or abs(new - m) <= tol):
                found[i], steps[i] = u[i], k
            else:
                level[i], mult[i] = nxt, new
                still.append(i)
        if not still:
            return found, steps
        live, mult = still, np.array(mult)
    failure = SolverNoConverge(
        f"KKT search did not converge within {MAX_ITERATIONS} evaluations",
        SolverDiagnostics(MAX_ITERATIONS, "eigen-reduction", math.nan),
    )
    failure._row = live[0]
    raise failure


def _divide(a, b):
    """a / b of Python floats, and where b is 0 numpy's result: an inf, or
    for 0/0 and NaN/0 the NaN of a * inf, the hardware's as in numpy."""
    if b:
        return a / b
    return a * math.inf if a == 0.0 or a != a else math.copysign(math.inf, a) * math.copysign(1.0, b)


@contextmanager
def _rows_of(selected):
    """Renumbers the ``_row`` of a SolverNoConverge raised inside from the
    rows the mask ``selected`` picks to all rows."""
    try:
        yield
    except SolverNoConverge as exc:
        exc._row = int(np.flatnonzero(selected)[exc._row])
        raise


def compound_rdf(req: CompoundRdfRequest) -> CompoundResult:
    """Worst-case rate-distortion over the ambiguity ball, in nats.

    Eigenvalue-space reduction: with s the square roots of the center's
    descending eigenvalues, maximizes the reverse-waterfilled rate over
    u >= 0 with ||u - s|| <= radius, as one row of ``_solve``. The worst
    case is assembled in the center's eigenbasis (the center at r = 0).
    """
    return _single("rdf", req.ball, None, req.distortion)


def _rdf_rows(vals, radius, distortion):
    """The RDF reduction around the center spectrum ``vals`` (descending), one
    row per (radius, distortion): worst-case spectra, their reverse waterfill
    (level, per_mode, rate), KKT evaluations and certificate gaps.

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
        with _rows_of(moved):
            u, steps[moved] = _RdfKkt(s, radius[moved], distortion[moved]).solve(lam[moved])
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
    row per (radius, distortion) around the shared s, by ``_kkt_newton``.

    With water level theta and ball multiplier kappa, each mode's
    stationary point is in closed form. Above the water (u^2 >= theta)
    u = (s + sqrt(s^2 + 4/kappa))/2; below it u = s kappa theta /
    (kappa theta - 1), for kappa theta > 1; u is the smaller of the two.
    The multiplier is taken as omega = 1 - 1/(kappa theta), in which u - s
    decreases and the branch below the water, s (1 - omega)/omega, stays
    well conditioned for small s; omega <= 0 puts every mode above the
    water. The residuals are the budget sum min(u^2, theta) - D, which
    falls in omega, and the ball 1 - ||u - s||^2/r^2, which rises in it. At
    omega = 0 the modes with s = 0 jump from 0 to sqrt(theta); when the
    radius falls inside that jump they share what the other modes leave of
    it, each with u^2 <= theta (the hard case), and the level alone moves.

    The level lies in [D/d, (s_max + r)^2]. The solve starts at the reverse
    waterfill level of the radial point s (1 + r/||s||), with kappa from
    each mode's quadratic u (u - s) = 1/kappa there, weighted by its share
    of r^2; both are exact at d = 1. In the coordinates (lambda/(2 theta),
    1/(2 theta)) the reduced problem maximizes a jointly concave function
    over a convex cone, so this KKT point is the optimum.
    """

    sign = -1.0

    def __init__(self, s, radius, distortion):
        self.s, self.radius, self.distortion = s, radius, distortion
        self.r2 = radius * radius
        self.zero = s == 0.0
        self.norm_s = norm_s = float(np.linalg.norm(s))
        # every mode below the water; kept below 1 (kappa finite) when r/||s|| rounds away
        self.omega_radial = np.minimum(norm_s / (norm_s + radius), np.nextafter(1.0, 0.0))

    def solve(self, radial):
        """Worst-case u and the KKT evaluations, one row each, from the
        spectra ``radial`` of each row's radial point."""
        s, distortion, radius = self.s, self.distortion, self.radius
        theta = reverse_waterfill_rows(radial, distortion[:, None])[0]
        # sum over the modes of (delta^2 / r^2) / (u delta), where every
        # moved mode has delta/u = r/(||s|| + r)
        kappa = (radial > 0.0).sum(axis=1) / (radius * (self.norm_s + radius))
        top = (s[0] + radius) ** 2
        return _kkt_newton(self, theta, 1.0 - 1.0 / (kappa * theta), distortion / s.size, top)

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

    def evaluate(self, theta, omega):
        """The ``_kkt_newton`` evaluation at each row's (theta, omega)."""
        s, d, zero = self.s, self.s.size, self.zero
        r2, distortion, radius = self.r2, self.distortion, self.radius
        # every mode above the water: at 1/kappa = (s_max + r) r the top one spends r
        lo = 1.0 - np.maximum(theta, (s[0] + radius) * radius) / theta
        omega = np.clip(omega, lo, self.omega_radial)
        hard = np.zeros(theta.size, dtype=bool)
        n_zero = int(zero.sum())
        if n_zero:
            level = theta[:, None]
            above = 2.0 * level / (s + np.sqrt(s * s + 4.0 * level))  # u - s at omega = 0
            above[:, zero] = 0.0
            rho0 = _rowdot(above, above)
            # the s = 0 modes jump across the ball at omega = 0
            hard = (rho0 <= r2) & (r2 < rho0 + n_zero * theta)
            omega = np.where(hard, 0.0, omega)
        delta, d_omega, d_theta, under = self._modes(theta, omega)
        u = s + delta
        budget = np.minimum(u * u, theta[:, None]).sum(axis=1) - distortion
        ball = 1.0 - _rowdot(delta, delta) / r2  # relative to r^2
        # below the water u = s/omega: u^2 moves with omega only, above it sum min = theta
        safe = np.where(omega > 0.0, omega, 1.0)
        curvature = (under * (s * s)).sum(axis=1) / safe**3
        jacobian = [
            d - under.sum(axis=1, dtype=float), -2.0 * curvature,
            -2.0 * _rowdot(delta, d_theta) / r2, -2.0 * _rowdot(delta, d_omega) / r2,
        ]
        if hard.any():
            # kappa theta = 1 and the s = 0 modes share the rest
            d_above = 1.0 / np.sqrt(s * s + 4.0 * theta[hard, None])
            spare = r2[hard] - rho0[hard]
            budget[hard] = (d - n_zero) * theta[hard] + spare - distortion[hard]
            ball[hard] = 0.0
            for j, value in enumerate(((d - n_zero) - 2.0 * _rowdot(above[hard], d_above), 0.0, 0.0, 1.0)):
                jacobian[j][hard] = value
            share = above[hard]
            share[:, zero] = np.sqrt(spare / n_zero)[:, None]
            u[hard] = s + share
        return omega, budget, ball, jacobian, u


def _rdf_gap(lam, level, center_vals, radius, distortion):
    """Duality gap of the RDF reduction at each row's spectrum ``lam``, in nats.

    With theta the water level of lam and c = min(1, theta/lam), the rate at
    any ball point is at most R(lam) + eta (S - D), where S = max sum c_i
    lambda_i over the ball (bounded by ``_ball_support``) and eta is that
    point's 1/(2 theta), at most d/(2D) as every level is at least D/d. So
    d (S - D)/(2D) bounds the distance to the optimum; S is searched from
    ``_dual_start`` at lam.
    """
    c = level[:, None] / np.maximum(lam, level[:, None])
    support = _ball_support(c, center_vals, radius, _dual_start(c, lam, center_vals))
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
        _, vecs = _lapack.eigh(center.entries + t * _symmetrize(h))
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
    ||u - s|| <= r, one row per (radius, power), by ``_kkt_newton``.

    u are the noise stddevs per axis, s the (jittered) center's and w = h^2
    the squared channel weights. With water level nu and ball multiplier
    kappa, a mode with s^2 >= w nu gets no power and keeps u = s (dead
    modes, w = 0, always); otherwise u is the positive root of
    (kappa + 1/(w nu)) u^2 - kappa s u - 1 = 0, solved for u - s without
    cancellation. The ball residual r/||u - s|| - 1 rises in kappa, and so
    does the budget residual sum (nu - u^2/w)+ - P. kappa = 0 where u =
    max(s, sqrt(w nu)) lies inside the ball: there the budget residual is
    -P, which proves the level low, and the residuals and their partials at
    kappa = 0 (the same closed forms) give the step towards the sphere.

    The level lies between the classical levels at the noise stddevs s and
    s + r. The solve starts at the classical level of the radial point
    s (1 + r/||s||), on the sphere, which is the answer at d = 1, with
    kappa from the kappa = 0 step pulled onto the sphere, each mode's kappa
    from its quadratic there, weighted by its share of r^2; later kappas
    are kept in [0, active modes / r^2], across which the ball residual
    changes sign. The problem is jointly convex in (u^2, 1/nu), so this KKT
    point is the optimum. Every row has some power and some live mode.
    """

    sign = 1.0

    def __init__(self, s, w, radius, power):
        self.s, self.w, self.radius, self.power = s, w, radius, power

    def solve(self):
        """Worst-case u and the KKT evaluations, one row each."""
        s, w, m = self.s, self.w, self.radius.size
        radial = s * (1.0 + self.radius / float(np.linalg.norm(s)))[:, None]
        with np.errstate(divide="ignore"):
            inverse = np.vstack([np.tile(s * s, (m, 1)), (s + self.radius[:, None]) ** 2, radial**2]) / w
        levels, _, _ = waterfill_rows(inverse, np.tile(self.power, 3)[:, None])
        lo, hi, start = levels[:m], levels[m:2 * m], levels[2 * m:]
        return _kkt_newton(self, start, np.full(m, math.nan), lo, hi)

    def evaluate(self, nu, kappa):
        """The ``_kkt_newton`` evaluation at each row's (nu, kappa)."""
        s, w, radius = self.s, self.w, self.radius
        wnu = w * nu[:, None]
        active = wnu > s * s
        c = 1.0 / np.where(active, wnu, 1.0)
        e = np.where(active, 1.0 - c * s * s, 0.0)
        free = np.where(active, np.sqrt(wnu) - s, 0.0)  # u - s at kappa = 0
        free_norm = np.sqrt(_rowdot(free, free))
        count = active.sum(axis=1)
        hi = count / radius**2
        tight = free_norm > radius
        fresh = tight & np.isnan(kappa)
        kappa = np.where(tight, np.clip(kappa, 0.0, hi), 0.0)
        if fresh.any():
            # a row's first kappa where the ball binds: the kappa = 0 step pulled
            # onto the sphere, each mode's kappa from its quadratic there
            # weighted by its share of r^2
            guess = free * np.divide(radius, free_norm, out=np.zeros_like(radius), where=fresh)[:, None]
            u0 = s + guess
            pulled = np.minimum(_rowdot(guess, (1.0 - c * u0 * u0) / u0) / radius**2, hi)
            kappa = np.where(fresh, pulled, kappa)
        # (kappa + c) d^2 + (kappa + 2c) s d - e = 0 for d = u - s
        kc = kappa[:, None] + c
        k2c = (kappa[:, None] + 2.0 * c) * s
        delta = 2.0 * e / (k2c + np.sqrt(k2c * k2c + kc * (4.0 * e)))
        u = s + delta
        jac = 2.0 * kc * delta + k2c  # its derivative in d
        d_kappa = -delta * u / jac
        d_nu = u * u * c / (nu[:, None] * jac)
        weighted = np.where(active, u / np.where(active, w, 1.0), 0.0)  # u/w on the active modes
        budget = np.where(tight, nu * count - _rowdot(weighted, u), 0.0) - self.power
        # the ball as r/||u - s|| - 1; a level with no active mode is low
        norm = np.sqrt(_rowdot(delta, delta))
        some = norm > 0.0
        norm = np.where(some, norm, radius)
        pull = -radius / norm**3
        jacobian = (
            count - 2.0 * _rowdot(weighted, d_nu), -2.0 * _rowdot(weighted, d_kappa),
            pull * _rowdot(delta, d_nu), np.where(some, pull * _rowdot(delta, d_kappa), 1.0),
        )
        return kappa, budget, np.where(some, radius / norm - 1.0, 1.0), jacobian, u


def _capacity_rows(s, w, radius, power):
    """The commuting-channel capacity reduction around the (jittered) center
    stddevs ``s`` with squared channel weights ``w``, one row per (radius,
    power): worst-case noise variances, their waterfill (level, per_mode,
    rate), KKT evaluations and Frank-Wolfe gaps.

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
        with _rows_of(moved):
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
        self.eye = np.eye(self.lam.size)
        self.weight = np.sqrt(0.5 * (self.lam[:, None] + self.lam[None, :]))
        self.channel = self.basis.T @ channel @ self.basis
        self.power = power

    def noise(self, s: np.ndarray) -> np.ndarray:
        """The noise S diag(lam) S of the map S, in the center's eigenbasis."""
        return _symmetrize(s @ (self.lam[:, None] * s))

    def objective(self, y: np.ndarray):
        """Capacity at the noise N of y, with the inner solve behind it: S =
        I + Y / W, N, the Danskin gradient G there and the waterfill (level,
        per_mode, rate) over the whitened gains g.

        N is kept when tr N > 0 and the Cholesky factorization of N - t I,
        t = 0.5e-12 tr N / d, succeeds, that is when lambda_min(N) > t up to
        rounding; otherwise it goes through ``_ensure_positive_definite``,
        which keeps it when lambda_min(N) >= t and else adds 2t to the
        diagonal. The test costs one Cholesky factorization, not an
        eigendecomposition.

        N = L L^T and L^{-1} H = U diag(sqrt(g)) V^T give N + H Q H^T = L U
        diag(1 + g p) U^T L^T at Q = V diag(p) V^T, so G = 0.5 ((N + H Q
        H^T)^{-1} - N^{-1}) is exactly the Gram product -0.5 B^T diag(g p /
        (1 + g p)) B, B = U^T L^{-1}: nothing is inverted, and V is never
        needed. So g and U come from ``_gram_whitened_gains``, one
        eigendecomposition of L^{-1} H (L^{-1} H)^T = U diag(g) U^T, or the
        SVD of L^{-1} H where the gains spread more than 1e3 apart. B^T =
        L^{-T} U is the second of two triangular solves on L, after the
        L^{-1} H of the whitening. The waterfill is ``_capacity_core``, the
        one-spectrum scan."""
        eye = self.eye
        s = eye + y / self.weight
        noise = self.noise(s)
        threshold = 0.5e-12 * noise.trace() / self.lam.size
        if not (threshold > 0.0 and _lapack.positive_definite(noise - threshold * eye)):
            noise = _ensure_positive_definite(SpdMatrix(noise))[0].entries
        gains, u, chol = _gram_whitened_gains(self.channel, noise)
        inverse = _inverse_gains(gains)
        level, per_mode, rate = _capacity_core(inverse, self.power)
        b = _lapack.solve_lower(chol, u, trans=1) * np.sqrt(per_mode / (inverse + per_mode))  # B^T diag(...)^{1/2}
        return rate, (s, noise, -0.5 * (b @ b.T), (level, per_mode, rate))

    def gradient(self, y: np.ndarray, inner) -> np.ndarray:
        """Danskin envelope gradient pulled back to the Y coordinates: through
        S diag(lam) S, G goes to diag(lam) S G + G S diag(lam), and dS = dY / W."""
        m = (self.lam[:, None] * inner[0]) @ inner[2]
        return (m + m.T) / self.weight

    def gap(self, inner, radius) -> float:
        """``_gradient_gap`` at the noise of an inner solve, its search
        started at the least-squares dual multiplier of the map S there:
        <A S, S - I> / ||S - I||^2 with A = -G, from A T = gamma (T - I) at
        the maximizer's map T; NaN, so the cold start, at S = I."""
        s, g = inner[0], inner[2]
        move = s - self.eye
        norm = float(np.vdot(move, move))
        start = -float(np.vdot(g @ s, move)) / norm if norm > 0.0 else math.nan
        return _gradient_gap(g, inner[1], self.lam, radius, start)


def compound_capacity(req: CompoundCapacityRequest) -> CompoundResult:
    """Worst-case capacity over the noise ambiguity ball, in nats.

    The one row of ``_solve``: the eigenvalue-space reduction, solved from
    its KKT conditions, when the channel shares an eigenbasis with the
    center, else projected gradient in transport coordinates from the
    center. The inner waterfill at the worst-case noise is per shared axis
    or per singular direction of the whitened channel;
    ``diagnostics.certificate_gap`` is the Frank-Wolfe duality gap there
    and ``diagnostics.jitter`` the diagonal shift that made a singular
    center positive definite.
    """
    return _single("capacity", req.ball, req.channel, req.power)


def _single(kind, ball, channel, budget):
    """The one row of ``_solve`` for a ball and budget, as a CompoundResult."""
    radius, budget = np.array([ball.radius]), np.array([budget])
    _, (level, per_mode, rate), diags, worst = _solve(kind, ball.center, channel, radius, budget)
    alloc = WaterfillAllocation(float(level[0]), per_mode[0], float(rate[0]))
    return CompoundResult(alloc.rate_nats, worst(0), alloc, diags[0])


def _solve(kind, center, channel, radius, budget):
    """A compound problem around ``center``, one row per (radius, budget):
    the worst-case traces, the inner waterfills (level, per_mode, rate; the
    rate is the value), the diagnostics, and ``worst(i)``, which builds row
    i's worst-case covariance. Set-up runs once for all rows: a capacity
    center is jittered, its axes shared with the channel found and, where
    they exist or a row has r = 0, its whitened gains formed, which rejects
    a center whose gains are not finite (ValueError). The rows are solved in
    lock step by ``_rdf_rows`` or ``_capacity_rows``, or for any other
    channel by ``_minimize`` one by one, whose first evaluation whitens the
    center. A row at r = 0 is the classical limit at the center. An RDF
    row whose distortion is too small at unit scale for its water level
    (``_check_unit_distortion``) raises ValueError before any row is
    solved. A ``SolverNoConverge``, and that ValueError, carry in ``_row``
    the lowest row that failed: the first in order on the general path,
    the lowest still unconverged when a lock-step search ran out of steps.

    The solve runs at unit scale: with 4^e the power of four nearest tr C/d,
    (C, r, budget) become (C/4^e, r/2^e, budget/4^e), and the worst cases,
    their traces, the water levels, the per-mode budgets and the jitter are
    scaled back by 4^e. Scaling by a power of two is exact, so the values,
    gaps and iterations are the same bits at every scale. A center with
    tr C/d in [1/2, 2) is solved as given, and so are rows whose budget or
    radius would overflow at unit scale.
    """
    m, zero, jitter, covs = radius.size, radius == 0.0, 0.0, None
    unit, e, given = center, math.frexp(center.trace / center.dim)[1] // 2, budget
    if e != 0:
        with np.errstate(over="ignore"):
            scaled = np.ldexp(radius, -e), np.ldexp(budget, -2 * e)
        if all(np.isfinite(part).all() for part in scaled):
            unit, (radius, budget) = SpdMatrix(np.ldexp(center.entries, -2 * e)), scaled
        else:
            e = 0  # budgets or radii beyond the float range at unit scale
    if kind == "rdf":
        _check_unit_distortion(given, budget, center.dim)
    try:
        if kind == "rdf":
            basis = unit._eigvecs
            spectra, alloc, steps, gap = _rdf_rows(unit._eigvals, radius, budget)
        else:
            h = channel.entries
            center_pd, jitter = _ensure_positive_definite(unit)
            axes = _commuting_channel_axes(center_pd, h)
            if axes is not None or zero.any():
                gains = _whitened_gains(h, center_pd.entries)[0]
            if axes is not None:
                basis, s, hvals = axes
                spectra, alloc, steps, gap = _capacity_rows(s, hvals * hvals, radius, budget)
            else:
                covs, steps, gap = [center] * m, np.zeros(m, dtype=int), np.zeros(m)
                alloc = (np.zeros(m), np.zeros((m, center.dim)), np.zeros(m))
                for i in np.flatnonzero(~zero):
                    coords = _TransportCoordinates(center_pd, h, budget[i])
                    try:
                        _, _, (s_map, _, _, found), diag = _minimize(
                            coords.objective, coords.gradient, coords.gap, np.zeros(h.shape), float(radius[i])
                        )
                    except SolverNoConverge as exc:
                        exc._row = int(i)
                        raise
                    covs[i] = SpdMatrix(np.ldexp(coords.basis @ coords.noise(s_map) @ coords.basis.T, 2 * e))
                    alloc[0][i], alloc[1][i], alloc[2][i] = found
                    steps[i], gap[i] = diag.iterations, diag.certificate_gap
            if zero.any():
                inverse = np.tile(_inverse_gains(gains), (int(zero.sum()), 1))
                for column, classical in zip(alloc, waterfill_rows(inverse, budget[zero, None])):
                    column[zero] = classical
    except SolverNoConverge as exc:  # either path: the jitter in the units of the data
        exc.diagnostics = replace(exc.diagnostics, jitter=math.ldexp(jitter, 2 * e))
        raise
    if e != 0:  # back to the units of the data
        alloc, jitter = (np.ldexp(alloc[0], 2 * e), np.ldexp(alloc[1], 2 * e), alloc[2]), math.ldexp(jitter, 2 * e)
        if covs is None:
            spectra = np.ldexp(spectra, 2 * e)
    trace = spectra.sum(axis=1) if covs is None else np.array([c.trace for c in covs])
    trace[zero], steps[zero], gap[zero] = center.trace, 0, 0.0
    path = "eigen-reduction" if covs is None else "projected-gradient"
    columns = (a.tolist() for a in (steps, np.where(zero, "classical", path), gap))
    diagnostics = [SolverDiagnostics(k, p, jitter, g) for k, p, g in zip(*columns)]

    def worst(i):
        if covs is not None:
            return covs[i]
        return center if zero[i] else SpdMatrix((basis * spectra[i]) @ basis.T)

    return trace, alloc, diagnostics, worst


def _check_unit_distortion(given, unit, d):
    """ValueError, its ``_row`` the first such row, where a distortion's
    ``unit``-scale D/d is below the normal float range: there the water
    level cannot be represented, and the KKT steps would divide by a level
    of 0 or by a vanishing partial."""
    small = np.flatnonzero(unit / d < sys.float_info.min)
    if small.size:
        failure = ValueError(
            f"distortion {given[small[0]]} is too small for this center: at unit scale the water "
            f"level, at least distortion / {d}, would be below the normal float range"
        )
        failure._row = int(small[0])
        raise failure


def _gradient_gap(g, noise, center_vals, radius, start):
    """Frank-Wolfe duality gap of the capacity at the noise W, in nats, from
    the Danskin gradient G there, both in the center's eigenbasis.

    The capacity is convex in the noise covariance and the ball is convex,
    so the optimum is at least C(W) - tr(G W) - max over the ball of
    tr(-G N). The maximum is bounded from above by ``_row_support``, the
    secular search of ``_ball_support`` on this one row in Python floats,
    searched from ``start`` (NaN for the cold start). So the gap bounds
    C(W) - C* from above, and so does its positive part, which is returned:
    a reading below zero is rounding at a converged point. The center is
    diag(center_vals) in this basis, so with -G = Q diag(a) Q^T, b_i =
    sum_k Q_ki^2 center_vals_k.
    """
    a, q = _lapack.eigh(-g)
    support = _row_support(a.tolist(), ((q * q).T @ center_vals).tolist(), radius, start)
    return max(0.0, float(np.sum(g * noise)) + support)


def _axis_frank_wolfe_gap(noise, w, center_vars, p, radius):
    """The Frank-Wolfe gap of ``_gradient_gap`` in a basis shared by noise,
    center and channel, for rows of noise variances, powers and radii.

    There the Danskin gradient is diagonal, G_i = -w p / (2 n (n + w p))
    per axis with noise variance n, squared channel weight w and the
    waterfilled power p, and it is formed without subtracting two inverses,
    which loses all accuracy once a jittered singular center puts noise
    variances near 1e-13. The support is searched from ``_dual_start``.
    """
    g = -0.5 * w * p / (noise * (noise + w * p))
    return _rowdot(g, noise) + _ball_support(-g, center_vars, radius, _dual_start(-g, noise, center_vars))


def _dual_start(a, lam, center_vals):
    """Per row, the least-squares gamma of the maximizer's stationarity a_i
    u_i = gamma (u_i - s_i) at u = sqrt(lam), s = sqrt(center_vals), from
    the point alone: <a u, u - s> / ||u - s||^2, NaN where u = s."""
    u = np.sqrt(lam)
    shift = u - np.sqrt(center_vals)
    norm = _rowdot(shift, shift)
    return np.divide(_rowdot(a * u, shift), norm, out=np.full(norm.size, math.nan), where=norm > 0.0)


def _support_dual(a, b, radius, gamma):
    """U(gamma) = gamma r^2 + gamma sum_i b_i a_i / (gamma - a_i), per row.

    For a PSD A = Q diag(a) Q^T and b_i = q_i^T C q_i, every gamma > max(a)
    (and > 0) bounds max tr(A N) over the ball of ``radius`` around C: U is
    the Lagrangian dual of that maximum in Gaussian coupling form, with
    x^T A x - gamma ||x - y||^2 maximized pointwise over x, so weak duality
    makes it an upper bound.
    """
    return gamma * (radius * radius + np.sum(b * a / (gamma[:, None] - a), axis=1))


def _ball_support(a, b, radius, start):
    """Upper bound on max tr(A N) over the ball, U minimized over gamma, for
    rows of ``a`` and ``radius`` (``b`` one row or one per row), searched
    from ``start`` (per row, NaN for none) where it is right of the left start.

    U is convex with stationary point sum_i b_i a_i^2 / (gamma - a_i)^2 =
    r^2, a trust-region secular equation. Newton on f^{-1/2} = 1/r, which
    is increasing and concave, started left of the root (where each term
    alone already reaches r^2) climbs monotonically onto it, so every
    iterate stays a valid gamma. In the hard case, b about 0 on the top
    eigenvector, there is no root and U increases from max(a); the search
    then stops at once just above max(a). Every gamma above max(a) bounds
    the maximum, so a row whose Newton denominator underflows to 0 (r^3
    below the smallest float) stops where it stands, as does one started
    right of the root, off the minimum by the square of its distance to the
    root. Rows step in lock step.
    """
    top = a.max(axis=1)
    support = np.zeros(top.size)  # 0 where A is negative semidefinite, as N is PSD
    rows = top > 0.0
    a, b, radius, top = a[rows], np.broadcast_to(b, a.shape)[rows], radius[rows], top[rows]
    root = np.sqrt(b) * np.abs(a)
    gamma = np.maximum((a + root / radius[:, None]).max(axis=1), top * (1.0 + 1e-12))
    gamma = np.fmax(gamma, start[rows])
    live = np.ones(top.size, dtype=bool)  # every row steps, stopped ones by 0
    for _ in range(MAX_SECULAR_NEWTON):
        shift = gamma[:, None] - a
        terms = (root / shift) ** 2
        f = terms.sum(axis=1)
        live &= f > radius * radius  # else at the root, or past it in the hard case
        rise = (terms / shift).sum(axis=1)
        step = np.divide(f * (np.sqrt(f) / radius - 1.0), rise, out=np.zeros_like(f), where=live & (rise > 0.0))
        gamma += step
        live &= step > 1e-15 * gamma
        if not live.any():
            break
    support[rows] = _support_dual(a, b, radius, gamma)
    return support


def _row_support(a, b, radius, start):
    """``_ball_support`` of one row, the lists ``a`` and ``b``, in Python
    floats, searched from ``start``.

    The cold start and the Newton steps are ``_ball_support``'s, and so is
    the root; sums run in order, so the bound can differ from it in the
    last bits. A start right of the cold one is taken as it is where
    f(start) > r^2, left of the root. Right of the root, one Newton step on
    f^{-1/2}, which is concave, lands left of it, and is taken where it
    moves left and stays right of the cold start (else the cold start is:
    a start so far right that f underflows gives no step). Any other start,
    NaN or not right of the cold start, is replaced by the cold one. So
    every iterate is a valid gamma, and the search climbs onto the root
    from below, as from the cold start.
    """
    top = max(a)
    if not top > 0.0:
        return 0.0  # A is negative semidefinite, and N is PSD
    r2 = radius * radius
    root = [math.sqrt(bi) * abs(ai) for ai, bi in zip(a, b)]
    cold = max(max(ai + ri / radius for ai, ri in zip(a, root)), top * (1.0 + 1e-12))
    gamma, warm = (start, True) if start > cold else (cold, False)
    for _ in range(MAX_SECULAR_NEWTON):
        f, rise = _secular_pass(a, root, gamma)
        step = f * (math.sqrt(f) / radius - 1.0) / rise if rise > 0.0 else 0.0
        if warm and not f > r2:  # a start right of the root: one step back
            back = gamma + step
            gamma = back if cold < back < gamma else cold
        elif not f > r2:  # at the root, or past it in the hard case
            break
        else:
            gamma += step
            if not step > 1e-15 * gamma:
                break
        warm = False
    return gamma * (r2 + sum(bi * ai / (gamma - ai) for ai, bi in zip(a, b)))


def _secular_pass(a, root, gamma):
    """f(gamma) = sum_i (root_i / (gamma - a_i))^2, the secular function of
    ``_ball_support``, and sum_i (root_i / (gamma - a_i))^2 / (gamma - a_i),
    -f'(gamma)/2."""
    f = rise = 0.0
    for ai, ri in zip(a, root):
        shift = gamma - ai
        term = ri / shift
        term *= term
        f += term
        rise += term / shift
    return f, rise


def sweep_compound(
    kind: str,
    center: SpdMatrix,
    grid: Sequence[tuple[float, float]],
    channel: ChannelMatrix | None = None,
) -> list[SweepPoint]:
    """Evaluate a compound problem around ``center`` over (radius, budget) pairs.

    Capacity sweeps use ``channel`` (the identity when None); RDF sweeps take
    none. The grid is checked in one pass by the rules the request types run,
    and its points are the rows of one ``_solve``, which does the set-up once.
    In input order, each point has the single-shot value and diagnostics, bit
    for bit; an eigen-reduction point's ``worst_case_trace`` sums its spectrum
    and can differ from ``worst_case_cov.trace`` in the last bits. A failure
    is re-raised, diagnostics included, with a grid index prefixed to its
    message: the first point that is not a (radius, budget) pair or is out of
    domain, the lowest failing row that ``_solve`` names, or 0 for the set-up
    every point shares (the channel's size among it). No row is solved twice.
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
    check = _check_distortion if kind == "rdf" else _check_power
    index, radius, budgets = 0, [], []
    try:
        if kind == "capacity" and channel.dim != center.dim:
            raise ValueError("channel and ball center dimensions do not match")
        for index, point in enumerate(points):
            try:
                r, budget = point
            except TypeError as exc:  # not iterable: a ValueError, as for a point of another length
                raise ValueError(str(exc)) from None
            radius.append(_check_radius(r))
            budgets.append(check(budget))
        index = 0  # a failure of the work shared by every point is reported at the first
        trace, (_, _, value), diagnostics, _ = _solve(kind, center, channel, np.array(radius), np.array(budgets))
        return [SweepPoint(*row) for row in zip(radius, budgets, value.tolist(), trace.tolist(), diagnostics)]
    except (ValueError, RobustShannonError) as exc:
        index = getattr(exc, "_row", index)
        exc.args = (f"grid point {index} ({_describe_point(points[index])}): {exc}",)
        raise


def _describe_point(point) -> str:
    """A grid point as a failure names it: "r=..., budget=..." for a pair,
    else its repr."""
    try:
        r, budget = point
    except (TypeError, ValueError):
        return repr(point)
    return f"r={r}, budget={budget}"
