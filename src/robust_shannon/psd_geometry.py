"""Bures-Wasserstein geometry on the cone of positive semidefinite matrices.

Distances, optimal transport maps, geodesics, metric projection onto balls,
and in-ball random sampling, all specialized to covariance matrices of
centered Gaussians. The squared distance between covariances ``a`` and ``b``
is ``tr(a) + tr(b) - 2 tr((a^{1/2} b a^{1/2})^{1/2})``; combined with a mean
shift it equals the Wasserstein-2 distance between the Gaussian laws.

Geodesics, projection, in-ball draws and transport maps all rest on one
optimal coupling of square-root factors (``_geodesic_ends``): X0 = C^{1/2}
and X1 = F times the polar factor of C^{1/2} F, for any factor F of the
other end, on any center, positive definite or not. Only ``transport_map``,
which inverts C^{1/2}, jitters a singular center.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _lapack
from .errors import SingularCenter

# Relative floor below which negative eigenvalues are treated as round-off
# and clamped to zero at construction.
PSD_TOL = 1e-10

# Relative negative-radicand band tolerated (and clamped) in the distance.
BW_RADICAND_TOL = 1e-9


def _symmetrize(a: np.ndarray) -> np.ndarray:
    s = a + a.T
    s *= 0.5
    return s


@dataclass(frozen=True, eq=False)
class SpdMatrix:
    """Dense symmetric positive semidefinite matrix.

    Entries are symmetrized exactly on construction. Eigenvalues below
    ``-PSD_TOL * max(1, largest eigenvalue)`` are rejected; smaller negative
    round-off is clamped to zero and the entries rebuilt. Entries that
    overflow when symmetrized, or whose eigenvalues overflow, are rejected, so
    every instance holds a finite, nonnegative, descending spectrum and
    consumers need not check it again. The descending eigenvalues and the
    trace are computed at construction and kept with the instance; the
    eigenvectors and the PSD square root are computed on first use and
    cached read-only, so a matrix whose eigenvectors or root nobody reads
    never pays for or holds them, and one whose root is read often (a ball
    center) builds it once.
    """

    entries: np.ndarray

    def __post_init__(self):
        a = np.array(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
            raise ValueError("entries must be a nonempty square matrix")
        self._settle(a)

    @classmethod
    def _from_square(cls, a: np.ndarray) -> "SpdMatrix":
        """The matrix of ``a``, a nonempty square float array the caller made
        and does not keep: checked, clamped and stored as the constructor
        does, without its copy and shape test."""
        m = object.__new__(cls)
        m._settle(a)
        return m

    def _settle(self, a: np.ndarray):
        """The constructor's value checks on the square float array ``a``:
        symmetrize, reject entries or eigenvalues that are not finite and a
        matrix negative beyond ``PSD_TOL``, clamp smaller negative round-off
        and rebuild; then store the entries, eigenvalues and trace read-only."""
        a = _symmetrize(a)
        if not np.isfinite(a).all():
            raise ValueError("entries must be finite")
        w = _lapack.eigvalsh(a)
        lo, hi = float(w[0]), float(w[-1])
        if not hi < math.inf:
            raise ValueError(f"eigenvalues must be finite (largest {hi:.3e})")
        if lo < -PSD_TOL * max(1.0, hi):
            raise ValueError(f"matrix is not positive semidefinite (min eigenvalue {lo:.3e})")
        if lo < 0.0:
            w, v = _lapack.eigh(a)
            w = np.maximum(w, 0.0)
            a = _symmetrize(v @ np.diag(w) @ v.T)
            vecs = v[:, ::-1].copy()
            vecs.setflags(write=False)
            object.__setattr__(self, "_eigvecs", vecs)
        vals = np.maximum(w[::-1], 0.0)
        for arr in (a, vals):
            arr.setflags(write=False)
        object.__setattr__(self, "entries", a)
        object.__setattr__(self, "_eigvals", vals)
        object.__setattr__(self, "_trace", float(a.trace()))

    @cached_property
    def _eigvecs(self) -> np.ndarray:
        """Orthonormal eigenvectors as columns, paired with ``_eigvals``."""
        vecs = _lapack.eigh(self.entries)[1][:, ::-1].copy()
        vecs.setflags(write=False)
        return vecs

    @cached_property
    def _root(self) -> np.ndarray:
        """Entries of the PSD square root, V diag(sqrt(w)) V^T symmetrized."""
        v = self._eigvecs
        root = _symmetrize((v * np.sqrt(self._eigvals)) @ v.T)
        root.setflags(write=False)
        return root

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def trace(self) -> float:
        return self._trace

    @classmethod
    def _from_spectrum(cls, vecs: np.ndarray, vals: np.ndarray) -> "SpdMatrix":
        """The matrix vecs diag(vals) vecs^T, built without an eigendecomposition.

        The caller vouches that the columns of ``vecs`` are orthonormal and
        that ``vals`` is a read-only float array, finite, nonnegative and
        descending; it becomes the eigenvalues as given, shared and not
        copied, and nothing is checked. The eigenvectors stay lazy, as for
        any instance.
        """
        m = object.__new__(cls)
        a = _symmetrize((vecs * vals) @ vecs.T)
        a.setflags(write=False)
        object.__setattr__(m, "entries", a)
        object.__setattr__(m, "_eigvals", vals)
        object.__setattr__(m, "_trace", float(a.trace()))
        return m

    @classmethod
    def identity(cls, dim: int) -> "SpdMatrix":
        return cls(np.eye(dim))

    @classmethod
    def from_diag(cls, values) -> "SpdMatrix":
        return cls(np.diag(np.asarray(values, dtype=float)))


@dataclass(frozen=True, eq=False)
class GaussianLaw:
    """Gaussian distribution given by a mean vector and an SPD covariance."""

    mean: np.ndarray
    cov: SpdMatrix

    def __post_init__(self):
        m = np.array(self.mean, dtype=float).reshape(-1)
        if m.shape[0] != self.cov.dim:
            raise ValueError("mean and covariance dimensions do not match")
        if not np.isfinite(m).all():
            raise ValueError("mean must be finite")
        m.setflags(write=False)
        object.__setattr__(self, "mean", m)

    @property
    def dim(self) -> int:
        return self.cov.dim


@dataclass(frozen=True, eq=False)
class BwBall:
    """Ambiguity ball: all PSD matrices within ``radius`` of ``center``.

    The radius carries the units of the data (standard-deviation scale).
    """

    center: SpdMatrix
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "radius", _check_radius(self.radius))


def _real(value) -> float:
    """``float(value)``, or NaN where float() rejects the value (None, a
    sequence, text that is not a number, an int beyond the float range), so
    that a domain check rejects it with its own ValueError."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        return math.nan


def _check_radius(radius) -> float:
    """The ball radius as a float; ValueError unless finite and nonnegative."""
    r = _real(radius)
    if not (r >= 0.0 and math.isfinite(r)):
        raise ValueError("radius must be a finite nonnegative real")
    return r


def symmetric_eig(m: SpdMatrix):
    """Descending eigenvalues (clamped >= 0) and orthonormal eigenvectors."""
    return m._eigvals.copy(), m._eigvecs.copy()


def matrix_sqrt(m: SpdMatrix) -> SpdMatrix:
    """Unique PSD square root, via the eigendecomposition."""
    return SpdMatrix(m._root)


def bw_distance(a: SpdMatrix, b: SpdMatrix) -> float:
    """Bures-Wasserstein distance between two PSD matrices.

    Symmetric, zero iff the arguments coincide. Tiny negative radicands from
    round-off are clamped; a radicand below ``-BW_RADICAND_TOL * (tr a + tr b)``
    signals numerical failure and raises.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    # tr((a^{1/2} b a^{1/2})^{1/2}) as the nuclear norm of a^{1/2} b^{1/2}: its singular
    # values carry round-off of order eps, square roots of near-zero eigenvalues sqrt(eps)
    fidelity = _lapack.svd(a._root @ b._root, compute_uv=False).sum()
    radicand = a.trace + b.trace - 2.0 * fidelity
    band = BW_RADICAND_TOL * (a.trace + b.trace)
    if radicand < -band:
        raise ValueError(f"distance radicand {radicand:.3e} below tolerance band")
    return math.sqrt(max(radicand, 0.0))


def gaussian_w2(p: GaussianLaw, q: GaussianLaw) -> float:
    """Wasserstein-2 distance between two Gaussian laws.

    Combines the covariance distance with the mean shift; for Gaussians this
    closed form is exact (it lower-bounds the distance for general laws with
    the same first two moments).
    """
    if p.dim != q.dim:
        raise ValueError(f"dimension mismatch: {p.dim} vs {q.dim}")
    return math.hypot(bw_distance(p.cov, q.cov), float(np.linalg.norm(p.mean - q.mean)))


def _ensure_positive_definite(m: SpdMatrix):
    """Return (matrix, jitter) with the matrix strictly PD.

    When the smallest eigenvalue falls below half of t = ``1e-12 * tr(m)/d``,
    t is added to the diagonal. The smallest eigenvalue of the result is then
    about t, above half its own t, so a matrix this function returned comes
    back unchanged, with jitter 0.0. A matrix with zero trace cannot be
    repaired and raises SingularCenter. The jitter perturbs distances by
    O(sqrt(jitter)).
    """
    if m.trace <= 0.0:
        raise SingularCenter("matrix has zero trace; cannot regularize")
    threshold = 1e-12 * m.trace / m.dim
    if float(m._eigvals[-1]) >= 0.5 * threshold:
        return m, 0.0
    return SpdMatrix(m.entries + threshold * np.eye(m.dim)), threshold


def _geodesic_ends(center: SpdMatrix, factor: np.ndarray):
    """Square-root factors X0, X1 of the ends of the geodesic from ``center``
    to N = F F^T, ``factor`` any square root F of the far end, and their
    fidelity tr((C^{1/2} N C^{1/2})^{1/2}).

    X0 = C^{1/2} and X1 = F B A^T, from the SVD C^{1/2} F = A diag(sigma)
    B^T (Bhatia, Jain & Lim, Expo. Math. 2019): X1 X1^T = N and X0^T X1 =
    A diag(sigma) A^T is PSD, so X_t = (1 - t) X0 + t X1 is an optimal
    coupling of the ends and X_t X_t^T the geodesic point at t, at distance
    t BW from the center, with BW^2 = tr C + tr N - 2 sum sigma. This holds
    for every center, singular or zero included, and the singular values
    carry round-off of order eps where an eigendecomposition of
    C^{1/2} N C^{1/2} would lose the small ones.
    """
    x0 = center._root
    a, sigma, bt = _lapack.svd(x0 @ factor)
    return x0, factor @ (bt.T @ a.T), float(sigma.sum())


def _gram_point(x0: np.ndarray, x1: np.ndarray, t: float) -> SpdMatrix:
    """The geodesic point F F^T with F = (1 - t) X0 + t X1: PSD by
    construction, where the product mix C mix^T of a map's mix
    (1 - t) I + t T rounds to negative eigenvalues once T is large. The
    fresh product goes to the constructor's value checks directly."""
    f = (1.0 - t) * x0 + t * x1
    return SpdMatrix._from_square(f @ f.T)


def transport_map(source: SpdMatrix, target: SpdMatrix) -> np.ndarray:
    """Optimal Gaussian transport map T with T source T^T == target.

    ``T = source^{-1/2} (source^{1/2} target source^{1/2})^{1/2} source^{-1/2}``,
    symmetric PSD. The inner root is X0 X1 = A diag(sigma) A^T of the
    coupling in ``_geodesic_ends``, so no eigendecomposition of the inner
    matrix is needed. The source is jittered if needed; a source that stays
    singular raises SingularCenter.
    """
    if source.dim != target.dim:
        raise ValueError(f"dimension mismatch: {source.dim} vs {target.dim}")
    src, _ = _ensure_positive_definite(source)
    x0, x1, _ = _geodesic_ends(src, target._root)
    w, v = src._eigvals, src._eigvecs
    inv_half = (v / np.sqrt(w)) @ v.T
    return _symmetrize(inv_half @ (x0 @ x1) @ inv_half)


def bw_geodesic_point(center: SpdMatrix, target: SpdMatrix, t: float) -> SpdMatrix:
    """Point at parameter t on the geodesic from center to target.

    Distance from the center grows linearly in t. Endpoints are returned
    exactly. Inside, the point is the Gram product F F^T with
    F = (1 - t) X0 + t X1, X0 and X1 the coupled square roots of
    ``_geodesic_ends`` with the target's square root as its factor, so it
    is PSD by construction, for any center, singular or zero included.
    """
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t}")
    if t == 0.0:
        return center
    if t == 1.0:
        return target
    if center.dim != target.dim:
        raise ValueError(f"dimension mismatch: {center.dim} vs {target.dim}")
    x0, x1, _ = _geodesic_ends(center, target._root)
    return _gram_point(x0, x1, t)


def bw_ball_project(ball: BwBall, m: SpdMatrix) -> SpdMatrix:
    """Metric projection of m onto the ball: geodesic retraction to the boundary."""
    dist = bw_distance(ball.center, m)
    if dist <= ball.radius:
        return m
    return bw_geodesic_point(ball.center, m, ball.radius / dist)


def random_psd_in_ball(ball: BwBall, seed: int) -> SpdMatrix:
    """Random PSD matrix within the ball, deterministic per seed.

    Uses numpy's PCG64 generator (normals via the ziggurat method). A radius
    fraction t is drawn uniformly on [0, 1), a direction comes from a random
    Wishart-type target beta G G^T, inflated until it lies beyond the
    requested distance, and the draw is the geodesic point at distance
    ``t * radius``. Covers the interior and approaches the boundary. The
    target is never formed: its factor sqrt(beta) G goes to
    ``_geodesic_ends``, whose one SVD gives both the coupling and the
    distance to the target, BW^2 = tr C + ||sqrt(beta) G||_F^2 - 2 fidelity;
    the draw is the Gram product of ``bw_geodesic_point``, which stays PSD
    and in the ball around any center, with one limit: around a rank-deficient
    center, radii below about 1e-8 sqrt(tr C) are not resolved, as the stored
    center's null eigenvalues, of order eps ||C||, have square roots above
    such a radius (``bw_distance`` reads up to 1e3 r from the center to itself).
    The draw is checked once, by ``SpdMatrix._from_square``: the
    constructor's value checks, without its copy and shape test.
    """
    if ball.radius == 0.0:
        return ball.center
    rng = np.random.default_rng(seed)
    t = float(rng.uniform())
    g = rng.standard_normal((ball.center.dim, ball.center.dim))
    rho = t * ball.radius
    if rho == 0.0:
        return ball.center
    # Inflate so the target sits beyond rho: BW(c, beta G G^T) >= sqrt(beta tr G G^T) - sqrt(tr c).
    beta = 4.0 * (rho + math.sqrt(ball.center.trace)) ** 2 / max(float(np.vdot(g, g)), 1e-300)
    factor = math.sqrt(beta) * g
    x0, x1, fidelity = _geodesic_ends(ball.center, factor)
    dist = math.sqrt(max(ball.center.trace + float(np.vdot(factor, factor)) - 2.0 * fidelity, 0.0))
    return _gram_point(x0, x1, rho / dist)
