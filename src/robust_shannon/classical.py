"""Classical Gaussian Shannon limits.

Rate-distortion of a Gaussian vector source by reverse waterfilling on the
covariance eigenvalues, the explicit linear test channel realizing it, the
Gaussian mutual-information determinant formula, and the capacity of a
linear channel with Gaussian noise by whitening plus waterfilling. All rates
are in nats.

Every waterfill is one sort-and-prefix-sum scan, implemented twice with the
same bits. ``reverse_waterfill_rows`` and ``waterfill_rows`` scan a batch of
rows in numpy; ``_rdf_core`` and ``_capacity_core`` scan one spectrum in
Python floats, with numpy only for the per-mode allocation and the log-sum,
so that the sums round as the batch's do. Both stay because each is the
cheaper one for its call shape: on one row of d <= 32 the numpy scan's time
is mostly per-call dispatch, two to four times the Python scan's, while a
Python loop over a batch (a 72-row KKT start, the draws of a sampler check)
would cost many times the numpy scan. The classical limits and the
general-channel objective call the one-spectrum cores; the eigen-reductions,
the oracles and the r = 0 rows of a compound solve call the batch scans.
Both take a rate whose quotient (eigenvalue over level, or SNR) passes the
float range in logs, ``_log_quotient``, and keep every other rate's bits.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from . import _lapack
from .errors import DegenerateMI
from .psd_geometry import SpdMatrix, _ensure_positive_definite, _real, _symmetrize, symmetric_eig

# x * _FAR > y for every quotient x / y > 0 that overflows, as x * _FAR is then about 2 y or more
_FAR = 2.0**-1023
# the largest float whose square is finite
_ROOT_MAX = math.sqrt(sys.float_info.max)
# the least ratio of whitened gains that ``_gram_whitened_gains`` takes from the Gram product, whose
# eigendecomposition squares the condition number of the SVD: against 30-digit values on 40 rotated
# channels each at d = 4, 8 and 16, its least gain erred by up to 2.5e-13 relative at a spread of
# 1e3, 7.7e-13 at 3e3 and 3.3e-12 at 9e3 (about 1.7 eps times the spread), the SVD's by under 1e-14
_GRAM_SPREAD = 1e-3


@dataclass(frozen=True, eq=False)
class TestChannel:
    """Forward channel reconstruction = gain @ source + noise."""

    gain: np.ndarray
    noise_cov: SpdMatrix

    def __post_init__(self):
        g = np.array(self.gain, dtype=float)
        if g.shape != (self.noise_cov.dim, self.noise_cov.dim):
            raise ValueError("gain shape does not match noise covariance")
        g.setflags(write=False)
        object.__setattr__(self, "gain", g)


@dataclass(frozen=True, eq=False)
class WaterfillAllocation:
    """Water level plus the per-eigenmode distortions (source) or powers (channel)."""

    level: float
    per_mode: np.ndarray
    rate_nats: float

    def __post_init__(self):
        p = np.array(self.per_mode, dtype=float)
        p.setflags(write=False)
        object.__setattr__(self, "per_mode", p)


@dataclass(frozen=True, eq=False)
class ChannelMatrix:
    """Fixed, known linear channel matrix (not necessarily symmetric)."""

    entries: np.ndarray

    def __post_init__(self):
        h = _check_channel(np.array(self.entries, dtype=float))
        h.setflags(write=False)
        object.__setattr__(self, "entries", h)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def _check_channel(h: np.ndarray) -> np.ndarray:
    """The float array ``h``, unchanged; ValueError unless it is a nonempty,
    square and finite matrix."""
    if h.ndim != 2 or h.shape[0] != h.shape[1] or h.shape[0] == 0:
        raise ValueError("entries must be a nonempty square matrix")
    if not np.isfinite(h).all():
        raise ValueError("entries must be finite")
    return h


class GaussianCapacity(NamedTuple):
    rate_nats: float
    input_cov: SpdMatrix
    allocation: WaterfillAllocation


def _check_distortion(distortion) -> float:
    """The distortion budget as a float; ValueError unless positive and finite."""
    d = _real(distortion)
    if not (d > 0.0 and math.isfinite(d)):
        raise ValueError(f"distortion must be positive and finite, got {distortion}")
    return d


def _rdf(eigenvalues: np.ndarray, distortion, trace: float):
    """``_rdf_core`` on a checked spectrum of total ``trace`` and an unchecked
    distortion budget, which must be positive and finite (ValueError).

    Where the water level's floor D/d is below the normal float range, the
    level cannot be represented (D/3 at D = 5e-324 rounds to 0), and the
    spectrum is waterfilled at the unit scale of ``compound._solve``: with
    4^e the power of four nearest tr/d, on (eigenvalues / 4^e, D / 4^e),
    with the level and the per-mode distortions scaled back by 4^e. Scaling
    by a power of two is exact, so this is the value a compound solve at
    r = 0 gives. A budget whose D/d is below the normal range at unit scale
    too raises ValueError. Every other budget is waterfilled as given.
    """
    checked, d = _check_distortion(distortion), eigenvalues.size
    if checked / d >= sys.float_info.min:
        return _rdf_core(eigenvalues, checked)
    e = math.frexp(trace / d)[1] // 2
    unit = math.ldexp(checked, -2 * e)
    if unit / d < sys.float_info.min:
        raise ValueError(
            f"distortion {distortion} is too small for {d} modes: the water level, at least "
            f"distortion / {d}, would be below the normal float range, in the units of the "
            "data and at unit scale"
        )
    level, per_mode, rate = _rdf_core(np.ldexp(eigenvalues, -2 * e), unit)
    return math.ldexp(level, 2 * e), np.ldexp(per_mode, 2 * e), rate


def _check_power(power) -> float:
    """The power budget as a float; ValueError unless nonnegative and finite."""
    p = _real(power)
    if not (p >= 0.0 and math.isfinite(p)):
        raise ValueError(f"power must be nonnegative and finite, got {power}")
    return p


def _check_vector(values, what) -> np.ndarray:
    """``values`` as a float vector; ValueError unless nonempty, 1-D, finite and nonnegative."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size == 0 or not (v.min() >= 0.0 and v.max() < math.inf):  # NaN fails both
        raise ValueError(f"{what} must be a nonempty vector of finite nonnegative reals")
    return v


def reverse_waterfill_rows(spectra, distortion):
    """Exact reverse waterfilling of a distortion budget on each row of eigenvalues.

    Sort-and-prefix-sum scan: with a row sorted ascending and its j smallest
    modes saturated, the candidate level is (D - their sum) / (d - j). The
    candidates that overshoot their next eigenvalue form a prefix, and the
    first one that does not is the solution (its lower bracket holds by
    induction). ``distortion`` is one budget for every row or a column of
    one per row. Returns (level, per_mode, rate_nats) with shapes (m,),
    (m, d), (m,). Rows whose total variance does not exceed the budget get
    zero rate and report their largest eigenvalue as the level.
    """
    lam = np.asarray(spectra, dtype=float)
    m, d = lam.shape
    ordered = np.sort(lam, axis=1)
    below = np.zeros_like(ordered)
    np.cumsum(ordered[:, :-1], axis=1, out=below[:, 1:])
    levels = (distortion - below) / np.arange(d, 0, -1)
    saturated = (levels[:, :-1] > ordered[:, :-1]).sum(axis=1)
    level = levels[np.arange(m), saturated][:, None]
    per_mode, top = np.minimum(lam, level), np.maximum(lam, level)
    try:
        with np.errstate(over="raise"):
            ratio = top / level
    except FloatingPointError:  # a ratio passes the float range
        rate = 0.5 * _log_quotient(top, level, np.log).sum(axis=1)
    else:
        rate = 0.5 * np.log(ratio).sum(axis=1)
    return np.minimum(level[:, 0], ordered[:, -1]), per_mode, rate


def waterfill_rows(inverse_gains, power):
    """Exact waterfilling of a power budget on each row of inverse gains.

    Sort-and-prefix-sum scan: with the k lowest inverse gains of a row
    active, the candidate level is (P + their sum) / k. The candidates that
    overshoot the next inverse gain form a prefix, and the first one that
    does not is the solution. Dead modes carry an infinite inverse gain; a
    row of only dead modes gets level 0. ``power`` is one budget for every
    row or a column of one per row. Returns (level, per_mode, rate_nats)
    with shapes (m,), (m, d), (m,).
    """
    inv = np.asarray(inverse_gains, dtype=float)
    m, d = inv.shape
    ordered = np.sort(inv, axis=1)
    levels = (power + np.cumsum(ordered, axis=1)) / np.arange(1, d + 1)
    inactive = (levels[:, :-1] > ordered[:, 1:]).sum(axis=1)
    level = levels[np.arange(m), inactive]
    level[np.isinf(level)] = 0.0
    per_mode = np.maximum(level[:, None] - inv, 0.0)
    try:
        with np.errstate(over="raise"):
            snr = np.divide(per_mode, inv, out=np.zeros_like(per_mode), where=per_mode > 0.0)
    except FloatingPointError:  # an SNR passes the float range
        return level, per_mode, 0.5 * _log_quotient(per_mode, inv, np.log1p, per_mode > 0.0).sum(axis=1)
    return level, per_mode, 0.5 * np.log1p(snr).sum(axis=1)


def _rdf_core(eigenvalues: np.ndarray, distortion: float):
    """Level, per-mode distortions and rate of one checked spectrum and
    budget: ``reverse_waterfill_rows``' scan on one row, in Python floats."""
    ordered = sorted(eigenvalues.tolist())
    d = len(ordered)
    below = accumulate(ordered[:-1], initial=0.0)  # the sums of the j smallest, j = 0..d-1
    levels = [(distortion - b) / (d - j) for j, b in enumerate(below)]
    level = levels[sum(a > b for a, b in zip(levels[:-1], ordered))]
    top = np.maximum(eigenvalues, level)
    if ordered[-1] * _FAR > level > 0.0:  # a level of 0 (a subnormal budget) stays inf
        rate = 0.5 * _log_quotient(top, level, np.log).sum()
    else:
        rate = 0.5 * np.log(top / level).sum()
    return min(level, ordered[-1]), np.minimum(eigenvalues, level), float(rate)


def _inverse_gains(gains: np.ndarray) -> np.ndarray:
    """1 / gains, infinite at a dead mode (gain 0)."""
    with np.errstate(divide="ignore"):
        return 1.0 / gains


def _capacity_core(inverse: np.ndarray, power: float):
    """Level, per-mode powers and rate of one checked vector of inverse
    gains and budget: ``waterfill_rows``' scan on one row, in Python floats."""
    ordered = sorted(inverse.tolist())
    levels = [(power + active) / k for k, active in enumerate(accumulate(ordered), 1)]
    level = levels[sum(a > b for a, b in zip(levels, ordered[1:]))]
    if level == math.inf:
        level = 0.0
    per_mode = np.maximum(level - inverse, 0.0)
    # a mode without power has a positive (or infinite) inverse gain, so its SNR is exactly 0
    if level * _FAR > ordered[0]:
        return level, per_mode, float(0.5 * _log_quotient(per_mode, inverse, np.log1p).sum())
    return level, per_mode, float(0.5 * np.log1p(per_mode / inverse).sum())


def _log_quotient(num, den, log, where=True):
    """``log(num / den)`` elementwise, ``log`` being np.log or np.log1p, for
    quotients that may overflow (0 where ``where`` is False). An entry whose
    quotient does is taken in logs, L = log num - log den: as L, or for
    log1p in the log-sum form L + log1p(exp(-L)). The other entries keep the
    bits of the plain quotient's log."""
    num, den = np.broadcast_arrays(num, den)
    with np.errstate(over="ignore"):
        terms = log(np.divide(num, den, out=np.zeros(num.shape), where=where))
    big = terms == math.inf
    log_q = np.log(num[big]) - np.log(den[big])
    terms[big] = log_q if log is np.log else log_q + np.log1p(np.exp(-log_q))
    return terms


def rdf_from_spectrum(eigenvalues, distortion: float) -> WaterfillAllocation:
    """Reverse waterfilling on a vector of source eigenvalues.

    Per-mode distortions are min(level, eigenvalue) and sum to
    min(distortion, total variance); the rate is the sum of the active-mode
    half-log ratios. A budget at or above the total variance yields zero rate
    and reports the largest eigenvalue as the level. Eigenvalues that do not
    form a nonempty vector of finite nonnegative reals raise ValueError, and
    so does a distortion that is not positive and finite. A distortion whose
    D/d is below the normal float range is waterfilled at unit scale, and
    raises ValueError only where D/d is below that range there too
    (``_rdf``).
    """
    eigenvalues = _check_vector(eigenvalues, "eigenvalues")
    return WaterfillAllocation(*_rdf(eigenvalues, distortion, float(eigenvalues.sum())))


def capacity_from_gains(gains, power: float) -> WaterfillAllocation:
    """Waterfilling of a power budget over whitened channel gains.

    Per-mode powers are (level - 1/gain)+ and sum to the budget; the rate is
    the sum of half-log(1 + gain * power) terms. An all-zero gain vector
    (dead channel) yields zero rate with level reported as 0. Gains that do
    not form a nonempty vector of finite nonnegative reals raise ValueError.
    """
    gains = _check_vector(gains, "gains")
    return WaterfillAllocation(*_capacity_core(_inverse_gains(gains), _check_power(power)))


def reverse_waterfill(cov: SpdMatrix, distortion: float) -> WaterfillAllocation:
    """Reverse-waterfilled distortion allocation for a Gaussian source covariance."""
    return WaterfillAllocation(*_rdf(cov._eigvals, distortion, cov.trace))


def gaussian_rdf(cov: SpdMatrix, distortion: float) -> float:
    """Rate-distortion function of a Gaussian vector source, in nats.

    Validates only the distortion, which must be positive and finite, with
    D/d a normal float in the units of the data or at unit scale
    (ValueError otherwise, see ``_rdf``); the spectrum is the covariance's
    own, which ``SpdMatrix`` checked at construction.
    """
    return _rdf(cov._eigvals, distortion, cov.trace)[2]


def rdf_realization(cov: SpdMatrix, distortion: float) -> TestChannel:
    """Linear test channel achieving the Gaussian rate-distortion function.

    Built per eigenmode: gain (1 - d_i/lam_i)+ and noise variance
    d_i * gain_i, rotated back to the basis of the covariance; its mutual
    information equals the rate and its distortion meets the budget.
    """
    vals, vecs = symmetric_eig(cov)
    _, per_mode, _ = _rdf(vals, distortion, cov.trace)
    with np.errstate(divide="ignore", invalid="ignore"):
        gains = np.where(vals > 0.0, 1.0 - per_mode / np.maximum(vals, 1e-300), 0.0)
    gains = np.maximum(gains, 0.0)
    noise = per_mode * gains
    a = (vecs * gains) @ vecs.T
    z = _symmetrize((vecs * noise) @ vecs.T)
    return TestChannel(a, SpdMatrix(z))


def gaussian_mi(gain, input_cov: SpdMatrix, noise_cov: SpdMatrix) -> float:
    """Mutual information through a linear Gaussian channel, in nats.

    ``0.5 * log det(gain input gain^T + noise) / det(noise)``. A singular
    noise covariance is handled on its range via pseudo-determinants when the
    output signal vanishes on the null space; otherwise DegenerateMI. Both
    tests are relative, so the value does not depend on the units of the
    data: a noise eigenvalue at most 1e-12 of the largest is null, and the
    signal vanishes there when it is at most 1e-9 of its trace. A gain not
    finite or not of shape (noise dim, input dim) raises ValueError.
    """
    a = np.asarray(gain, dtype=float)
    if a.shape != (noise_cov.dim, input_cov.dim) or not np.all(np.isfinite(a)):
        raise ValueError(f"gain must be a finite {noise_cov.dim} x {input_cov.dim} matrix")
    signal = _symmetrize(a @ input_cov.entries @ a.T)
    w, v = _lapack.eigh(noise_cov.entries)
    null_tol = 1e-12 * float(w[-1])
    in_range = w > null_tol
    if not np.all(in_range):
        nullspace = v[:, ~in_range]
        leak = float(np.abs(nullspace.T @ signal @ nullspace).max(initial=0.0))
        if leak > 1e-9 * float(np.trace(signal)):
            raise DegenerateMI(
                "noise covariance is singular and the output signal does not "
                f"vanish on its null space (leakage {leak:.3e})"
            )
    basis = v[:, in_range]
    if basis.shape[1] == 0:
        return 0.0
    noise_r = basis.T @ noise_cov.entries @ basis
    total_r = basis.T @ (signal + noise_cov.entries) @ basis
    sign_t, logdet_t = np.linalg.slogdet(_symmetrize(total_r))
    sign_n, logdet_n = np.linalg.slogdet(_symmetrize(noise_r))
    if sign_t <= 0 or sign_n <= 0:
        raise DegenerateMI("determinant of restricted covariance is not positive")
    return max(0.0, 0.5 * float(logdet_t - logdet_n))


def gaussian_capacity(channel, noise_cov: SpdMatrix, power: float) -> GaussianCapacity:
    """Capacity of a linear channel with Gaussian noise under a power budget.

    Whitens the channel by the inverse noise square root, waterfills the
    budget over the squared singular values, and returns the rate together
    with an input covariance realizing it. The noise covariance must be
    strictly positive definite (jittered if nearly singular). The input
    covariance is built from the waterfilled spectrum, which is already
    nonnegative and descending with the gains, in the right singular vectors,
    so it is not decomposed again.

    Validates, in this order: a raw array channel as ``ChannelMatrix``
    does and with its messages (square, nonempty, finite), in place, as the
    array is only read; the channel's shape against the noise, the whitened
    gains (finite; ValueError for a noise too small for the channel) and
    the power, which must be nonnegative and finite. The gains then go to
    the waterfill without being checked again. The allocation's read-only
    ``per_mode`` is also the input covariance's spectrum.
    """
    if isinstance(channel, ChannelMatrix):
        h = channel.entries
    else:
        h = _check_channel(np.asarray(channel, dtype=float))
    if h.shape != (noise_cov.dim, noise_cov.dim):
        raise ValueError("channel shape does not match noise covariance")
    gains, vt, _, _ = _whitened_gains(h, _ensure_positive_definite(noise_cov)[0].entries)
    allocation = WaterfillAllocation(*_capacity_core(_inverse_gains(gains), _check_power(power)))
    input_cov = SpdMatrix._from_spectrum(vt.T, allocation.per_mode)
    return GaussianCapacity(allocation.rate_nats, input_cov, allocation)


def _whitened_gains(h: np.ndarray, noise: np.ndarray):
    """Squared singular values, right singular vectors V^T and left ones U
    of the channel whitened by the positive definite noise W, and L.

    Whitens by the Cholesky factor, W = L L^T: W^{-1/2} = O L^{-1} with O
    orthogonal, so L^{-1} H, formed by one triangular solve, has the
    singular values and right singular vectors of W^{-1/2} H: L^{-1} H =
    U diag(sqrt(gains)) V^T. A noise that is not positive definite raises
    LinAlgError; a gain that is not finite (a subnormal noise variance)
    raises ValueError.
    """
    chol = _lapack.cholesky(noise)
    return (*_singular_gains(_lapack.solve_lower(chol, h)), chol)


def _singular_gains(a: np.ndarray):
    """Squared singular values, V^T and U of the whitened channel ``a``, by
    its SVD; ValueError for a gain that is not finite."""
    u, svals, vt = _lapack.svd(a)
    if not svals[0] <= _ROOT_MAX:  # the largest comes first; NaN fails too
        raise ValueError("whitened channel gain is not finite: noise too small for the channel")
    return svals * svals, vt, u


def _gram_whitened_gains(h: np.ndarray, noise: np.ndarray):
    """The gains, U and L of ``_whitened_gains``, without V^T: from one
    eigendecomposition of the Gram product A A^T = U diag(gains) U^T, A =
    L^{-1} H, which costs less than the SVD of A at d >= 8.

    That route squares the condition number, so it is taken only where the
    gains are finite, not all 0 and spread at most 1 / _GRAM_SPREAD apart:
    where the sum of squares of A, the Gram product's trace, lies in (0,
    half the float range] (every entry of the product is at most that sum,
    up to rounding, so none overflows) and the least gain is at least
    _GRAM_SPREAD times the largest. Otherwise, as for a rank-deficient or
    ill-conditioned channel, it takes the SVD of the same A and returns
    ``_whitened_gains``' result, bits and errors included.
    """
    chol = _lapack.cholesky(noise)
    a = _lapack.solve_lower(chol, h)
    if 0.0 < np.vdot(a, a) <= 0.5 * sys.float_info.max:  # NaN fails too
        gains, u = _lapack.eigh(a @ a.T)
        if gains[0] >= _GRAM_SPREAD * gains[-1]:
            return gains[::-1], u[:, ::-1], chol
    gains, _, u = _singular_gains(a)
    return gains, u, chol
