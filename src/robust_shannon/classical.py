"""Classical Gaussian Shannon limits.

Rate-distortion of a Gaussian vector source by reverse waterfilling on the
covariance eigenvalues, the explicit linear test channel realizing it, the
Gaussian mutual-information determinant formula, and the capacity of a
linear channel with Gaussian noise by whitening plus waterfilling. All rates
are in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateMI
from .psd_geometry import SpdMatrix, _ensure_positive_definite, _symmetrize, symmetric_eig


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
        h = np.array(self.entries, dtype=float)
        if h.ndim != 2 or h.shape[0] != h.shape[1] or h.shape[0] == 0:
            raise ValueError("entries must be a nonempty square matrix")
        if not np.all(np.isfinite(h)):
            raise ValueError("entries must be finite")
        h.setflags(write=False)
        object.__setattr__(self, "entries", h)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


class GaussianCapacity(NamedTuple):
    rate_nats: float
    input_cov: SpdMatrix
    allocation: WaterfillAllocation


def _check_distortion(distortion) -> float:
    """The distortion budget as a float; ValueError unless positive and finite."""
    d = float(distortion)
    if not (d > 0.0 and math.isfinite(d)):
        raise ValueError(f"distortion must be positive and finite, got {distortion}")
    return d


def _check_power(power) -> float:
    """The power budget as a float; ValueError unless nonnegative and finite."""
    p = float(power)
    if not (p >= 0.0 and math.isfinite(p)):
        raise ValueError(f"power must be nonnegative and finite, got {power}")
    return p


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
    per_mode = np.minimum(lam, level)
    rate = 0.5 * np.log(np.maximum(lam, level) / level).sum(axis=1)
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
    snr = np.divide(per_mode, inv, out=np.zeros_like(per_mode), where=per_mode > 0.0)
    return level, per_mode, 0.5 * np.log1p(snr).sum(axis=1)


def rdf_from_spectrum(eigenvalues, distortion: float) -> WaterfillAllocation:
    """Reverse waterfilling on a vector of source eigenvalues.

    Per-mode distortions are min(level, eigenvalue) and sum to
    min(distortion, total variance); the rate is the sum of the active-mode
    half-log ratios. A budget at or above the total variance yields zero rate
    and reports the largest eigenvalue as the level.
    """
    level, per_mode, rate = reverse_waterfill_rows(
        np.asarray(eigenvalues, dtype=float)[None, :], _check_distortion(distortion)
    )
    return WaterfillAllocation(float(level[0]), per_mode[0], float(rate[0]))


def capacity_from_gains(gains, power: float) -> WaterfillAllocation:
    """Waterfilling of a power budget over whitened channel gains.

    Per-mode powers are (level - 1/gain)+ and sum to the budget; the rate is
    the sum of half-log(1 + gain * power) terms. An all-zero gain vector
    (dead channel) yields zero rate with level reported as 0.
    """
    with np.errstate(divide="ignore"):
        inv = 1.0 / np.asarray(gains, dtype=float)[None, :]
    level, per_mode, rate = waterfill_rows(inv, _check_power(power))
    return WaterfillAllocation(float(level[0]), per_mode[0], float(rate[0]))


def reverse_waterfill(cov: SpdMatrix, distortion: float) -> WaterfillAllocation:
    """Reverse-waterfilled distortion allocation for a Gaussian source covariance."""
    vals, _ = symmetric_eig(cov)
    return rdf_from_spectrum(vals, distortion)


def gaussian_rdf(cov: SpdMatrix, distortion: float) -> float:
    """Rate-distortion function of a Gaussian vector source, in nats."""
    return reverse_waterfill(cov, distortion).rate_nats


def rdf_realization(cov: SpdMatrix, distortion: float) -> TestChannel:
    """Linear test channel achieving the Gaussian rate-distortion function.

    Built per eigenmode: gain (1 - d_i/lam_i)+ and noise variance
    d_i * gain_i, rotated back to the basis of the covariance; its mutual
    information equals the rate and its distortion meets the budget.
    """
    vals, vecs = symmetric_eig(cov)
    alloc = rdf_from_spectrum(vals, distortion)
    with np.errstate(divide="ignore", invalid="ignore"):
        gains = np.where(vals > 0.0, 1.0 - alloc.per_mode / np.maximum(vals, 1e-300), 0.0)
    gains = np.maximum(gains, 0.0)
    noise = alloc.per_mode * gains
    a = (vecs * gains) @ vecs.T
    z = _symmetrize((vecs * noise) @ vecs.T)
    return TestChannel(a, SpdMatrix(z))


def gaussian_mi(gain, input_cov: SpdMatrix, noise_cov: SpdMatrix) -> float:
    """Mutual information through a linear Gaussian channel, in nats.

    ``0.5 * log det(gain input gain^T + noise) / det(noise)``. A singular
    noise covariance is handled on its range via pseudo-determinants when the
    output signal vanishes on the null space; otherwise DegenerateMI.
    """
    a = np.asarray(gain, dtype=float)
    signal = _symmetrize(a @ input_cov.entries @ a.T)
    w, v = np.linalg.eigh(noise_cov.entries)
    null_tol = 1e-12 * max(1.0, float(w[-1]))
    in_range = w > null_tol
    if not np.all(in_range):
        nullspace = v[:, ~in_range]
        leak = float(np.abs(nullspace.T @ signal @ nullspace).max(initial=0.0))
        if leak > 1e-9 * max(1.0, float(np.trace(signal))):
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
    strictly positive definite (jittered if nearly singular).
    """
    h = np.asarray(channel.entries if isinstance(channel, ChannelMatrix) else channel, dtype=float)
    if h.shape != (noise_cov.dim, noise_cov.dim):
        raise ValueError("channel shape does not match noise covariance")
    gains, vt = _whitened_gains(h, noise_cov)
    alloc = capacity_from_gains(gains, power)
    input_cov = SpdMatrix((vt.T * alloc.per_mode) @ vt)
    return GaussianCapacity(alloc.rate_nats, input_cov, alloc)


def _whitened_gains(h: np.ndarray, noise_cov: SpdMatrix):
    """Squared singular values and right singular vectors (rows) of the
    channel whitened by the inverse square root of the (jittered) noise."""
    noise, _ = _ensure_positive_definite(noise_cov)
    w, v = symmetric_eig(noise)
    inv_half = (v / np.sqrt(w)) @ v.T
    _, svals, vt = np.linalg.svd(inv_half @ h)
    return svals**2, vt
