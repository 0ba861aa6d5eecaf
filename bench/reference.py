"""Reference computations the benchmark checks the library against.

Written from the textbook formulas with plain numpy, sharing no code with
`robust_shannon`, so a defect in the library cannot hide in its own reference.
"""

from __future__ import annotations

import math

import numpy as np


def rdf(eigenvalues, distortion: float) -> float:
    """Reverse-waterfilled Gaussian rate-distortion, in nats, by active-set scan."""
    lam = np.sort(np.asarray(eigenvalues, dtype=float))
    d = lam.size
    if distortion >= lam.sum():
        return 0.0
    saturated = 0.0
    for j in range(d):
        # The j smallest modes are fully distorted; the rest share the level.
        level = (distortion - saturated) / (d - j)
        if level <= lam[j]:
            return 0.5 * float(np.log(lam[j:] / level).sum())
        saturated += lam[j]
    raise AssertionError("unreachable: the last mode always admits the level")


def capacity_from_inverse_gains(inverse_gains, power: float) -> float:
    """Waterfilled capacity, in nats, over modes with the given inverse gains."""
    inv = np.sort(np.asarray(inverse_gains, dtype=float))
    inv = inv[np.isfinite(inv)]
    if inv.size == 0 or power == 0.0:
        return 0.0
    filled = 0.0
    for k in range(1, inv.size + 1):
        filled += inv[k - 1]
        level = (power + filled) / k
        if k == inv.size or level <= inv[k]:
            return 0.5 * float(np.log(level / inv[:k]).sum())
    raise AssertionError("unreachable: the last mode count always admits the level")


def capacity(channel, noise, power: float) -> float:
    """Capacity of y = H x + z, z ~ N(0, noise), tr cov(x) <= power, in nats."""
    w, v = np.linalg.eigh(0.5 * (noise + noise.T))
    whitened = (v / np.sqrt(w)) @ v.T @ np.asarray(channel, dtype=float)
    gains = np.linalg.svd(whitened, compute_uv=False) ** 2
    with np.errstate(divide="ignore"):
        return capacity_from_inverse_gains(1.0 / gains, power)


def _psd_sqrt(a):
    w, v = np.linalg.eigh(0.5 * (a + a.T))
    return (v * np.sqrt(np.maximum(w, 0.0))) @ v.T


def bw_distance(a, b) -> float:
    """Bures-Wasserstein distance between PSD matrices."""
    s = _psd_sqrt(a)
    cross = np.linalg.eigvalsh(s @ b @ s)
    radicand = np.trace(a) + np.trace(b) - 2.0 * np.sqrt(np.maximum(cross, 0.0)).sum()
    return math.sqrt(max(float(radicand), 0.0))


def gaussian_w2(mean_a, cov_a, mean_b, cov_b) -> float:
    """Wasserstein-2 distance between two Gaussian laws."""
    shift = float(np.linalg.norm(np.asarray(mean_a) - np.asarray(mean_b)))
    return math.hypot(shift, bw_distance(cov_a, cov_b))


def close(value: float, expected: float, tol: float) -> bool:
    """True when value is within tol of expected, relative above magnitude 1."""
    return abs(value - expected) <= tol * max(1.0, abs(expected))
