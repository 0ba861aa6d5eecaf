import math

import numpy as np
import pytest

from robust_shannon import (
    ChannelMatrix,
    DegenerateMI,
    SpdMatrix,
    capacity_from_gains,
    gaussian_capacity,
    gaussian_mi,
    gaussian_rdf,
    rdf_from_spectrum,
    rdf_realization,
    reverse_waterfill,
)
from robust_shannon import classical
from robust_shannon.classical import reverse_waterfill_rows, waterfill_rows

HALF_LOG4 = 0.6931471805599453
HALF_LOG6 = 0.8958797346140275


def random_spd(rng, d, floor=0.1):
    g = rng.standard_normal((d, d))
    return SpdMatrix(g @ g.T + floor * np.eye(d))


def grid_waterfill_rate(eigenvalues, distortion, points=200_000):
    """Brute-force water level: scan a dense theta grid for the budget match."""
    lam = np.asarray(eigenvalues, dtype=float)
    thetas = np.linspace(1e-9, lam.max(), points)
    sums = np.minimum(thetas[:, None], lam[None, :]).sum(axis=1)
    theta = thetas[np.argmin(np.abs(sums - distortion))]
    per_mode = np.minimum(theta, lam)
    return float(np.sum(0.5 * np.log(lam[lam > theta] / theta))), theta, per_mode


def bisect_level(total_at, target, lo, hi):
    """Reference water level: bisect a nondecreasing map to machine resolution."""
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return mid
        lo, hi = (mid, hi) if total_at(mid) < target else (lo, mid)


def reference_rdf(eigenvalues, distortion):
    lam = np.asarray(eigenvalues, dtype=float)
    if distortion >= lam.sum():
        return lam.max(), lam, 0.0
    level = bisect_level(lambda t: np.minimum(t, lam).sum(), distortion, 0.0, lam.max())
    return level, np.minimum(level, lam), 0.5 * np.log(lam[lam > level] / level).sum()


def reference_capacity(gains, power):
    g = np.asarray(gains, dtype=float)
    if g.max() == 0.0:
        return 0.0, np.zeros_like(g), 0.0
    inv = np.divide(1.0, g, out=np.full_like(g, np.inf), where=g > 0.0)
    total_at = lambda t: np.maximum(t - inv, 0.0).sum()  # noqa: E731
    level = bisect_level(total_at, power, inv.min(), inv.min() + power)
    per_mode = np.maximum(level - inv, 0.0)
    return level, per_mode, 0.5 * np.log1p(g * per_mode).sum()


def assert_matches_reference(got, expected):
    (level, per_mode, rate), (ref_level, ref_per_mode, ref_rate) = got, expected
    assert level == pytest.approx(ref_level, rel=1e-12, abs=1e-300)
    # Capacity allocations are level - 1/gain, so they inherit the level's rounding.
    assert np.allclose(per_mode, ref_per_mode, rtol=1e-12, atol=1e-12 * ref_level)
    assert rate == pytest.approx(ref_rate, rel=1e-12, abs=1e-12)


RDF_CASES = {
    "d1": ([2.0], 0.5),
    "repeated": ([1.0, 1.0, 1.0, 4.0, 4.0], 2.5),
    "repeated_tie": ([1.0, 1.0, 4.0, 4.0], 4.0),
    "singular_center": ([0.0, 0.0, 1.0, 3.0], 0.7),
    "singular_center_wide": ([0.0, 1.0, 3.0], 2.0),
    "budget_equals_total": ([1.0, 4.0], 5.0),
    "budget_above_total": ([1.0, 4.0], 7.0),
    "sub_tiny": ([1e-3, 1.0, 2.0], 1e-300),
    "sub_tiny_singular": ([0.0, 1.0], 1e-300),
}
CAPACITY_CASES = {
    "d1": ([3.0], 1.0),
    "repeated": ([2.0, 2.0, 2.0], 0.3),
    "dead_modes": ([0.0, 1.5, 0.0, 0.2], 2.0),
    "dead_channel": ([0.0, 0.0], 1.0),
    "power_zero": ([1.0, 2.0], 0.0),
    "one_active": ([1.0, 0.01], 0.5),
    "sub_tiny": ([1.0, 2.0, 0.5], 1e-300),
}


class TestExactWaterfill:
    """The sort-and-prefix-sum scan against an independent bisection."""

    @pytest.mark.parametrize("case", sorted(RDF_CASES))
    def test_rdf_matches_reference_bisection(self, case):
        eigenvalues, distortion = RDF_CASES[case]
        alloc = rdf_from_spectrum(eigenvalues, distortion)
        assert_matches_reference(
            (alloc.level, alloc.per_mode, alloc.rate_nats), reference_rdf(eigenvalues, distortion)
        )

    @pytest.mark.parametrize("case", sorted(CAPACITY_CASES))
    def test_capacity_matches_reference_bisection(self, case):
        gains, power = CAPACITY_CASES[case]
        alloc = capacity_from_gains(gains, power)
        assert_matches_reference(
            (alloc.level, alloc.per_mode, alloc.rate_nats), reference_capacity(gains, power)
        )

    def test_batched_rows_match_reference_bisection(self):
        rng = np.random.default_rng(27)
        spectra = rng.uniform(0.0, 3.0, size=(60, 5)) ** 2
        spectra[::7, 0] = 0.0
        gains = np.where(rng.random((60, 5)) < 0.2, 0.0, spectra)
        for budget in (1e-9, 0.4, 3.0, 40.0):
            rows = zip(*reverse_waterfill_rows(spectra, budget))
            for row, got in zip(spectra, rows):
                assert_matches_reference(got, reference_rdf(row, budget))
            with np.errstate(divide="ignore"):
                rows = zip(*waterfill_rows(1.0 / gains, budget))
            for row, got in zip(gains, rows):
                assert_matches_reference(got, reference_capacity(row, budget))


class TestReverseWaterfill:
    def test_scalar_boundary(self):
        alloc = reverse_waterfill(SpdMatrix.from_diag([1.0]), 1.0)
        assert alloc.rate_nats == 0.0

    def test_scalar_quarter_distortion(self):
        alloc = reverse_waterfill(SpdMatrix.from_diag([4.0]), 1.0)
        assert alloc.rate_nats == pytest.approx(HALF_LOG4, abs=1e-12)
        assert alloc.level == pytest.approx(1.0, rel=1e-12)

    def test_two_modes_hand_solved(self):
        alloc = reverse_waterfill(SpdMatrix.from_diag([1.0, 4.0]), 2.0)
        assert alloc.level == pytest.approx(1.0, rel=1e-12)
        assert np.allclose(sorted(alloc.per_mode), [1.0, 1.0])
        assert alloc.rate_nats == pytest.approx(HALF_LOG4, abs=1e-12)

    def test_against_theta_grid_oracle(self):
        rate, theta, _ = grid_waterfill_rate([1.0, 4.0], 2.0)
        alloc = reverse_waterfill(SpdMatrix.from_diag([1.0, 4.0]), 2.0)
        assert alloc.rate_nats == pytest.approx(rate, abs=1e-4)
        assert alloc.level == pytest.approx(theta, abs=1e-4)

    def test_saturated_budget(self):
        alloc = reverse_waterfill(SpdMatrix.from_diag([1.0, 4.0]), 10.0)
        assert alloc.rate_nats == 0.0
        assert alloc.level == 4.0
        assert np.allclose(sorted(alloc.per_mode), [1.0, 4.0])

    def test_rejects_nonpositive_distortion(self):
        with pytest.raises(ValueError):
            reverse_waterfill(SpdMatrix.identity(2), 0.0)
        with pytest.raises(ValueError):
            gaussian_rdf(SpdMatrix.identity(2), -1.0)

    def test_budget_conservation_random(self):
        rng = np.random.default_rng(20)
        for _ in range(100):
            d = int(rng.integers(1, 7))
            cov = random_spd(rng, d)
            distortion = float(rng.uniform(0.05, 1.2) * cov.trace)
            alloc = reverse_waterfill(cov, distortion)
            target = min(distortion, cov.trace)
            assert alloc.per_mode.sum() == pytest.approx(target, rel=1e-9)


class TestGaussianRdf:
    def test_scalar_matches_closed_form(self):
        assert gaussian_rdf(SpdMatrix.from_diag([1.0]), 2.0) == 0.0
        for var, distortion in ((1.0, 0.3), (4.0, 1.0), (2.5, 2.4)):
            expected = max(0.0, 0.5 * math.log(var / distortion))
            got = gaussian_rdf(SpdMatrix.from_diag([var]), distortion)
            assert got == pytest.approx(expected, abs=1e-12)

    def test_monotone_nonincreasing_in_distortion(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            cov = random_spd(rng, int(rng.integers(1, 5)))
            budgets = np.sort(rng.uniform(0.01, 1.5, 5) * cov.trace)
            rates = [gaussian_rdf(cov, float(b)) for b in budgets]
            assert all(rates[i + 1] <= rates[i] + 1e-10 for i in range(4))

    def test_scale_invariance(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            cov = random_spd(rng, int(rng.integers(1, 5)))
            distortion = float(rng.uniform(0.05, 0.9) * cov.trace)
            scale = float(rng.uniform(0.1, 10.0))
            base = gaussian_rdf(cov, distortion)
            scaled = gaussian_rdf(SpdMatrix(scale * cov.entries), scale * distortion)
            assert scaled == pytest.approx(base, abs=1e-9)


class TestRdfRealization:
    def test_scalar_hand_checked(self):
        channel = rdf_realization(SpdMatrix.from_diag([4.0]), 1.0)
        assert channel.gain[0, 0] == pytest.approx(0.75, rel=1e-12)
        assert channel.noise_cov.entries[0, 0] == pytest.approx(0.75, rel=1e-12)
        distortion = (channel.gain[0, 0] - 1.0) ** 2 * 4.0 + channel.noise_cov.entries[0, 0]
        assert distortion == pytest.approx(1.0, rel=1e-12)
        mi = gaussian_mi(channel.gain, SpdMatrix.from_diag([4.0]), channel.noise_cov)
        assert mi == pytest.approx(HALF_LOG4, abs=1e-12)

    def test_zero_rate_regime(self):
        channel = rdf_realization(SpdMatrix.from_diag([1.0, 4.0]), 10.0)
        assert np.allclose(channel.gain, 0.0)
        assert np.allclose(channel.noise_cov.entries, 0.0)
        mi = gaussian_mi(channel.gain, SpdMatrix.from_diag([1.0, 4.0]), channel.noise_cov)
        assert mi == 0.0

    def test_two_mode_per_axis_construction(self):
        channel = rdf_realization(SpdMatrix.from_diag([1.0, 4.0]), 2.0)
        assert np.allclose(channel.gain, np.diag([0.0, 0.75]), atol=1e-12)
        assert np.allclose(channel.noise_cov.entries, np.diag([0.0, 0.75]), atol=1e-12)

    def test_random_instances_meet_budget_and_rate(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            d = int(rng.integers(1, 6))
            cov = random_spd(rng, d)
            distortion = float(rng.uniform(0.05, 1.3) * cov.trace)
            channel = rdf_realization(cov, distortion)
            gap = channel.gain - np.eye(d)
            achieved = float(np.trace(gap @ cov.entries @ gap.T) + channel.noise_cov.trace)
            assert achieved <= distortion + 1e-9
            mi = gaussian_mi(channel.gain, cov, channel.noise_cov)
            assert mi == pytest.approx(gaussian_rdf(cov, distortion), abs=1e-9)


class TestGaussianMi:
    def test_zero_gain(self):
        assert gaussian_mi(np.zeros((2, 2)), SpdMatrix.identity(2), SpdMatrix.identity(2)) == 0.0

    def test_scalar(self):
        got = gaussian_mi(np.eye(1), SpdMatrix.from_diag([3.0]), SpdMatrix.from_diag([1.0]))
        assert got == pytest.approx(HALF_LOG4, abs=1e-12)

    def test_two_by_two_determinant(self):
        got = gaussian_mi(np.eye(2), SpdMatrix.from_diag([1.0, 2.0]), SpdMatrix.identity(2))
        assert got == pytest.approx(HALF_LOG6, abs=1e-12)

    def test_singular_noise_with_leak_raises(self):
        with pytest.raises(DegenerateMI):
            gaussian_mi(np.eye(2), SpdMatrix.identity(2), SpdMatrix.from_diag([1.0, 0.0]))

    def test_singular_noise_on_common_range(self):
        got = gaussian_mi(
            np.eye(2), SpdMatrix.from_diag([1.0, 0.0]), SpdMatrix.from_diag([1.0, 0.0])
        )
        assert got == pytest.approx(0.5 * math.log(2.0), abs=1e-12)


class TestGaussianCapacity:
    def test_zero_power(self):
        rate, input_cov, alloc = gaussian_capacity(np.eye(2), SpdMatrix.identity(2), 0.0)
        assert rate == 0.0
        assert np.allclose(input_cov.entries, 0.0)
        assert np.allclose(alloc.per_mode, 0.0)

    def test_scalar(self):
        rate, _, _ = gaussian_capacity(np.eye(1), SpdMatrix.from_diag([1.0]), 3.0)
        assert rate == pytest.approx(HALF_LOG4, abs=1e-12)

    def test_symmetric_two_mode_split(self):
        rate, input_cov, alloc = gaussian_capacity(np.eye(2), SpdMatrix.identity(2), 2.0)
        assert rate == pytest.approx(math.log(2.0), abs=1e-12)
        assert np.allclose(sorted(alloc.per_mode), [1.0, 1.0], atol=1e-9)
        assert np.allclose(input_cov.entries, np.eye(2), atol=1e-9)

    def test_zero_channel(self):
        rate, input_cov, alloc = gaussian_capacity(np.zeros((2, 2)), SpdMatrix.identity(2), 5.0)
        assert rate == 0.0
        assert alloc.level == 0.0
        assert np.allclose(input_cov.entries, 0.0)

    def test_rejects_negative_power(self):
        with pytest.raises(ValueError):
            gaussian_capacity(np.eye(2), SpdMatrix.identity(2), -1.0)

    def test_monotone_in_power(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            d = int(rng.integers(1, 5))
            noise = random_spd(rng, d)
            h = rng.standard_normal((d, d))
            budgets = np.sort(rng.uniform(0.0, 5.0, 5))
            rates = [gaussian_capacity(h, noise, float(b)).rate_nats for b in budgets]
            assert all(rates[i + 1] >= rates[i] - 1e-10 for i in range(4))

    def test_whitening_invariance(self):
        rng = np.random.default_rng(25)
        for _ in range(20):
            d = int(rng.integers(1, 5))
            noise = random_spd(rng, d)
            h = rng.standard_normal((d, d))
            power = float(rng.uniform(0.2, 4.0))
            vals, vecs = np.linalg.eigh(noise.entries)
            whitened = (vecs / np.sqrt(vals)) @ vecs.T @ h
            direct = gaussian_capacity(h, noise, power).rate_nats
            white = gaussian_capacity(whitened, SpdMatrix.identity(d), power).rate_nats
            assert direct == pytest.approx(white, abs=1e-9)

    def test_input_cov_realizes_rate(self):
        rng = np.random.default_rng(26)
        for _ in range(50):
            d = int(rng.integers(1, 5))
            noise = random_spd(rng, d)
            h = rng.standard_normal((d, d))
            power = float(rng.uniform(0.0, 4.0))
            rate, input_cov, alloc = gaussian_capacity(h, noise, power)
            assert input_cov.trace <= power + 1e-9
            output = noise.entries + h @ input_cov.entries @ h.T
            check = 0.5 * (np.linalg.slogdet(output)[1] - np.linalg.slogdet(noise.entries)[1])
            assert check == pytest.approx(rate, abs=1e-9)
            if power > 0 and alloc.per_mode.sum() > 0:
                assert alloc.per_mode.sum() == pytest.approx(power, rel=1e-9)

    def test_accepts_channel_matrix_wrapper(self):
        rate, _, _ = gaussian_capacity(
            ChannelMatrix(np.eye(1)), SpdMatrix.from_diag([1.0]), 3.0
        )
        assert rate == pytest.approx(HALF_LOG4, abs=1e-12)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: classical.TestChannel(np.eye(3), SpdMatrix.identity(2)), "gain shape"),
        (lambda: ChannelMatrix(np.zeros((2, 3))), "nonempty square"),
        (lambda: ChannelMatrix([[1.0, math.inf], [0.0, 1.0]]), "entries must be finite"),
        (lambda: gaussian_capacity(np.eye(3), SpdMatrix.identity(2), 1.0), "channel shape"),
    ],
    ids=["test_channel_gain_shape", "channel_not_square", "channel_not_finite", "capacity_shape"],
)
def test_rejects_malformed_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()
