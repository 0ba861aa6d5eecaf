import math
import sys

import mpmath
import numpy as np
import pytest

from robust_shannon import (
    BwBall,
    ChannelMatrix,
    CompoundRdfRequest,
    DegenerateMI,
    SpdMatrix,
    capacity_from_gains,
    compound_rdf,
    gaussian_capacity,
    gaussian_mi,
    gaussian_rdf,
    rdf_from_spectrum,
    rdf_realization,
    reverse_waterfill,
    symmetric_eig,
)
from robust_shannon import classical
from robust_shannon.classical import reverse_waterfill_rows, waterfill_rows
from robust_shannon.cli import main

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


def assert_same_bits(got, row):
    """A one-spectrum core's (level, per_mode, rate) equals a batch row's bit for bit."""
    (level, per_mode, rate), (row_level, row_per_mode, row_rate) = got, row
    assert type(level) is float and type(rate) is float
    assert np.float64(level).tobytes() == row_level.tobytes()
    assert per_mode.tobytes() == row_per_mode.tobytes()
    assert np.float64(rate).tobytes() == row_rate.tobytes()


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
        # each batch row against the bisection, and the one-spectrum cores,
        # which scan in Python floats, against the batch row bit for bit;
        # the last budget of each kind puts a candidate level on a spectrum
        # value, where counting a tie as an overshoot would move the level
        rng = np.random.default_rng(27)
        for d in (1, 2, 3, 5, 8, 16, 32):
            m = 12
            spectra = rng.uniform(0.0, 3.0, size=(m, d)) ** 2
            spectra[1::4] = spectra[1::4, :1]  # one eigenvalue, repeated
            spectra[2::4, d // 2:] = spectra[2::4, -1:]  # a repeated top block
            if d > 1:
                spectra[::5, 0] = 0.0  # a null eigenvalue
            gains = np.where(rng.random((m, d)) < 0.2, 0.0, spectra)
            gains[3] = 0.0  # a dead channel
            with np.errstate(divide="ignore"):
                inverse = 1.0 / gains
            totals, ordered = spectra.sum(axis=1), np.sort(spectra, axis=1)
            second = ordered[:, min(1, d - 1)]
            on_second = ordered[:, 0] + (d - 1) * second  # the level with one mode saturated is `second`
            lowest = np.sort(inverse, axis=1)[:, :2]
            gap = [b - a if b < math.inf else 1.0 for a, b in lowest] if d > 1 else [1.0] * m
            budgets = (1e-9, 0.4, 3.0, 40.0, totals, 2.0 * totals)
            for budget in (0.0, *budgets, gap):
                column = np.broadcast_to(np.reshape(budget, (-1, 1)), (m, 1))
                rows = zip(*waterfill_rows(inverse, column))
                for row, inv, b, got in zip(gains, inverse, column[:, 0], rows):
                    assert_matches_reference(got, reference_capacity(row, b))
                    assert_same_bits(classical._capacity_core(inv, float(b)), got)
            for budget in (*budgets, on_second):
                column = np.broadcast_to(np.reshape(budget, (-1, 1)), (m, 1))
                rows = zip(*reverse_waterfill_rows(spectra, column))
                for row, b, got in zip(spectra, column[:, 0], rows):
                    assert_matches_reference(got, reference_rdf(row, b))
                    assert_same_bits(classical._rdf_core(row, float(b)), got)


def _mp_rdf(eigenvalues, distortion):
    """Reverse waterfilling at 50 digits: the level from the sorted scan,
    the rate as the sum of half logs."""
    with mpmath.workdps(50):
        lam = sorted(mpmath.mpf(x) for x in eigenvalues)
        if distortion >= sum(lam):
            return mpmath.mpf(0)
        below = mpmath.mpf(0)
        for j, value in enumerate(lam):
            level = (mpmath.mpf(distortion) - below) / (len(lam) - j)
            if level <= value:
                break
            below += value
        return sum(mpmath.log(x / level) for x in lam if x > level) / 2


def _mp_capacity(gains, power):
    """Waterfilling at 50 digits over the live modes, the rate as the sum of
    half logs of level times gain."""
    with mpmath.workdps(50):
        inverse = sorted(1 / mpmath.mpf(g) for g in gains if g > 0.0)
        total = mpmath.mpf(power)
        for k, value in enumerate(inverse, 1):
            total += value
            level = total / k
            if k == len(inverse) or level <= inverse[k]:
                break
        return sum(mpmath.log(level / x) for x in inverse if x < level) / 2


# spectra and budgets whose eigenvalue/level or gain * power passes the float range
RDF_FAR = [([1e300, 1e-300], 1e-300), ([1e300, 1.0, 1e-300], 1e-290), ([1e200, 3e-120], 1e-120)]
CAPACITY_FAR = [([1e200], 1e200), ([1e200, 1.0, 1e-5], 1e200), ([3e250, 0.0, 2e60], 1e100)]


class TestDynamicRange:
    """Rates whose quotients overflow are taken in logs, and every other
    rate keeps the bits of the plain quotient's log."""

    @pytest.mark.parametrize("eigenvalues, distortion", RDF_FAR)
    def test_rdf_beyond_the_float_range(self, eigenvalues, distortion):
        rate = rdf_from_spectrum(eigenvalues, distortion).rate_nats
        assert rate == pytest.approx(float(_mp_rdf(eigenvalues, distortion)), rel=1e-12)
        row = reverse_waterfill_rows(np.array([eigenvalues]), distortion)[2][0]
        assert row == rate

    @pytest.mark.parametrize("gains, power", CAPACITY_FAR)
    def test_capacity_beyond_the_float_range(self, gains, power):
        rate = capacity_from_gains(gains, power).rate_nats
        assert rate == pytest.approx(float(_mp_capacity(gains, power)), rel=1e-12)
        with np.errstate(divide="ignore"):
            row = waterfill_rows(1.0 / np.array([gains]), power)[2][0]
        assert row == rate

    def test_scalar_values(self):
        assert capacity_from_gains([1e200], 1e200).rate_nats == pytest.approx(200.0 * math.log(10.0), rel=1e-15)
        # the level is 5e-301: half log(2e600) plus half log 2
        expected = math.log(2.0) + 300.0 * math.log(10.0)
        assert rdf_from_spectrum([1e300, 1e-300], 1e-300).rate_nats == pytest.approx(expected, rel=1e-15)

    def test_other_rows_of_a_batch_keep_their_bits(self):
        rng = np.random.default_rng(41)
        for d in (2, 3):
            spectra = rng.uniform(0.1, 3.0, (6, d))
            budgets = rng.uniform(0.05, 1.0, (6, 1)) * spectra.sum(axis=1, keepdims=True)
            far = np.array([[1e300] + [1e-300] * (d - 1)])
            alone = reverse_waterfill_rows(spectra, budgets)[2]
            mixed = reverse_waterfill_rows(np.vstack([spectra, far]), np.vstack([budgets, [[1e-300]]]))[2]
            assert mixed[:-1].tobytes() == alone.tobytes() and math.isfinite(mixed[-1])
            inverse = 1.0 / spectra
            alone = waterfill_rows(inverse, budgets)[2]
            mixed = waterfill_rows(np.vstack([inverse, 1.0 / far]), np.vstack([budgets, [[1e300]]]))[2]
            assert mixed[:-1].tobytes() == alone.tobytes() and math.isfinite(mixed[-1])


class TestSubnormalDistortion:
    """A distortion whose water level floor D/d is below the normal float
    range is rejected, naming the budget, before any waterfill."""

    def test_level_that_rounds_to_zero(self):
        # D/3 rounds to 0: the rate read inf, after a divide-by-zero warning
        with pytest.raises(ValueError, match="distortion 5e-324 is too small for 3 modes"):
            rdf_from_spectrum([1.0, 1.0, 1.0], 5e-324)

    def test_level_that_rounds_to_a_subnormal(self):
        # D/3 rounds to 5e-324: the rate read 1116.660 where it is 1117.268
        with pytest.raises(ValueError, match="distortion 1e-323 is too small for 3 modes"):
            rdf_from_spectrum([1.0, 1.0, 1.0], 1e-323)

    @pytest.mark.parametrize("call", [gaussian_rdf, reverse_waterfill, rdf_realization])
    def test_every_classical_entry_point(self, call):
        with pytest.raises(ValueError, match="distortion 1e-310 is too small for 3 modes"):
            call(SpdMatrix.identity(3), 1e-310)

    def test_the_floor_is_the_level_not_the_budget(self):
        # D = 3 min gives the level min; D = 2 min is normal, but D/3 is not
        distortion = 3.0 * sys.float_info.min
        rate = rdf_from_spectrum([1.0, 1.0, 1.0], distortion).rate_nats
        assert rate == pytest.approx(float(_mp_rdf([1.0, 1.0, 1.0], distortion)), rel=1e-14)
        with pytest.raises(ValueError, match="too small for 3 modes"):
            rdf_from_spectrum([1.0, 1.0, 1.0], 2.0 * sys.float_info.min)


class TestUnitScaleDistortion:
    """A distortion whose D/d is below the normal float range in the units of
    the data but normal at unit scale is waterfilled there, so the classical
    entry points give the CLI's and the r = 0 compound solve's answer."""

    @staticmethod
    def _cli_value(capsys, sigma, distortion):
        assert main(["rdf", "--sigma0-scalar", sigma, "--distortion", distortion]) == 0
        return float(capsys.readouterr().out.splitlines()[1].split(",")[2])

    def test_scalar_agrees_with_the_cli(self, capsys):
        cov = SpdMatrix([[1e-300]])
        value = self._cli_value(capsys, "1e-150", "1e-310")
        assert value == 11.51292546497023
        assert gaussian_rdf(cov, 1e-310) == value
        assert reverse_waterfill(cov, 1e-310).rate_nats == value
        assert rdf_from_spectrum([1e-300], 1e-310).rate_nats == value
        channel = rdf_realization(cov, 1e-310)
        assert channel.gain[0, 0] == pytest.approx(1.0 - 1e-10, rel=1e-15)
        assert channel.noise_cov.entries[0, 0] == pytest.approx(1e-310 * (1.0 - 1e-10), rel=1e-9)

    @pytest.mark.parametrize(
        "spectrum, distortion",
        [([3e-300, 1e-300, 2e-301], 1e-310), ([1e-290, 4e-300], 3e-309), ([2e-305, 2e-305, 1e-306, 5e-307], 5e-324)],
    )
    def test_agrees_with_the_compound_solve_at_r_0(self, spectrum, distortion):
        cov = SpdMatrix.from_diag(spectrum)
        solved = compound_rdf(CompoundRdfRequest(BwBall(cov, 0.0), distortion)).inner_allocation
        for alloc in (reverse_waterfill(cov, distortion), rdf_from_spectrum(spectrum, distortion)):
            assert alloc.rate_nats == solved.rate_nats
            assert alloc.level == solved.level
            assert np.array_equal(np.sort(alloc.per_mode), np.sort(solved.per_mode))
        assert gaussian_rdf(cov, distortion) == solved.rate_nats
        assert math.isfinite(solved.rate_nats) and solved.rate_nats > 0.0
        z = rdf_realization(cov, distortion).noise_cov
        assert np.all(np.isfinite(z.entries))

    def test_rate_against_mpmath(self):
        spectrum, distortion = [3e-300, 1e-300, 2e-301], 1e-310
        assert gaussian_rdf(SpdMatrix.from_diag(spectrum), distortion) == pytest.approx(
            float(_mp_rdf(spectrum, distortion)), rel=1e-14
        )

    def test_normal_budgets_are_waterfilled_as_given(self, monkeypatch):
        # the scaled path runs only where D/d is below the normal range
        cov = SpdMatrix.from_diag([3e-300, 1e-300, 2e-301])
        seen, core = [], classical._rdf_core
        monkeypatch.setattr(classical, "_rdf_core", lambda vals, d: seen.append((vals, d)) or core(vals, d))
        gaussian_rdf(cov, 3e-301)
        gaussian_rdf(cov, 1e-310)
        assert seen[0][0] is cov._eigvals and seen[0][1] == 3e-301
        assert seen[1][0] is not cov._eigvals and seen[1][1] > 1e-310

    @pytest.mark.parametrize("call", [gaussian_rdf, reverse_waterfill, rdf_realization])
    def test_below_the_range_at_unit_scale_too(self, call):
        with pytest.raises(ValueError, match="distortion 1e-310 is too small for 3 modes.*at unit scale"):
            call(SpdMatrix.from_diag([1e10, 1e10, 1e10]), 1e-310)


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

    def test_small_scale(self):
        # a noise far below 1 is not null: its floor is relative to its largest eigenvalue
        got = gaussian_mi(np.eye(1), SpdMatrix([[1e-11]]), SpdMatrix([[1e-13]]))
        assert got == pytest.approx(0.5 * math.log(101.0), rel=1e-12)
        cov = SpdMatrix([[1e-11]])
        channel = rdf_realization(cov, 1e-13)
        mi = gaussian_mi(channel.gain, cov, channel.noise_cov)
        assert mi == pytest.approx(math.log(10.0), rel=1e-12)
        assert mi == pytest.approx(gaussian_rdf(cov, 1e-13), rel=1e-12)

    def test_does_not_depend_on_units(self):
        # scaling (input, noise) by 4^k leaves the mutual information as it
        # is, with singular noises (the zero-rate modes of a realization) too
        rng = np.random.default_rng(62)
        for i in range(24):
            d = 1 + i % 4
            if i % 2:
                gain, cov, noise = rng.standard_normal((d, d)), random_spd(rng, d), random_spd(rng, d, floor=1e-3)
            else:
                cov = random_spd(rng, d)
                channel = rdf_realization(cov, float(rng.uniform(0.1, 1.2) * cov.trace))
                gain, noise = channel.gain, channel.noise_cov
            base = gaussian_mi(gain, cov, noise)
            for k in range(-100, 101, 5):
                scaled = (SpdMatrix(np.ldexp(m.entries, 2 * k)) for m in (cov, noise))
                assert abs(gaussian_mi(gain, *scaled) - base) <= 1e-12 * abs(base)


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

    def test_input_cov_is_built_from_the_waterfilled_spectrum(self):
        rng = np.random.default_rng(27)
        for i in range(60):
            d = int(rng.integers(1, 5))
            noise = random_spd(rng, d)
            h = rng.standard_normal((d, d))
            if i % 3 == 0:  # rank one: dead modes carry no power
                h = h[:, :1] @ h[:1]
            power = float(rng.uniform(0.0, 4.0))
            _, input_cov, alloc = gaussian_capacity(h, noise, power)
            assert np.array_equal(input_cov._eigvals, alloc.per_mode)
            computed = np.linalg.eigvalsh(input_cov.entries)[::-1]
            assert np.abs(input_cov._eigvals - computed).max() <= 1e-12 * max(1.0, power)
            assert input_cov.trace <= power + 1e-9
            assert "_eigvecs" not in vars(input_cov)

    def test_cholesky_whitening_matches_eigen_whitening(self):
        # L^{-1} H and W^{-1/2} H differ by an orthogonal factor on the left.
        # The singular noises keep exact null axes carrying only the jitter,
        # which the reference whitens apart from the rest (along a rotated
        # null direction both factorizations read the jitter only to
        # eps ||W||, about 1e-4 relative). Below the jittered gains the SVD
        # resolves the others only to eps times the largest singular value,
        # so those noises are held to that normwise bound.
        rng = np.random.default_rng(27)
        for d in range(1, 7):
            for n_null in sorted({0, d // 2}):
                g = rng.standard_normal((d, d))
                noise = g @ g.T + 0.1 * np.eye(d)
                null, live = np.split(rng.permutation(d), [n_null])
                noise[null, :], noise[:, null] = 0.0, 0.0
                if n_null:  # the jitter _ensure_positive_definite adds
                    noise += 1e-12 * np.trace(noise) / d * np.eye(d)
                inv_half = np.zeros((d, d))
                vals, vecs = np.linalg.eigh(noise[np.ix_(live, live)])
                inv_half[np.ix_(live, live)] = (vecs / np.sqrt(vals)) @ vecs.T
                inv_half[null, null] = 1.0 / np.sqrt(noise[null, null])
                h = rng.standard_normal((d, d))
                reference = np.linalg.svd(inv_half @ h, compute_uv=False) ** 2
                gains = classical._whitened_gains(h, noise)[0]
                if n_null == 0:
                    assert np.allclose(gains, reference, rtol=1e-12, atol=0.0)
                else:
                    top = math.sqrt(reference[0])
                    assert np.allclose(np.sqrt(gains), np.sqrt(reference), rtol=0.0, atol=1e-12 * top)

    def test_subnormal_noise(self):
        # the whitened gain 1/variance overflows below about 1e-308
        assert gaussian_capacity(np.eye(1), SpdMatrix([[1e-300]]), 1.0).rate_nats == 345.38776394910684
        assert gaussian_capacity(np.eye(1), SpdMatrix([[1e-308]]), 1.0).rate_nats == 354.59810432108304
        with pytest.raises(ValueError, match="gain is not finite"):
            gaussian_capacity(np.eye(1), SpdMatrix([[1e-310]]), 1.0)

    def test_whitened_gain_at_the_edge_of_the_float_range(self):
        # the largest singular value whose square is finite passes, the next float fails
        edge = math.sqrt(sys.float_info.max)
        assert classical._whitened_gains(np.array([[edge]]), np.eye(1))[0][0] == edge * edge
        with pytest.raises(ValueError, match="gain is not finite"):
            classical._whitened_gains(np.array([[math.nextafter(edge, math.inf)]]), np.eye(1))

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


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: rdf_from_spectrum([-1.0, 1.0], 0.5), "eigenvalues must be"),
        (lambda: rdf_from_spectrum([math.nan, 1.0], 0.5), "eigenvalues must be"),
        (lambda: rdf_from_spectrum([], 0.5), "eigenvalues must be"),
        (lambda: rdf_from_spectrum([[1.0, 2.0]], 0.5), "eigenvalues must be"),
        (lambda: capacity_from_gains([math.nan, 1.0], 1.0), "gains must be"),
        (lambda: capacity_from_gains([math.inf, 1.0], 1.0), "gains must be"),
        (lambda: capacity_from_gains([-0.5, 1.0], 1.0), "gains must be"),
        (lambda: gaussian_mi([[math.nan]], SpdMatrix.identity(1), SpdMatrix.identity(1)), "gain must be"),
        (lambda: gaussian_mi(np.eye(2), SpdMatrix.identity(1), SpdMatrix.identity(2)), "gain must be"),
        (lambda: gaussian_capacity([[math.nan, 0.0], [0.0, 1.0]], SpdMatrix.identity(2), 1.0), "finite"),
        (lambda: gaussian_capacity(np.zeros((2, 3)), SpdMatrix.identity(2), 1.0), "nonempty square"),
    ],
    ids=[
        "rdf_negative",
        "rdf_nan",
        "rdf_empty",
        "rdf_not_1d",
        "gains_nan",
        "gains_inf",
        "gains_negative",
        "mi_gain_nan",
        "mi_gain_shape",
        "capacity_channel_nan",
        "capacity_channel_not_square",
    ],
)
def test_classical_entry_points_reject_bad_vectors(call, message):
    with pytest.raises(ValueError, match=message):
        call()


RAW_CHANNELS = {
    "not_square": (np.zeros((2, 3)), "entries must be a nonempty square matrix"),
    "empty": (np.zeros((0, 0)), "entries must be a nonempty square matrix"),
    "one_dimensional": (np.ones(2), "entries must be a nonempty square matrix"),
    "nan": (np.array([[1.0, math.nan], [0.0, 1.0]]), "entries must be finite"),
    "inf": (np.array([[1.0, 0.0], [-math.inf, 1.0]]), "entries must be finite"),
}


@pytest.mark.parametrize("name", list(RAW_CHANNELS))
def test_raw_channel_rejected_with_the_channel_matrix_message(name):
    h, message = RAW_CHANNELS[name]
    with pytest.raises(ValueError) as wrapped:
        ChannelMatrix(h)
    assert str(wrapped.value) == message
    with pytest.raises(ValueError) as raw:
        gaussian_capacity(h, SpdMatrix.identity(2), 1.0)
    assert str(raw.value) == message


def test_raw_channel_is_read_in_place_and_left_as_given():
    rng = np.random.default_rng(26)
    h = rng.standard_normal((3, 3))
    before = h.copy()
    noise = random_spd(rng, 3)
    raw = gaussian_capacity(h, noise, 2.0)
    wrapped = gaussian_capacity(ChannelMatrix(h), noise, 2.0)
    assert np.array_equal(h, before) and h.flags.writeable
    assert raw.rate_nats == wrapped.rate_nats
    assert np.array_equal(raw.input_cov.entries, wrapped.input_cov.entries)
    listed = gaussian_capacity(h.tolist(), noise, 2.0)
    assert listed.rate_nats == raw.rate_nats


def test_capacity_shares_one_read_only_per_mode():
    rng = np.random.default_rng(27)
    for d in (1, 3, 8):
        result = gaussian_capacity(rng.standard_normal((d, d)), random_spd(rng, d), 1.5)
        per_mode = result.allocation.per_mode
        assert result.input_cov._eigvals is per_mode
        assert not per_mode.flags.writeable
        with pytest.raises(ValueError):
            per_mode[0] = 1.0
        assert result.rate_nats == result.allocation.rate_nats


def _lean_path_cases():
    """Seeded (noise or source covariance, channel) pairs: d = 1..8 positive
    definite, a rank-deficient W that gaussian_capacity jitters, and a zero
    channel, whose modes are all dead."""
    rng = np.random.default_rng(2121)
    for d in range(1, 9):
        yield random_spd(rng, d), rng.standard_normal((d, d))
    g = rng.standard_normal((4, 2))
    yield SpdMatrix(g @ g.T), rng.standard_normal((4, 4))
    yield random_spd(rng, 3), np.zeros((3, 3))


@pytest.mark.parametrize("cov, h", list(_lean_path_cases()))
def test_lean_classical_paths_equal_the_validated_ones(cov, h):
    vals, vecs = symmetric_eig(cov)
    for distortion in (0.05 * cov.trace, 0.5 * cov.trace, 2.0 * cov.trace):
        checked = rdf_from_spectrum(vals, distortion)
        alloc = reverse_waterfill(cov, distortion)
        assert gaussian_rdf(cov, distortion) == alloc.rate_nats == checked.rate_nats
        assert alloc.level == checked.level
        assert np.array_equal(alloc.per_mode, checked.per_mode)
        with np.errstate(divide="ignore", invalid="ignore"):
            gains = np.where(vals > 0.0, 1.0 - checked.per_mode / np.maximum(vals, 1e-300), 0.0)
        gains = np.maximum(gains, 0.0)
        assert np.array_equal(rdf_realization(cov, distortion).gain, (vecs * gains) @ vecs.T)
    noise = classical._ensure_positive_definite(cov)[0].entries
    whitened = classical._whitened_gains(h, noise)[0]
    for power in (0.0, 0.5, 3.0):
        got = gaussian_capacity(h, cov, power)
        checked = capacity_from_gains(whitened, power)
        assert got.rate_nats == got.allocation.rate_nats == checked.rate_nats
        assert got.allocation.level == checked.level
        assert np.array_equal(got.allocation.per_mode, checked.per_mode)
        assert np.array_equal(got.input_cov._eigvals, checked.per_mode)


def test_capacity_checks_the_gains_before_the_power():
    # a subnormal noise variance fails whitening, which runs before the power check
    with pytest.raises(ValueError, match="gain is not finite"):
        gaussian_capacity(np.eye(1), SpdMatrix([[1e-310]]), -1.0)
    with pytest.raises(ValueError, match="power must be nonnegative"):
        gaussian_capacity(np.eye(1), SpdMatrix([[1.0]]), -1.0)


def _rotation(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def _rotated(rng, singular_values):
    d = len(singular_values)
    return (_rotation(rng, d) * np.asarray(singular_values, dtype=float)) @ _rotation(rng, d).T


class TestGramWhitenedGains:
    def test_gains_match_the_svd_where_they_spread_little(self):
        # noise spectrum in [1/4, 4] and channel singular values in [1, 10],
        # gains spread within the Gram route's cut of 1e3: the Gram product's
        # eigenvalues are within 1e-12 of the SVD's gains
        rng = np.random.default_rng(30)
        for k in range(200):
            d = 2 + k % 31
            g = _rotated(rng, np.exp(rng.uniform(math.log(0.5), math.log(2.0), d)))
            noise, h = g @ g.T, _rotated(rng, np.exp(rng.uniform(0.0, math.log(10.0), d)))
            gains, u, chol = classical._gram_whitened_gains(h, noise)
            svd_gains, _, _, svd_chol = classical._whitened_gains(h, noise)
            assert svd_gains[-1] >= 1e-3 * svd_gains[0]
            assert np.array_equal(chol, svd_chol)
            assert np.all(np.abs(gains - svd_gains) <= 1e-12 * svd_gains)
            # U diagonalizes the whitened Gram product, columns in the order of the gains
            a = np.linalg.solve(chol, h)
            assert np.allclose(u.T @ a @ a.T @ u, np.diag(gains), rtol=0.0, atol=1e-12 * gains[0])

    @pytest.mark.parametrize(
        "case", ["spread 2e3", "spread 1e6", "rank one", "jittered singular noise", "dead channel", "edge"]
    )
    def test_widely_spread_gains_are_the_svds_bit_for_bit(self, case):
        rng = np.random.default_rng(31)
        noise = np.eye(3)
        if case == "spread 2e3":  # just beyond the Gram route's cut
            h, noise = _rotated(rng, [1.0, math.sqrt(2e3)]), np.eye(2)
        elif case == "spread 1e6":  # singular values {1, 1e-3}
            h, noise = _rotated(rng, [1.0, 1e-3]), np.eye(2)
        elif case == "rank one":
            h = rng.standard_normal((3, 1)) @ rng.standard_normal((1, 3))
        elif case == "jittered singular noise":
            noise = classical._ensure_positive_definite(SpdMatrix.from_diag([0.0, 1.0, 2.0]))[0].entries
            h = _rotated(rng, [2.0, 1.0, 0.5])
        elif case == "dead channel":
            h = np.zeros((3, 3))
        else:  # the largest singular value whose square is finite
            h, noise = np.array([[math.sqrt(sys.float_info.max)]]), np.eye(1)
        gains, u, chol = classical._gram_whitened_gains(h, noise)
        svd_gains, _, svd_u, svd_chol = classical._whitened_gains(h, noise)
        assert gains.tobytes() == svd_gains.tobytes()
        assert u.tobytes() == svd_u.tobytes() and chol.tobytes() == svd_chol.tobytes()

    @pytest.mark.parametrize(
        "h, noise",
        [
            (np.eye(1), np.array([[1e-310]])),  # a subnormal noise variance
            (np.array([[math.nextafter(math.sqrt(sys.float_info.max), math.inf)]]), np.eye(1)),
            (np.array([[1e200, 1.0], [0.0, 1.0]]), np.eye(2)),  # the Gram product would overflow
        ],
    )
    def test_gains_that_are_not_finite_raise_the_svds_error(self, h, noise):
        # raised by the SVD route, without an overflow warning from the Gram product
        with pytest.raises(ValueError, match="whitened channel gain is not finite"):
            classical._gram_whitened_gains(h, noise)

    @pytest.mark.parametrize("spread", [9e2, 9e3])
    def test_gains_match_mpmath_up_to_a_spread_of_9e3(self, spread):
        # the Gram route squares the condition number, so it is cut at a
        # spread of 1e3: just below the cut, and with the SVD above it, every
        # gain holds 1e-12 relative against 40-digit values
        rng = np.random.default_rng(32)
        for d in (8, 16, 8, 16, 8, 16):
            h = _rotated(rng, np.sqrt(np.geomspace(1.0, spread, d)))
            gains = classical._gram_whitened_gains(h, np.eye(d))[0]
            assert (gains[-1] >= classical._GRAM_SPREAD * gains[0]) == (spread < 1e3)  # the Gram route
            with mpmath.workdps(40):
                singular = mpmath.svd_r(mpmath.matrix(h.tolist()), compute_uv=False)
                reference = np.array(sorted((float(s * s) for s in singular), reverse=True))
            assert np.all(np.abs(gains - reference) <= 1e-12 * reference)
