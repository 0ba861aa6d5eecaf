import math

import numpy as np
import pytest

from robust_shannon import (
    GaussianLaw,
    SampleCloud,
    SpdMatrix,
    TooLargeForExact,
    brute_force_compound,
    check_gelbrich,
    compound_rdf_scalar,
    empirical_w2,
    gaussian_capacity,
    gaussian_rdf,
    gaussian_w2,
    sample_gaussian,
)
from robust_shannon.classical import reverse_waterfill_rows, waterfill_rows

HALF_LOG_225 = 0.4054651081081644


def random_law(rng, d):
    g = rng.standard_normal((d, d))
    return GaussianLaw(rng.standard_normal(d), SpdMatrix(g @ g.T + 0.2 * np.eye(d)))


class TestSampleGaussian:
    def test_zero_cov_collapses_to_mean(self):
        law = GaussianLaw([2.0, -1.0], SpdMatrix(np.zeros((2, 2))))
        cloud = sample_gaussian(law, 5, 0)
        assert np.allclose(cloud.points, [2.0, -1.0])

    def test_deterministic_per_seed(self):
        law = GaussianLaw([0.0], SpdMatrix.from_diag([1.0]))
        a = sample_gaussian(law, 100, 7)
        b = sample_gaussian(law, 100, 7)
        assert np.array_equal(a.points, b.points)
        c = sample_gaussian(law, 100, 8)
        assert not np.array_equal(a.points, c.points)

    def test_sample_covariance_converges(self):
        law = GaussianLaw([0.0, 0.0], SpdMatrix.identity(2))
        cloud = sample_gaussian(law, 10_000, 7)
        sample_cov = np.cov(cloud.points.T, bias=True)
        assert np.linalg.norm(sample_cov - np.eye(2)) <= 0.1

    def test_rejects_empty(self):
        law = GaussianLaw([0.0], SpdMatrix.from_diag([1.0]))
        with pytest.raises(ValueError):
            sample_gaussian(law, 0, 0)


class TestEmpiricalW2:
    def test_identical_clouds(self):
        cloud = SampleCloud(np.array([[0.0, 1.0], [2.0, 3.0]]), 0)
        assert empirical_w2(cloud, cloud) == 0.0

    def test_singletons(self):
        a = SampleCloud(np.array([[0.0, 0.0]]), 0)
        b = SampleCloud(np.array([[3.0, 4.0]]), 0)
        assert empirical_w2(a, b) == pytest.approx(5.0, abs=1e-12)

    def test_matches_permutation_enumeration(self):
        # {0, 1} vs {10, 11}: identity matching wins with cost 10
        a = SampleCloud(np.array([[0.0], [1.0]]), 0)
        b = SampleCloud(np.array([[10.0], [11.0]]), 0)
        assert empirical_w2(a, b) == pytest.approx(10.0, abs=1e-12)

    def test_permuted_cloud_is_zero(self):
        rng = np.random.default_rng(40)
        points = rng.standard_normal((32, 3))
        a = SampleCloud(points, 0)
        b = SampleCloud(points[rng.permutation(32)], 0)
        assert empirical_w2(a, b) == 0.0

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(41)
        clouds = [SampleCloud(rng.standard_normal((16, 2)), 0) for _ in range(3)]
        ab = empirical_w2(clouds[0], clouds[1])
        ba = empirical_w2(clouds[1], clouds[0])
        assert ab == ba
        ac = empirical_w2(clouds[0], clouds[2])
        bc = empirical_w2(clouds[1], clouds[2])
        assert ac <= ab + bc + 1e-9

    def test_size_and_dim_mismatch(self):
        a = SampleCloud(np.zeros((2, 1)), 0)
        with pytest.raises(ValueError):
            empirical_w2(a, SampleCloud(np.zeros((3, 1)), 0))
        with pytest.raises(ValueError):
            empirical_w2(a, SampleCloud(np.zeros((2, 2)), 0))

    def test_too_large_for_exact(self):
        big = SampleCloud(np.zeros((513, 1)), 0)
        with pytest.raises(TooLargeForExact):
            empirical_w2(big, big)


class TestCheckGelbrich:
    def test_identical_laws(self):
        law = GaussianLaw([0.0, 0.0], SpdMatrix.identity(2))
        report = check_gelbrich(law, law, 128, 3)
        assert report.gelbrich_closed_form == 0.0
        assert report.empirical < 0.5
        assert report.lower_bound_ok

    def test_scalar_variance_gap(self):
        p = GaussianLaw([0.0], SpdMatrix.from_diag([1.0]))
        q = GaussianLaw([0.0], SpdMatrix.from_diag([4.0]))
        assert gaussian_w2(p, q) == pytest.approx(1.0, abs=1e-12)
        for seed in range(20):
            report = check_gelbrich(p, q, 512, seed)
            assert report.lower_bound_ok
            assert abs(report.empirical - 1.0) <= 0.15

    def test_pure_mean_shift(self):
        p = GaussianLaw([0.0, 0.0], SpdMatrix.identity(2))
        q = GaussianLaw([3.0, 0.0], SpdMatrix.identity(2))
        report = check_gelbrich(p, q, 256, 11)
        assert report.gelbrich_closed_form == pytest.approx(3.0, abs=1e-12)
        assert report.lower_bound_ok

    def test_median_error_shrinks_as_n_doubles(self):
        rng = np.random.default_rng(7)
        for pair_idx in range(3):
            d = int(rng.integers(1, 4))
            p, q = random_law(rng, d), random_law(rng, d)
            closed = gaussian_w2(p, q)
            medians = []
            for n in (64, 128, 256, 512):
                errors = sorted(
                    abs(check_gelbrich(p, q, n, 900 + pair_idx * 1000 + s).empirical - closed)
                    for s in range(20)
                )
                medians.append(0.5 * (errors[9] + errors[10]))
            assert all(medians[i + 1] <= medians[i] + 1e-12 for i in range(3))


class TestBruteForceCompound:
    def test_zero_radius_equals_classical(self):
        center = SpdMatrix.from_diag([1.0, 4.0])
        got = brute_force_compound("rdf", center, 0.0, 1.0, 1e-3)
        assert got == pytest.approx(gaussian_rdf(center, 1.0), abs=1e-12)
        got = brute_force_compound("capacity", center, 0.0, 2.0, 1e-3)
        expected = gaussian_capacity(np.eye(2), center, 2.0).rate_nats
        assert got == pytest.approx(expected, abs=1e-12)

    def test_scalar_closed_form(self):
        got = brute_force_compound("rdf", SpdMatrix.from_diag([1.0]), 0.5, 1.0, 1e-3)
        assert got == pytest.approx(HALF_LOG_225, abs=2e-3)
        assert got <= compound_rdf_scalar(1.0, 0.5, 1.0) + 1e-12

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            brute_force_compound("rdf", SpdMatrix.identity(4), 0.1, 1.0, 1e-2)
        with pytest.raises(ValueError):
            brute_force_compound("rdf", SpdMatrix([[1.0, 0.5], [0.5, 1.0]]), 0.1, 1.0, 1e-2)
        with pytest.raises(ValueError):
            brute_force_compound("both", SpdMatrix.identity(2), 0.1, 1.0, 1e-2)
        with pytest.raises(ValueError):
            brute_force_compound("rdf", SpdMatrix.identity(2), 0.1, -1.0, 1e-2)
        with pytest.raises(ValueError):
            brute_force_compound("rdf", SpdMatrix.identity(2), 0.1, 1.0, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_radius_or_step(self, bad):
        with pytest.raises(ValueError, match="finite"):
            brute_force_compound("rdf", SpdMatrix.identity(2), bad, 1.0, 1e-2)
        with pytest.raises(ValueError, match="finite"):
            brute_force_compound("rdf", SpdMatrix.identity(2), 0.1, 1.0, bad)


class TestGridEvaluators:
    """The batched waterfills the grid oracle uses must match the single-shot route."""

    def test_rdf_rates_match_classical(self):
        rng = np.random.default_rng(42)
        spectra = rng.uniform(0.0, 5.0, size=(200, 3))
        for distortion in (0.05, 0.7, 2.0, 12.0):
            batch = reverse_waterfill_rows(spectra, distortion)[2]
            for row, rate in zip(spectra, batch):
                expected = gaussian_rdf(SpdMatrix.from_diag(row), distortion)
                assert rate == pytest.approx(expected, abs=1e-12)

    def test_capacity_rates_match_classical(self):
        rng = np.random.default_rng(43)
        spectra = rng.uniform(0.05, 5.0, size=(200, 3))
        for power in (0.0, 0.4, 2.0, 9.0):
            batch = waterfill_rows(spectra, power)[2]
            for row, rate in zip(spectra, batch):
                expected = gaussian_capacity(np.eye(3), SpdMatrix.from_diag(row), power).rate_nats
                assert rate == pytest.approx(expected, abs=1e-12)
