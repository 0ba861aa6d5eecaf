import math
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from robust_shannon import (
    BwBall,
    ChannelMatrix,
    CompoundCapacityRequest,
    CompoundRdfRequest,
    GaussianLaw,
    SampleCloud,
    SpdMatrix,
    TooLargeForExact,
    brute_force_compound,
    check_gelbrich,
    compound_capacity,
    compound_rdf,
    compound_rdf_scalar,
    empirical_w2,
    gaussian_capacity,
    gaussian_rdf,
    gaussian_w2,
    random_psd_in_ball,
    sample_gaussian,
)
from robust_shannon import oracle
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

    @pytest.mark.parametrize("n", [2.5, None, math.nan, 3.0, "3", [3], -1])
    def test_rejects_a_count_that_is_not_a_positive_integer(self, n):
        # 2.5, None and NaN raised TypeError from inside numpy
        law = GaussianLaw([0.0], SpdMatrix.from_diag([1.0]))
        with pytest.raises(ValueError, match="n must be an integer of at least 1"):
            sample_gaussian(law, n, 0)

    def test_takes_any_integer_count(self):
        law = GaussianLaw([0.0], SpdMatrix.from_diag([1.0]))
        assert sample_gaussian(law, np.int64(5), 3).points.tobytes() == sample_gaussian(law, 5, 3).points.tobytes()


class TestEmpiricalW2:
    def test_identical_clouds(self):
        cloud = SampleCloud(np.array([[0.0, 1.0], [2.0, 3.0]]), 0)
        assert empirical_w2(cloud, cloud) == 0.0

    def test_singletons(self):
        a = SampleCloud(np.array([[0.0, 0.0]]), 0)
        b = SampleCloud(np.array([[3.0, 4.0]]), 0)
        assert empirical_w2(a, b) == pytest.approx(5.0, abs=1e-12)

    def test_assignment_goes_through_the_module_function(self, monkeypatch):
        # oracle.linear_sum_assignment is the one name to wrap or replace
        costs = []
        monkeypatch.setattr(oracle, "linear_sum_assignment",
                            lambda cost: costs.append(cost) or linear_sum_assignment(cost))
        rng = np.random.default_rng(4)
        a, b = (SampleCloud(rng.standard_normal((6, 2)), 0) for _ in range(2))
        assert empirical_w2(a, b) > 0.0
        assert len(costs) == 1 and costs[0].shape == (6, 6)

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

    @pytest.mark.parametrize("n", [1, 2, 511, 512])
    def test_one_dimension_sorting_matches_assignment(self, n):
        rng = np.random.default_rng(42 + n)
        for ties in (False, True):
            a, b = rng.standard_normal((2, n, 1))
            if ties:  # repeated values inside each cloud and shared between them
                a = np.round(a, 1)
                b = np.concatenate([a[: n // 2], np.round(b[n // 2 :], 1)])
            cost = (a - b.T) ** 2
            rows, cols = linear_sum_assignment(cost)
            expected = math.sqrt(float(cost[rows, cols].mean()))
            got = empirical_w2(SampleCloud(a, 0), SampleCloud(b, 0))
            assert abs(got - expected) <= 1e-12 * max(expected, 1e-300)


def exactness_clouds(kind, n, d, rng):
    """A pair of n x d clouds of the given kind for the exactness battery."""
    x, y = rng.standard_normal((2, n, d)) @ rng.standard_normal((2, d, d))
    y += rng.standard_normal(d)
    if kind == "equal_points":  # one cloud a single repeated point, or both the same one
        x[:] = x[0]
        if n % 2:
            y[:] = x[0]
    elif kind == "rank_one":  # both clouds on lines, sharing a direction when n is odd
        x = np.outer(rng.standard_normal(n), rng.standard_normal(d))
        y = np.outer(rng.standard_normal(n), x[0] if n % 2 else rng.standard_normal(d)) + 1.0
    elif kind == "integer_ties":  # repeated points inside each cloud and shared between them
        x, y = np.round(x), np.round(y)
        y[: n // 2] = x[: n // 2]
    elif kind == "axis_scales":  # axes spread over 1e-6..1e6, or one common scale in that range
        scales = np.logspace(-6, 6, d) if n % 2 else np.full(d, 10.0 ** rng.uniform(-6, 6))
        x, y = x * scales, y * rng.permutation(scales)
    elif kind == "offsets":
        x, y = x + 1e8 * rng.choice([-1.0, 1.0], d), y + 1e8 * rng.choice([-1.0, 1.0], d)
    elif kind == "permuted_copy":
        spread = 3 if n % 2 else 1
        x = x * np.logspace(-spread, spread, d) + 1e4
        y = x[rng.permutation(n)]
    elif kind == "full_against_rank_one":  # a full-rank fit of x, so the map A has the rank of y's, one
        y = np.outer(rng.standard_normal(n), rng.standard_normal(d)) + 1.0
    return x, y


class TestEmpiricalW2Exactness:
    """The moment-matched assignment returns the raw squared-distance optimum."""

    KINDS = (
        "gaussian", "equal_points", "rank_one", "integer_ties",
        "axis_scales", "offsets", "permuted_copy", "full_against_rank_one",
    )

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_assignment_on_raw_cost(self, kind, d):
        rng = np.random.default_rng(1000 * d + self.KINDS.index(kind))
        for n in sorted({1, 2, 3, d, d + 1, 33, 512}):
            x, y = exactness_clouds(kind, n, d, rng)
            diff = x[:, None, :] - y[None, :, :]
            cost = np.einsum("ijk,ijk->ij", diff, diff)
            rows, cols = linear_sum_assignment(cost)
            expected = math.sqrt(float(cost[rows, cols].mean()))
            got = empirical_w2(SampleCloud(x, 0), SampleCloud(y, 0))
            if expected == 0.0:
                assert got == 0.0, (n, got)
            else:
                assert abs(got - expected) <= 1e-12 * expected, (n, got, expected)


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

    @pytest.mark.parametrize("step", [None, [1e-2], "x", 10**400], ids=["none", "list", "text", "int_beyond_float_range"])
    def test_step_float_cannot_read_is_a_value_error(self, step):
        # they raised TypeError or OverflowError
        with pytest.raises(ValueError, match="grid_step must be positive and finite"):
            brute_force_compound("rdf", SpdMatrix.identity(2), 0.1, 1.0, step)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_radius_or_step(self, bad):
        with pytest.raises(ValueError, match="radius must be a finite nonnegative real"):
            brute_force_compound("rdf", SpdMatrix.identity(2), bad, 1.0, 1e-2)
        with pytest.raises(ValueError, match="finite"):
            brute_force_compound("rdf", SpdMatrix.identity(2), 0.1, 1.0, bad)


def full_grid_extremum(kind, center, r, budget, step):
    """The grid oracle's extremum over every grid point in the ball, not only its frontier."""
    s = np.sqrt(np.diag(center.entries))
    axes = [np.arange(max(0.0, si - r), si + r + 0.5 * step, step) for si in s]
    u = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    spectra = u[np.linalg.norm(u - s, axis=1) <= r * (1.0 + 1e-12) + 1e-15] ** 2
    if kind == "rdf":
        return float(reverse_waterfill_rows(spectra, budget)[2].max())
    with np.errstate(divide="ignore"):
        return float(waterfill_rows(spectra, budget)[2].min())


class TestGridFrontier:
    """The frontier scan returns the extremum of the whole grid."""

    @pytest.mark.parametrize("kind", ["rdf", "capacity"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_full_grid(self, kind, d):
        rng = np.random.default_rng(70 + 10 * d + (kind == "rdf"))
        half_width = {1: 2000, 2: 150, 3: 30}[d]  # grid points from the center to the box's edge
        for case in range(24):
            lam = rng.uniform(0.0, 2.0, d)
            if case % 3 == 0:
                lam[rng.integers(d)] = 0.0
            if case % 4 == 0:
                r = 0.0
            elif case % 4 == 1:  # the box is clipped at 0 on every axis
                r = 1.5 * math.sqrt(lam.max()) + 0.05
            else:
                r = float(rng.uniform(0.05, 0.8))
            step = max(r, 0.1) / half_width
            center = SpdMatrix.from_diag(lam)
            budget = float(rng.uniform(0.1, 1.0) * (lam.sum() if kind == "rdf" else 3.0))
            budget = max(budget, 0.05)
            got = brute_force_compound(kind, center, r, budget, step)
            expected = full_grid_extremum(kind, center, r, budget, step)
            if math.isinf(expected):
                assert got == expected, (lam, r, got)
            else:
                assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected)), (lam, r, got, expected)

    def test_memory_grows_with_lines_not_grid(self):
        center = SpdMatrix.from_diag([1.0, 2.0])
        tracemalloc.start()
        try:
            brute_force_compound("rdf", center, 0.25, 1.2, 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, peak


class TestSamplerDominanceChecks:
    """Row-scored draws give the extrema of a per-draw classical loop."""

    @pytest.mark.parametrize("seed", [0, 3, 17, 2121])
    def test_matches_per_draw_loop(self, monkeypatch, seed):
        scored = {}

        def recording(name, waterfill):
            def call(*args):
                result = waterfill(*args)
                scored[name] = result[2]
                return result
            return call

        monkeypatch.setattr(oracle, "reverse_waterfill_rows",
                            recording("rdf", reverse_waterfill_rows))
        monkeypatch.setattr(oracle, "waterfill_rows", recording("capacity", waterfill_rows))
        draws = 50
        lines = list(oracle.sampler_dominance_checks(seed, draws))

        rng = np.random.default_rng(seed)
        g = rng.standard_normal((2, 2))
        ball = BwBall(SpdMatrix(g @ g.T + 0.5 * np.eye(2)), 0.4)
        rdf_value = compound_rdf(CompoundRdfRequest(ball, 0.8)).value_nats
        cap_value = compound_capacity(
            CompoundCapacityRequest(ball, ChannelMatrix(np.eye(2)), 2.0)
        ).value_nats
        rdf, cap = [], []
        for k in range(draws):
            draw = random_psd_in_ball(ball, seed + 10_000 + k)
            rdf.append(gaussian_rdf(draw, 0.8))
            cap.append(gaussian_capacity(np.eye(2), draw, 2.0).rate_nats)
        assert scored["rdf"].shape == scored["capacity"].shape == (draws,)
        assert abs(scored["rdf"].max() - max(rdf)) <= 1e-12
        assert abs(scored["capacity"].min() - min(cap)) <= 1e-12
        assert lines == [
            (f"dominance rdf compound={rdf_value:.6g} max_draw={max(rdf):.6g}",
             max(rdf) <= rdf_value + 1e-6),
            (f"dominance capacity compound={cap_value:.6g} min_draw={min(cap):.6g}",
             min(cap) >= cap_value - 1e-6),
        ]


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


def _no_sampling(*args):
    raise AssertionError("sampled before the size check")


UNIT_LAW = GaussianLaw([0.0], SpdMatrix.identity(1))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: SampleCloud(np.zeros((0, 2)), 0), ValueError, "nonempty"),
        (lambda: SampleCloud([[0.0, math.nan]], 0), ValueError, "points must be finite"),
        (lambda: check_gelbrich(UNIT_LAW, UNIT_LAW, 513, 0), TooLargeForExact, "513 points"),
    ],
    ids=["empty_cloud", "non_finite_cloud", "gelbrich_too_large"],
)
def test_rejects_malformed_input(monkeypatch, call, error, message):
    monkeypatch.setattr(oracle, "sample_gaussian", _no_sampling)
    with pytest.raises(error, match=message):
        call()


def _w2_on_zeros_and_add_cost(a, b):
    """``empirical_w2`` for d >= 2 with the cost summed into a zero matrix, one axis at a time."""
    x = a.points - a.points.mean(axis=0)
    y = b.points - b.points.mean(axis=0)
    axes, scale = oracle._brenier_axes(x, y)
    x = (x @ axes) * scale
    y = (y @ axes) / scale
    cost = np.zeros((a.size, b.size))
    step = np.empty_like(cost)
    for k in range(a.dim):
        np.subtract.outer(x[:, k], y[:, k], out=step)
        step *= step
        cost += step
    cost -= cost.min(axis=0)
    cost -= cost.min(axis=1)[:, None]
    rows, cols = linear_sum_assignment(cost)
    gaps = a.points[rows] - b.points[cols]
    return math.sqrt(float(np.einsum("ij,ij->i", gaps, gaps).mean()))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_empirical_w2_equals_the_zeros_and_add_cost(d):
    rng = np.random.default_rng(40 + d)
    for n in (8, 16, 64, 128, 512):
        p, q = random_law(rng, d), random_law(rng, d)
        a, b = sample_gaussian(p, n, 2 * n), sample_gaussian(q, n, 2 * n + 1)
        assert empirical_w2(a, b) == _w2_on_zeros_and_add_cost(a, b)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_empirical_w2_equals_the_zeros_and_add_cost_on_means_3_apart(d):
    # the Gelbrich checks' pairs: spectra in [0.5, 2], means 3 apart, n = 512
    rng = np.random.default_rng(70 + d)
    for k in range(4):
        laws = []
        mean = rng.standard_normal(d)
        direction = rng.standard_normal(d)
        for m in (mean, mean + 3.0 * direction / np.linalg.norm(direction)):
            q, r = np.linalg.qr(rng.standard_normal((d, d)))
            q *= np.sign(np.diag(r))
            cov = (q * np.exp(rng.uniform(math.log(0.5), math.log(2.0), d))) @ q.T
            laws.append(GaussianLaw(m, SpdMatrix(cov)))
        a, b = sample_gaussian(laws[0], 512, 100 + k), sample_gaussian(laws[1], 512, 200 + k)
        assert empirical_w2(a, b) == _w2_on_zeros_and_add_cost(a, b)
