import math

import numpy as np
import pytest

from robust_shannon import (
    BwBall,
    GaussianLaw,
    SingularCenter,
    SpdMatrix,
    bw_ball_project,
    bw_distance,
    bw_geodesic_point,
    gaussian_w2,
    matrix_sqrt,
    random_psd_in_ball,
    symmetric_eig,
    transport_map,
)
from robust_shannon import psd_geometry

SQRT2 = 1.4142135623730951
SQRT3 = 1.7320508075688772


def random_spd(rng, d, floor=0.1):
    g = rng.standard_normal((d, d))
    return SpdMatrix(g @ g.T + floor * np.eye(d))


def test_construction_symmetrizes_exactly():
    m = SpdMatrix([[2.0, 1.0 + 1e-12], [1.0, 2.0]])
    assert np.array_equal(m.entries, m.entries.T)


def test_construction_clamps_roundoff_negatives():
    # eigenvalues (1, -1e-12): inside the tolerance band, clamped to zero
    m = SpdMatrix([[1.0, 0.0], [0.0, -1e-12]])
    vals, _ = symmetric_eig(m)
    assert vals[1] == 0.0


def test_construction_rejects_indefinite():
    with pytest.raises(ValueError):
        SpdMatrix([[1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(ValueError):
        SpdMatrix(np.full((2, 2), np.nan))
    with pytest.raises(ValueError):
        SpdMatrix(np.zeros((2, 3)))


def test_symmetric_eig_identity():
    vals, vecs = symmetric_eig(SpdMatrix.identity(2))
    assert np.allclose(vals, [1.0, 1.0])
    assert np.allclose(vecs @ vecs.T, np.eye(2), atol=1e-12)


def test_symmetric_eig_diagonal_descending():
    vals, _ = symmetric_eig(SpdMatrix.from_diag([1.0, 4.0]))
    assert np.allclose(vals, [4.0, 1.0])


def test_symmetric_eig_2x2_hand_solved():
    # characteristic polynomial of [[2,1],[1,2]] has roots 3 and 1
    m = SpdMatrix([[2.0, 1.0], [1.0, 2.0]])
    vals, vecs = symmetric_eig(m)
    assert np.allclose(vals, [3.0, 1.0], atol=1e-12)
    assert np.allclose((vecs * vals) @ vecs.T, m.entries, atol=1e-10)


def test_symmetric_eig_computes_eigenvectors_on_first_use():
    rng = np.random.default_rng(1)
    for d in (1, 2, 5, 16):
        m = random_spd(rng, d)
        assert "_eigvecs" not in vars(m)  # construction computes the eigenvalues only
        vals, vecs = symmetric_eig(m)
        assert vars(m)["_eigvecs"] is m._eigvecs  # cached for the next caller
        assert np.all(np.diff(vals) <= 0.0)
        assert np.allclose(vecs.T @ vecs, np.eye(d), rtol=0.0, atol=1e-12)
        err = np.abs((vecs * vals) @ vecs.T - m.entries).max()
        assert err <= 1e-12 * max(1.0, np.linalg.norm(m.entries))


def test_trace_is_the_trace_of_the_entries():
    rng = np.random.default_rng(2)
    for d in (1, 3, 8):
        m = random_spd(rng, d)
        assert m.trace == float(np.trace(m.entries))
    clamped = SpdMatrix([[1.0, 0.0], [0.0, -1e-12]])  # entries rebuilt at construction
    assert clamped.trace == float(np.trace(clamped.entries))


def test_symmetric_eig_reconstructs_random():
    rng = np.random.default_rng(0)
    for _ in range(20):
        m = random_spd(rng, int(rng.integers(1, 6)))
        vals, vecs = symmetric_eig(m)
        assert np.all(np.diff(vals) <= 0)
        assert np.all(vals >= 0)
        err = np.linalg.norm((vecs * vals) @ vecs.T - m.entries)
        assert err <= 1e-10 * max(1.0, np.linalg.norm(m.entries))


def test_matrix_sqrt_identity_and_diag():
    assert np.allclose(matrix_sqrt(SpdMatrix.identity(3)).entries, np.eye(3))
    assert np.allclose(
        matrix_sqrt(SpdMatrix.from_diag([4.0, 9.0])).entries, np.diag([2.0, 3.0])
    )


def test_matrix_sqrt_offdiagonal_spectrum():
    m = SpdMatrix([[2.0, 1.0], [1.0, 2.0]])
    root = matrix_sqrt(m)
    vals, _ = symmetric_eig(root)
    assert np.allclose(vals, [SQRT3, 1.0], atol=1e-12)
    assert np.allclose(root.entries @ root.entries, m.entries, atol=1e-9)


def test_matrix_sqrt_squares_back_random():
    rng = np.random.default_rng(1)
    for _ in range(20):
        m = random_spd(rng, int(rng.integers(1, 6)))
        root = matrix_sqrt(m)
        err = np.linalg.norm(root.entries @ root.entries - m.entries)
        assert err <= 1e-9 * max(1.0, np.linalg.norm(m.entries))


def test_bw_distance_scalar_is_stddev_gap():
    assert bw_distance(SpdMatrix.from_diag([4.0]), SpdMatrix.from_diag([1.0])) == pytest.approx(1.0, abs=1e-12)


def test_bw_distance_zero_iff_equal():
    rng = np.random.default_rng(2)
    m = random_spd(rng, 3)
    assert bw_distance(m, m) <= 1e-7
    other = SpdMatrix(m.entries + np.eye(3))
    assert bw_distance(m, other) > 0.1


def test_bw_distance_antidiagonal_permutation():
    a = SpdMatrix.from_diag([1.0, 4.0])
    b = SpdMatrix.from_diag([4.0, 1.0])
    # axis-wise pairing: sqrt((1-2)^2 + (2-1)^2)
    assert bw_distance(a, b) == pytest.approx(SQRT2, abs=1e-12)


def test_bw_distance_dimension_mismatch():
    with pytest.raises(ValueError):
        bw_distance(SpdMatrix.identity(2), SpdMatrix.identity(3))


def test_bw_distance_symmetric_and_triangle():
    rng = np.random.default_rng(3)
    for _ in range(20):
        d = int(rng.integers(1, 5))
        a, b, c = (random_spd(rng, d) for _ in range(3))
        assert bw_distance(a, b) == pytest.approx(bw_distance(b, a), abs=1e-10)
        assert bw_distance(a, c) <= bw_distance(a, b) + bw_distance(b, c) + 1e-8


def _rotation(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def test_bw_distance_zero_at_rotated_singular_matrix():
    q = _rotation(np.random.default_rng(1), 3)
    a = SpdMatrix((q * [0.0, 1.0, 2.0]) @ q.T)
    assert bw_distance(a, a) <= 1e-7


def test_bw_distance_commuting_pairs_at_rotated_singular_centers():
    # the pair shares its eigenbasis, so the distance is that of the paired
    # square roots of the eigenvalues; both share the center's null space
    rng = np.random.default_rng(12)
    for _ in range(100):
        d = int(rng.integers(2, 7))
        q = _rotation(rng, d)
        sa = np.sqrt(rng.uniform(0.1, 4.0, d))
        sa[rng.permutation(d)[: int(rng.integers(1, d))]] = 0.0
        sb = np.where(sa > 0.0, sa + rng.uniform(0.0, 0.2, d), 0.0)
        a, b = SpdMatrix((q * sa**2) @ q.T), SpdMatrix((q * sb**2) @ q.T)
        assert bw_distance(a, b) == pytest.approx(np.linalg.norm(sb - sa), abs=1e-6)


def test_bw_diagonal_reduction_aligned_sorted():
    rng = np.random.default_rng(4)
    for _ in range(20):
        d = int(rng.integers(1, 6))
        lam = np.sort(rng.uniform(0.0, 5.0, d))[::-1]
        mu = np.sort(rng.uniform(0.0, 5.0, d))[::-1]
        expected = np.linalg.norm(np.sqrt(lam) - np.sqrt(mu))
        got = bw_distance(SpdMatrix.from_diag(lam), SpdMatrix.from_diag(mu))
        assert got == pytest.approx(expected, abs=1e-10)


def test_bw_spectral_lower_bound():
    rng = np.random.default_rng(5)
    for _ in range(30):
        d = int(rng.integers(1, 6))
        a, b = random_spd(rng, d), random_spd(rng, d)
        va, _ = symmetric_eig(a)
        vb, _ = symmetric_eig(b)
        assert bw_distance(a, b) >= np.linalg.norm(np.sqrt(va) - np.sqrt(vb)) - 1e-8


def test_gaussian_w2_identical_and_mean_shift():
    p = GaussianLaw([0.0], SpdMatrix.from_diag([1.0]))
    assert gaussian_w2(p, p) == 0.0
    q = GaussianLaw([3.0], SpdMatrix.from_diag([1.0]))
    assert gaussian_w2(p, q) == pytest.approx(3.0, abs=1e-12)


def test_gaussian_w2_composes_cov_and_mean():
    p = GaussianLaw([0.0, 0.0], SpdMatrix.from_diag([1.0, 1.0]))
    q = GaussianLaw([1.0, 0.0], SpdMatrix.from_diag([4.0, 1.0]))
    assert gaussian_w2(p, q) == pytest.approx(SQRT2, abs=1e-12)


def test_gaussian_w2_equal_means_degenerates_to_bw():
    rng = np.random.default_rng(6)
    for _ in range(10):
        d = int(rng.integers(1, 5))
        a, b = random_spd(rng, d), random_spd(rng, d)
        mean = rng.standard_normal(d)
        w2 = gaussian_w2(GaussianLaw(mean, a), GaussianLaw(mean, b))
        assert w2 == pytest.approx(bw_distance(a, b), abs=1e-12)


def test_transport_map_identity_scalar_diagonal():
    m = SpdMatrix([[2.0, 1.0], [1.0, 2.0]])
    assert np.allclose(transport_map(m, m), np.eye(2), atol=1e-8)
    assert transport_map(SpdMatrix.from_diag([1.0]), SpdMatrix.from_diag([4.0]))[0, 0] == pytest.approx(2.0, abs=1e-12)
    t = transport_map(SpdMatrix.from_diag([1.0, 4.0]), SpdMatrix.from_diag([9.0, 1.0]))
    assert np.allclose(t, np.diag([3.0, 0.5]), atol=1e-10)


def test_transport_map_pushes_source_to_target():
    rng = np.random.default_rng(7)
    for _ in range(20):
        d = int(rng.integers(1, 5))
        src, dst = random_spd(rng, d), random_spd(rng, d)
        t = transport_map(src, dst)
        err = np.linalg.norm(t @ src.entries @ t.T - dst.entries)
        assert err <= 1e-8 * max(1.0, np.linalg.norm(dst.entries))


def test_transport_map_singular_center():
    with pytest.raises(SingularCenter):
        transport_map(SpdMatrix(np.zeros((2, 2))), SpdMatrix.identity(2))


def test_geodesic_endpoints_exact():
    rng = np.random.default_rng(8)
    a, b = random_spd(rng, 3), random_spd(rng, 3)
    assert bw_geodesic_point(a, b, 0.0) is a
    assert bw_geodesic_point(a, b, 1.0) is b


def test_geodesic_scalar_midpoint():
    # stddev interpolates linearly: 1 -> 3 at t=0.5 gives variance 4
    mid = bw_geodesic_point(SpdMatrix.from_diag([1.0]), SpdMatrix.from_diag([9.0]), 0.5)
    assert mid.entries[0, 0] == pytest.approx(4.0, abs=1e-10)


def test_geodesic_distance_linear_in_t():
    rng = np.random.default_rng(9)
    for _ in range(10):
        d = int(rng.integers(1, 5))
        a, b = random_spd(rng, d), random_spd(rng, d)
        full = bw_distance(a, b)
        for t in (0.25, 0.5, 0.75):
            point = bw_geodesic_point(a, b, t)
            assert bw_distance(a, point) == pytest.approx(t * full, rel=1e-8, abs=1e-10)


def test_geodesic_t_out_of_range():
    a = SpdMatrix.identity(2)
    with pytest.raises(ValueError):
        bw_geodesic_point(a, a, -0.1)
    with pytest.raises(ValueError):
        bw_geodesic_point(a, a, 1.5)


@pytest.mark.parametrize("t", [None, [0.5], "x", 10**400], ids=["none", "list", "text", "int_beyond_float_range"])
def test_geodesic_t_float_cannot_read_is_a_value_error(t):
    # they raised TypeError or OverflowError
    a = SpdMatrix.identity(2)
    with pytest.raises(ValueError, match=r"t must lie in \[0, 1\]"):
        bw_geodesic_point(a, a, t)


def test_ball_project_inside_unchanged():
    ball = BwBall(SpdMatrix.identity(2), 5.0)
    m = SpdMatrix.from_diag([1.5, 2.0])
    assert bw_ball_project(ball, m) is m


def test_ball_project_scalar_truncates_geodesic():
    ball = BwBall(SpdMatrix.from_diag([1.0]), 1.0)
    projected = bw_ball_project(ball, SpdMatrix.from_diag([9.0]))
    assert projected.entries[0, 0] == pytest.approx(4.0, abs=1e-10)
    assert bw_ball_project(ball, ball.center) is ball.center


def test_ball_project_lands_on_boundary_idempotently():
    rng = np.random.default_rng(10)
    boundary_cases = 0
    for _ in range(10):
        d = int(rng.integers(1, 5))
        ball = BwBall(random_spd(rng, d), float(rng.uniform(0.1, 1.0)))
        probe = SpdMatrix(random_spd(rng, d).entries * 20.0)
        once = bw_ball_project(ball, probe)
        if bw_distance(ball.center, probe) <= ball.radius:
            assert once is probe
        else:
            boundary_cases += 1
            assert bw_distance(ball.center, once) == pytest.approx(ball.radius, rel=1e-8)
        twice = bw_ball_project(ball, once)
        assert np.allclose(once.entries, twice.entries, atol=1e-9)
    assert boundary_cases >= 5


def test_ball_radius_validation():
    with pytest.raises(ValueError):
        BwBall(SpdMatrix.identity(2), -0.5)


def test_sampler_zero_radius_returns_center():
    ball = BwBall(SpdMatrix.identity(2), 0.0)
    assert random_psd_in_ball(ball, 3) is ball.center


def test_sampler_deterministic_per_seed():
    ball = BwBall(SpdMatrix.from_diag([1.0, 2.0]), 0.7)
    a = random_psd_in_ball(ball, 11)
    b = random_psd_in_ball(ball, 11)
    assert np.array_equal(a.entries, b.entries)
    c = random_psd_in_ball(ball, 12)
    assert not np.array_equal(a.entries, c.entries)


def test_sampler_covers_interior_and_boundary():
    ball = BwBall(SpdMatrix.identity(2), 0.5)
    dists = [bw_distance(ball.center, random_psd_in_ball(ball, seed)) for seed in range(1, 1001)]
    assert max(dists) <= 0.5
    assert min(dists) >= 0.0
    assert max(dists) > 0.45  # reaches near the boundary
    assert min(dists) < 0.05  # and the deep interior


def test_gaussian_law_dimension_check():
    with pytest.raises(ValueError):
        GaussianLaw([0.0, 1.0], SpdMatrix.identity(3))


def _no_distance(*args):
    raise AssertionError("distance computed before the dimension check")


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: GaussianLaw([math.nan], SpdMatrix.identity(1)), "mean must be finite"),
        (
            lambda: gaussian_w2(
                GaussianLaw([0.0], SpdMatrix.identity(1)),
                GaussianLaw([0.0, 0.0], SpdMatrix.identity(2)),
            ),
            "dimension mismatch: 1 vs 2",
        ),
        (
            lambda: transport_map(SpdMatrix.identity(1), SpdMatrix.identity(2)),
            "dimension mismatch: 1 vs 2",
        ),
        (
            lambda: bw_geodesic_point(SpdMatrix.from_diag([1.0, 0.0]), SpdMatrix.identity(3), 0.5),
            "dimension mismatch: 2 vs 3",
        ),
    ],
    ids=["law_mean_not_finite", "gaussian_w2_dims", "transport_map_dims", "geodesic_point_dims"],
)
def test_rejects_malformed_input(monkeypatch, call, message):
    monkeypatch.setattr(psd_geometry, "bw_distance", _no_distance)
    with pytest.raises(ValueError, match=message):
        call()


def _sampler_centers(rng):
    """Seeded centers for d = 1..4: a positive definite one and, for d >= 2,
    a rank-deficient C = G G^T with G of size d x (d - 1)."""
    for d in range(1, 5):
        for _ in range(6):
            g = rng.standard_normal((d, d))
            yield SpdMatrix(g @ g.T + float(rng.uniform(0.01, 1.0)) * np.eye(d)), True
            if d >= 2:
                g = rng.standard_normal((d, d - 1))
                yield SpdMatrix(g @ g.T), False


def _draw_by_composition(ball, seed):
    """The sampler written out with the public distance and map, the
    geodesic point formed as mix C mix^T."""
    rng = np.random.default_rng(seed)
    t = float(rng.uniform())
    g = rng.standard_normal((ball.center.dim, ball.center.dim))
    rho = t * ball.radius
    wishart = g @ g.T
    beta = 4.0 * (rho + math.sqrt(ball.center.trace)) ** 2 / float(np.trace(wishart))
    target = SpdMatrix(beta * wishart)
    s = rho / bw_distance(ball.center, target)
    mix = (1.0 - s) * np.eye(ball.center.dim) + s * transport_map(ball.center, target)
    return mix @ ball.center.entries @ mix.T


def test_sampler_draws_lie_in_the_ball_around_any_center():
    rng = np.random.default_rng(1)
    for center, definite in _sampler_centers(rng):
        for _ in range(10):
            ball = BwBall(center, float(rng.uniform(0.0, 1.5)) * math.sqrt(center.trace))
            seed = int(rng.integers(2**31))
            draw = random_psd_in_ball(ball, seed)
            assert bw_distance(center, draw) <= ball.radius * (1.0 + 1e-9)
            assert np.array_equal(random_psd_in_ball(ball, seed).entries, draw.entries)
            if definite:
                expected = _draw_by_composition(ball, seed)
                err = np.abs(draw.entries - expected).max()
                assert err <= 1e-12 * np.abs(expected).max()


def test_ball_project_lands_on_boundary_idempotently_at_rank_deficient_centers():
    rng = np.random.default_rng(2)
    boundary_cases = 0
    for _ in range(30):
        d = int(rng.integers(2, 5))
        g = rng.standard_normal((d, d - 1))
        center = SpdMatrix(g @ g.T)
        ball = BwBall(center, 0.3 * math.sqrt(center.trace))
        h = rng.standard_normal((d, d))
        probe = SpdMatrix(4.0 * h @ h.T)
        once = bw_ball_project(ball, probe)
        if bw_distance(center, probe) <= ball.radius:
            assert once is probe
        else:
            boundary_cases += 1
            assert bw_distance(center, once) == pytest.approx(ball.radius, rel=1e-8)
        twice = bw_ball_project(ball, once)
        assert np.allclose(once.entries, twice.entries, atol=1e-9)
    assert boundary_cases >= 15


def test_geodesic_matches_commuting_closed_form():
    # centers and targets sharing an eigenbasis, spectra log-uniform on
    # [1e-8, 1]: the geodesic point is Q diag(((1 - t) sqrt(c) + t sqrt(n))^2) Q^T
    rng = np.random.default_rng(5)
    for _ in range(100):
        d = int(rng.integers(2, 5))
        q = np.linalg.qr(rng.standard_normal((d, d)))[0]
        c, n = np.exp(rng.uniform(math.log(1e-8), 0.0, (2, d)))
        t = float(rng.uniform(0.05, 0.95))
        point = bw_geodesic_point(SpdMatrix((q * c) @ q.T), SpdMatrix((q * n) @ q.T), t)
        expected = (q * ((1.0 - t) * np.sqrt(c) + t * np.sqrt(n)) ** 2) @ q.T
        assert np.abs(point.entries - expected).max() <= 1e-11 * np.abs(expected).max()


def test_zero_center_geodesic_and_draws():
    rng = np.random.default_rng(6)
    for d in (1, 2, 3, 4):
        zero = SpdMatrix(np.zeros((d, d)))
        target = random_spd(rng, d)
        for t in (0.25, 0.5, 0.75):
            point = bw_geodesic_point(zero, target, t).entries
            assert np.abs(point - t * t * target.entries).max() <= 1e-14 * np.abs(target.entries).max()
        for seed in range(20):
            ball = BwBall(zero, float(rng.uniform(0.1, 2.0)))
            assert bw_distance(zero, random_psd_in_ball(ball, seed)) <= ball.radius * (1.0 + 1e-12)
        with pytest.raises(SingularCenter):
            transport_map(zero, target)


def test_construction_rejects_overflow():
    # symmetrizing 1e308 + 1e308 overflows; a 4 x 4 block of 0.5e308 has the eigenvalue 2e308
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="entries must be finite"):
        SpdMatrix(np.full((2, 2), 1e308))
    with pytest.raises(ValueError, match="eigenvalues must be finite"):
        SpdMatrix(np.full((4, 4), 0.5e308))


def _built_or_message(build, a):
    """The matrix ``build`` makes of a copy of ``a``, or its ValueError's message."""
    try:
        with np.errstate(over="ignore"):
            return build(a.copy())
    except ValueError as exc:
        return str(exc)


def _assert_same_matrix(m, expected):
    """Bit-identical entries, eigenvalues and trace, all read-only, and the
    eigenvalues those of the entries: the reversed, clamped eigvalsh, or for a
    clamped matrix the reversed, clamped eigh of the matrix before the rebuild."""
    assert np.array_equal(m.entries, expected.entries)
    assert np.array_equal(m._eigvals, expected._eigvals)
    assert np.array_equal(np.signbit(m._eigvals), np.signbit(expected._eigvals))
    assert m.trace == expected.trace
    assert ("_eigvecs" in vars(m)) == ("_eigvecs" in vars(expected))
    assert not m.entries.flags.writeable and not m._eigvals.flags.writeable
    if "_eigvecs" not in vars(m):
        assert np.array_equal(m._eigvals, np.maximum(psd_geometry._lapack.eigvalsh(m.entries)[::-1], 0.0))


SETTLE_CASES = {
    "nan": np.array([[1.0, math.nan], [math.nan, 1.0]]),
    "inf": np.array([[math.inf, 0.0], [0.0, 1.0]]),
    "entries_overflow_when_symmetrized": np.full((2, 2), 1e308),
    "eigenvalues_overflow": np.full((4, 4), 0.5e308),
    "negative_beyond_psd_tol": np.array([[1.0, 2.0], [2.0, 1.0]]),
    "negative_just_beyond_psd_tol": np.array([[1.0, 1.0 + 1e-9], [1.0 + 1e-9, 1.0]]),
    "round_off_clamped": np.array([[1.0, 1.0 + 1e-12], [1.0 + 1e-12, 1.0]]),
    "zero": np.zeros((3, 3)),
    "negative_zero": np.full((2, 2), -0.0),
    "positive_definite": np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.2], [0.0, 0.2, 0.5]]),
    "asymmetric": np.array([[1.0, 0.5], [0.1, 2.0]]),
}


@pytest.mark.parametrize("name", list(SETTLE_CASES))
def test_from_square_raises_or_clamps_as_the_constructor(name):
    a = SETTLE_CASES[name]
    expected = _built_or_message(SpdMatrix, a)
    got = _built_or_message(SpdMatrix._from_square, a)
    if isinstance(expected, str):
        assert got == expected
        return
    assert not isinstance(got, str), got
    _assert_same_matrix(got, expected)
    _assert_same_matrix(expected, expected)
    assert ("_eigvecs" in vars(got)) == (name == "round_off_clamped")


def test_from_square_keeps_the_given_array_out_of_the_instance():
    a = SETTLE_CASES["positive_definite"].copy()
    m = SpdMatrix._from_square(a)
    a[0, 0] = 7.0
    assert m.entries[0, 0] == 2.0
    with pytest.raises(ValueError):
        m.entries[0, 0] = 3.0


def _gram_factors():
    """Factors F whose Gram F F^T is finite, clamped (rank one), NaN, inf, or
    has an eigenvalue that overflows."""
    rng = np.random.default_rng(12)
    for k in range(40):
        d = 2 + k % 3
        yield rng.standard_normal((d, d))
        yield rng.standard_normal((d, 1)) @ rng.standard_normal((1, d))
    yield np.array([[1.0, math.nan], [0.0, 1.0]])
    yield np.array([[math.inf, 0.0], [0.0, 1.0]])
    yield np.full((4, 4), math.sqrt(0.125e308))


def test_draw_path_raises_or_clamps_as_the_constructor():
    clamped = raised = 0
    for f in _gram_factors():
        with np.errstate(over="ignore", invalid="ignore"):
            gram = f @ f.T
        expected = _built_or_message(SpdMatrix, gram)
        with np.errstate(over="ignore", invalid="ignore"):
            got = _built_or_message(lambda _: psd_geometry._gram_point(f, np.zeros_like(f), 0.0), gram)
        if isinstance(expected, str):
            assert got == expected
            raised += 1
            continue
        _assert_same_matrix(got, expected)
        clamped += "_eigvecs" in vars(got)
    assert raised == 3
    assert clamped >= 10


def _eigen_root(m):
    """The square root built from the eigendecomposition, symmetrized."""
    vals, vecs = symmetric_eig(m)
    root = (vecs * np.sqrt(vals)) @ vecs.T
    return 0.5 * (root + root.T)


def test_square_root_is_cached_read_only_and_matches_the_eigen_root():
    rng = np.random.default_rng(7)
    for d in range(1, 6):
        g = rng.standard_normal((d, max(d - 1, 1)))
        for m in (random_spd(rng, d), SpdMatrix(g @ g.T)):
            assert "_root" not in vars(m)  # built on first use
            root = m._root
            assert m._root is root
            assert not root.flags.writeable
            with pytest.raises(ValueError):
                root[0, 0] = 1.0
            assert np.array_equal(root, _eigen_root(m))
            assert np.array_equal(matrix_sqrt(m).entries, SpdMatrix(_eigen_root(m)).entries)


def test_sampler_draws_do_not_depend_on_a_cached_root():
    rng = np.random.default_rng(8)
    for d in range(1, 5):
        for rank in range(1, d + 1):
            g = rng.standard_normal((d, rank))
            cached, fresh = SpdMatrix(g @ g.T), SpdMatrix(g @ g.T)
            radius = float(rng.uniform(0.1, 1.0)) * math.sqrt(cached.trace)
            seed = int(rng.integers(2**31))
            assert not cached._root.flags.writeable  # built before the draw
            draw = random_psd_in_ball(BwBall(fresh, radius), seed)  # builds the root on the way
            assert "_root" in vars(fresh)
            assert np.array_equal(draw.entries, random_psd_in_ball(BwBall(cached, radius), seed).entries)
            assert np.array_equal(draw.entries, random_psd_in_ball(BwBall(fresh, radius), seed).entries)
