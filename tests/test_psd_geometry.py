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
    ],
    ids=["law_mean_not_finite", "gaussian_w2_dims", "transport_map_dims"],
)
def test_rejects_malformed_input(monkeypatch, call, message):
    monkeypatch.setattr(psd_geometry, "bw_distance", _no_distance)
    with pytest.raises(ValueError, match=message):
        call()
