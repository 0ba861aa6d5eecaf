"""The LAPACK helpers keep numpy.linalg's results and conventions."""

import numpy as np
import pytest

from robust_shannon import SpdMatrix, _lapack
from robust_shannon.classical import _whitened_gains

DIMS = [1, 2, 3, 4, 5, 8, 13, 16, 32]
TOL = 1e-13


def _matrices(d):
    """Seeded SPD, rank-deficient PSD (rank d // 2) and general square matrices."""
    rng = np.random.default_rng(100 + d)
    g = rng.standard_normal((d, d))
    f = rng.standard_normal((d, d // 2))
    return {"spd": g @ g.T + 0.1 * np.eye(d), "psd": f @ f.T, "square": g}


def _close(a, b, scale):
    return float(np.abs(a - b).max()) <= TOL * scale


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("kind", ["spd", "psd"])
def test_symmetric_eigen_agrees_with_numpy(d, kind):
    a = _matrices(d)[kind]
    norm = np.linalg.norm(a)
    w, v = _lapack.eigh(a)
    assert _close(w, np.linalg.eigvalsh(a), norm)
    assert _close(_lapack.eigvalsh(a), w, norm)
    assert np.all(np.diff(w) >= 0.0)  # ascending
    assert _close((v * w) @ v.T, a, norm)
    assert _close(v.T @ v, np.eye(d), 1.0)


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("kind", ["spd", "psd", "square"])
def test_svd_agrees_with_numpy(d, kind):
    a = _matrices(d)[kind]
    norm = np.linalg.norm(a)
    u, s, vt = _lapack.svd(a)
    assert _close(s, np.linalg.svd(a, compute_uv=False), norm)
    assert _close(_lapack.svd(a, compute_uv=False), s, norm)
    assert np.all(np.diff(s) <= 0.0) and s[-1] >= 0.0  # descending, nonnegative
    assert _close((u * s) @ vt, a, norm)
    assert _close(u.T @ u, np.eye(d), 1.0) and _close(vt @ vt.T, np.eye(d), 1.0)


@pytest.mark.parametrize("d", DIMS)
def test_cholesky_and_triangular_solves_agree_with_numpy(d):
    cases = _matrices(d)
    a, b = cases["spd"], cases["square"]
    chol = _lapack.cholesky(a)
    assert np.array_equal(chol, np.tril(chol))  # the lower factor, zeros above
    assert _close(chol, np.linalg.cholesky(a), np.linalg.norm(a))
    assert _close(chol @ chol.T, a, np.linalg.norm(a))
    for trans, factor in ((0, chol), (1, chol.T)):
        x = _lapack.solve_lower(chol, b, trans=trans)
        expected = np.linalg.solve(factor, b)
        assert _close(x, expected, np.linalg.cond(factor) * np.linalg.norm(expected))
        assert _close(factor @ x, b, np.linalg.norm(factor) * np.linalg.norm(x))


def test_eigen_reads_the_lower_triangle_as_numpy_does():
    a = np.array([[2.0, 5.0, -3.0], [0.5, 1.0, 7.0], [0.25, -1.0, 3.0]])
    lower = np.tril(a) + np.tril(a, -1).T
    assert _close(_lapack.eigvalsh(a), np.linalg.eigvalsh(lower), np.linalg.norm(lower))
    assert _close(_lapack.eigvalsh(a), np.linalg.eigvalsh(a), np.linalg.norm(lower))


@pytest.mark.parametrize("layout", ["read-only", "fortran"])
def test_inputs_are_accepted_and_left_unchanged(layout):
    cases = _matrices(5)
    if layout == "read-only":
        a, b = SpdMatrix(cases["spd"]).entries, cases["square"].copy()
        b.setflags(write=False)
        assert not a.flags.writeable
    else:
        a, b = np.asfortranarray(cases["spd"]), np.asfortranarray(cases["square"])
    a_before, b_before = a.copy(), b.copy()
    for call in (_lapack.eigvalsh, _lapack.eigh, _lapack.svd, _lapack.cholesky, _lapack.positive_definite):
        call(a)
    _lapack.svd(a, compute_uv=False)
    chol = _lapack.cholesky(a)
    for trans in (0, 1):
        _lapack.solve_lower(chol, b, trans=trans)
    assert np.array_equal(a, a_before) and np.array_equal(b, b_before)


def test_positive_definite_is_whether_cholesky_succeeds():
    assert _lapack.positive_definite(_matrices(4)["spd"])
    assert not _lapack.positive_definite(np.diag([1.0, -1.0]))
    assert not _lapack.positive_definite(np.diag([1.0, 0.0]))


def test_failures_raise_linalg_error():
    with pytest.raises(np.linalg.LinAlgError):
        _lapack.cholesky(np.diag([1.0, -1.0]))
    with pytest.raises(np.linalg.LinAlgError):
        _lapack.solve_lower(np.diag([1.0, 0.0]), np.eye(2))
    with pytest.raises(np.linalg.LinAlgError):
        _whitened_gains(np.eye(2), np.diag([1.0, -1.0]))
