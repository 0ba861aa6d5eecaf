"""Small dense factorizations, calling LAPACK through scipy.linalg.lapack.

numpy.linalg's conventions (eigenvalues ascending, singular values
descending, the lower Cholesky factor, inputs never overwritten, and
LinAlgError when a routine fails) without its per-call wrapper, which costs
more than the LAPACK work on small matrices (the benchmark's are at most
32 x 32).
"""

from numpy.linalg import LinAlgError
from scipy.linalg.lapack import dgesdd, dpotrf, dsyevd, dtrtrs


def _checked(name, *out):
    """The outputs of a LAPACK call before its info, which must be 0."""
    if out[-1] != 0:
        raise LinAlgError(f"{name} failed with info {out[-1]}")
    return out[:-1]


def eigvalsh(a):
    """Ascending eigenvalues of the symmetric ``a``, read from its lower triangle."""
    return _checked("dsyevd", *dsyevd(a, compute_v=0, lower=1))[0]


def eigh(a):
    """Ascending eigenvalues and the orthonormal eigenvectors, as columns."""
    return _checked("dsyevd", *dsyevd(a, lower=1))


def svd(a, compute_uv=True):
    """U, the descending singular values and V^T of ``a``; the singular
    values alone when not ``compute_uv``."""
    u, s, vt = _checked("dgesdd", *dgesdd(a, compute_uv=int(compute_uv)))
    return (u, s, vt) if compute_uv else s


def cholesky(a):
    """The lower triangular L with L L^T = ``a``."""
    return _checked("dpotrf", *dpotrf(a, lower=1, clean=1))[0]


def positive_definite(a):
    """Whether the Cholesky factorization of the symmetric ``a`` succeeds."""
    return dpotrf(a, lower=1, clean=0)[1] == 0


def solve_lower(l, b, trans=0):
    """L^{-1} b, or L^{-T} b with ``trans=1``, for a lower triangular L."""
    return _checked("dtrtrs", *dtrtrs(l, b, lower=1, trans=trans))[0]
