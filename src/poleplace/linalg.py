"""Dense matrix primitives: nullspaces, pseudoinverses, Schur form, norms.

Everything here is a thin, tolerance-aware layer over LAPACK via numpy.
Only the complex Schur form needs scipy; `schur_triangular` imports it on
first call, so importing the package does not load scipy.  Rank decisions
use the singular-value threshold ``rank_tol_factor * max(dims) * eps *
sigma_max`` throughout, so callers get one consistent notion of numerical
rank.
"""

from dataclasses import dataclass

import numpy as np

from .errors import SingularMatrixError


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical tolerances shared by the placement pipeline.

    rank_tol_factor scales the standard SVD rank threshold, residual_tol
    scales acceptance of placement residuals, and singular_cond_limit is the
    condition number beyond which a matrix is treated as singular.
    """

    rank_tol_factor: float = 1.0
    residual_tol: float = 1e-8
    singular_cond_limit: float = 1e12

    def __post_init__(self):
        for name in ("rank_tol_factor", "residual_tol", "singular_cond_limit"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be strictly positive")

    def rank_threshold(self, shape, sigma_max):
        return self.rank_tol_factor * max(shape) * np.finfo(float).eps * sigma_max


DEFAULT_TOL = ToleranceConfig()


def checked_svals(M, tol=DEFAULT_TOL):
    """Singular values of a square array, largest first; the one singularity
    test.  M is singular when sigma_min = 0 or sigma_max / sigma_min (NaN
    included) exceeds tol.singular_cond_limit: SingularMatrixError(cond=...).
    """
    s = np.linalg.svd(M, compute_uv=False)
    cond = s[0] / s[-1] if s[-1] > 0 else np.inf
    if not (s[-1] > 0 and cond <= tol.singular_cond_limit):
        raise SingularMatrixError(
            f"matrix numerically singular (cond={cond:.3e})", cond=float(cond)
        )
    return s


def fro_norm(M):
    """Frobenius norm."""
    return float(np.linalg.norm(M, "fro"))


def two_norm(M):
    """Spectral norm (largest singular value)."""
    return float(np.linalg.norm(M, 2))


def kernel_basis(M, tol=DEFAULT_TOL):
    """Orthonormal basis for the kernel of ``M``.

    Parameters
    ----------
    M : (r, c) array
    tol : ToleranceConfig

    Returns
    -------
    (c, d) array with orthonormal columns spanning ker(M), where
    d = c - numerical_rank(M).  A full-rank wide matrix yields d = c - r;
    an empty kernel yields a (c, 0) array.
    """
    M = np.atleast_2d(np.asarray(M))
    _, s, vh = np.linalg.svd(M)
    if s.size == 0 or s[0] == 0.0:
        rank = 0
    else:
        rank = int(np.sum(s >= tol.rank_threshold(M.shape, s[0])))
    return vh[rank:].conj().T.copy()


def pseudo_inverse(M, tol=DEFAULT_TOL):
    """Moore-Penrose pseudoinverse with the package rank threshold.

    Singular values below the threshold are truncated to zero, so a zero
    matrix maps to a zero matrix.
    """
    M = np.atleast_2d(np.asarray(M))
    u, s, vh = np.linalg.svd(M, full_matrices=False)
    inv_s = np.zeros_like(s)
    if s.size and s[0] > 0.0:
        keep = s >= tol.rank_threshold(M.shape, s[0])
        inv_s[keep] = 1.0 / s[keep]
    return (vh.conj().T * inv_s) @ u.conj().T


def schur_triangular(A):
    """Complex Schur triangularization A = U T U^H.

    Returns (U, T) with U unitary and T upper triangular; entries below the
    diagonal of T are zeroed exactly.
    """
    import scipy.linalg  # ~0.3 s to import, so only when a Schur form is needed

    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("schur_triangular expects a square matrix")
    T, U = scipy.linalg.schur(A, output="complex")
    return U, np.triu(T)
