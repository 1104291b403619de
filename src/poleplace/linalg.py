"""Dense matrix primitives: nullspaces, pseudoinverses, Schur form, norms.

Everything here is a thin, tolerance-aware layer over LAPACK via numpy.
Only the complex Schur form needs scipy; `schur_triangular` imports it on
first call, so importing the package does not load scipy.  Rank decisions
use the singular-value threshold ``rank_tol_factor * max(dims) * eps *
sigma_max`` throughout, so callers get one consistent notion of numerical
rank.  Singularity is likewise decided by one test, `nonsingular_rows` on
the singular values; `certified_rows` only spares that SVD on the rows an
inverse already formed shows to be well within the limit, rows the SVD
test would accept.
"""

from dataclasses import dataclass

import numpy as np

from .errors import SingularMatrixError


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical tolerances shared by the placement pipeline.

    rank_tol_factor scales the standard SVD rank threshold, residual_tol
    scales acceptance of placement residuals, and singular_cond_limit is the
    condition number beyond which a matrix is treated as singular.  The
    first two must be finite: an infinite residual_tol passes every
    residual test, and an infinite rank_tol_factor gives every matrix rank
    0.  singular_cond_limit = inf treats only exact singularity as singular.
    """

    rank_tol_factor: float = 1.0
    residual_tol: float = 1e-8
    singular_cond_limit: float = 1e12

    def __post_init__(self):
        for name in ("rank_tol_factor", "residual_tol"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not self.singular_cond_limit > 0:
            raise ValueError("singular_cond_limit must be strictly positive")

    def rank_threshold(self, shape, sigma_max):
        return self.rank_tol_factor * max(shape) * np.finfo(float).eps * sigma_max


DEFAULT_TOL = ToleranceConfig()


def nonsingular_rows(s, tol=DEFAULT_TOL):
    """The one singularity test, on a stack of matrices: the indices of the
    rows of s (one row of singular values per matrix, largest first) whose
    matrix is not singular.  A matrix is singular when sigma_min = 0 or
    sigma_max / sigma_min (NaN included) exceeds tol.singular_cond_limit.
    """
    limit = tol.singular_cond_limit
    return [i for i, row in enumerate(s.tolist())
            if row[-1] > 0 and row[0] / row[-1] <= limit]


# where n eps kappa, the relative error of a computed inverse and of the
# SVD's sigma_min at condition kappa, stays ~1e-3 for small n
_CERTIFY_COND = 1e-3 / np.finfo(float).eps


def certified_rows(V, Vi, tol=DEFAULT_TOL):
    """The rows of a stack V of square matrices that `nonsingular_rows`
    would accept, certified from their computed inverses Vi without an SVD.

    Row i is certified when c = ||V_i||_F ||Vi_i||_F <= b, with
    b = min(tol.singular_cond_limit, _CERTIFY_COND) / 2.  Since kappa_2 <=
    kappa_F, the true kappa_2 is at most c (1 + d1), where d1 ~ n eps kappa
    is the relative error of the computed inverse; the SVD's
    sigma_max / sigma_min is within a factor 1 + d2 of kappa_2, d2 ~ n eps
    kappa as well.  At kappa <= b both are ~1e-3, so the SVD reads at most
    c (1 + d1)(1 + d2) < 2 b <= tol.singular_cond_limit with sigma_min > 0:
    every certified row passes `nonsingular_rows`, which still decides the
    rows left over.  A NaN or infinite c, such as an overflowing Vi gives,
    is never certified, and raises no warning.
    """
    bound = 0.5 * min(tol.singular_cond_limit, _CERTIFY_COND)
    k = len(V)
    a, b = V.reshape(k, -1), Vi.reshape(k, -1)
    with np.errstate(over="ignore", invalid="ignore"):
        c_sq = np.vecdot(a, a) * np.vecdot(b, b)
    return np.flatnonzero(c_sq <= bound * bound).tolist()


def nonsingular_inverses(V, tol=DEFAULT_TOL):
    """The rows of a stack V of square matrices that pass
    `nonsingular_rows`, and their inverses: (rows, Vi[rows]).

    The stacked inverse comes first, and `certified_rows` accepts the rows
    it shows to be well conditioned; only the rows left over go through
    `nonsingular_rows` on their own stacked SVD.  When the inverse raises
    (an exactly singular row), the SVD decides every row first.  Each row's
    inverse has the bits of a one-row call either way.
    """
    try:
        Vi = np.linalg.inv(V)
    except np.linalg.LinAlgError:
        rows = nonsingular_rows(np.linalg.svd(V, compute_uv=False), tol)
        return rows, np.linalg.inv(V[rows])
    rows = certified_rows(V, Vi, tol)
    if len(rows) < len(V):
        rest = [i for i in range(len(V)) if i not in rows]
        s = np.linalg.svd(V[rest], compute_uv=False)
        rows = sorted(rows + [rest[j] for j in nonsingular_rows(s, tol)])
        Vi = Vi[rows]
    return rows, Vi


def checked_svals(M, tol=DEFAULT_TOL):
    """Singular values of a square array, largest first, when it passes
    `nonsingular_rows`; otherwise SingularMatrixError(cond=...).
    """
    s = np.linalg.svd(M, compute_uv=False)
    if not nonsingular_rows(s[None], tol):
        cond = s[0] / s[-1] if s[-1] > 0 else np.inf
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


def _numerical_rank(shape, s, tol):
    """Number of singular values s (largest first) at or above the threshold."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s >= tol.rank_threshold(shape, s[0])))


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
    return kernel_and_pseudo_inverse(M, tol)[0]


def pseudo_inverse(M, tol=DEFAULT_TOL):
    """Moore-Penrose pseudoinverse with the package rank threshold.

    Singular values below the threshold are truncated to zero, so a zero
    matrix maps to a zero matrix.
    """
    return kernel_and_pseudo_inverse(M, tol)[1]


def kernel_and_pseudo_inverse(M, tol=DEFAULT_TOL):
    """`kernel_basis(M, tol)` and `pseudo_inverse(M, tol)` from one full SVD.

    The kernel basis is the trailing right singular vectors; the
    pseudoinverse uses the leading ones and the singular values at or above
    the rank threshold.
    """
    M = np.atleast_2d(np.asarray(M))
    u, s, vh = np.linalg.svd(M)
    rank = _numerical_rank(M.shape, s, tol)
    inv_s = np.zeros_like(s)
    inv_s[:rank] = 1.0 / s[:rank]
    # u and vh are full: only their leading s.size vectors enter
    k = s.size
    return vh[rank:].conj().T.copy(), (vh[:k].conj().T * inv_s) @ u[:, :k].conj().T


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
