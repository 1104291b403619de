"""Dense matrix primitives: nullspaces, pseudoinverses, Schur form, norms.

Everything here is a thin, tolerance-aware layer over LAPACK via numpy.
Only the complex Schur form needs scipy; `schur_triangular` imports it on
first call, so importing the package does not load scipy.  Every rank
decision of the package uses one singular-value threshold,
``rank_tol_factor * max(dims) * eps * sigma_max`` of the matrix judged:
the kernels and pseudoinverses here, and through `numerical_rank` the
column rank of B and the ranks of the Krylov prefixes that give the
controllability indices in `structure`, so callers get one consistent
notion of numerical rank.  Singularity is likewise decided by one rule: a
matrix is singular when it or its computed inverse is not finite (an exact
zero pivot fills the inverse with NaN; it does not raise), or when
`nonsingular_rows` rejects its singular values.  `nonsingular_inverses`
applies it to a stack, inverse first, in one call of the LAPACK gufunc
under `np.linalg.inv` (or of `np.linalg.inv` itself, where numpy lacks
that private gufunc or it rejects the signature): `certified_rows` spares
the SVD on the rows whose squared Frobenius norms, of the matrix and of
its inverse, show them to be well within the limit, rows the SVD test
would accept; a non-finite matrix or inverse makes only its own row
singular, and only the finite rows left over take the SVD.  It returns
those squared norms with the inverses, so the condition objective reads
its value from the certificate.  `nonsingular_inverse` is its raising
form for one matrix.

The error-state contract: `nonsingular_inverses` raises no floating-point
warning, since a zero pivot, an overflowing inverse and the certificate's
products of their norms would raise them; it runs its work under
np.errstate(all="ignore").  That work without the error state is
`_nonsingular_inverses`, the one copy of the rule, which a caller already
in that state (the optimizer, once per restart) calls directly.
`kernel_and_pseudo_inverse` takes a stack of matrices through one SVD, as
`Placer` builds its pencils.
"""

import contextlib
from dataclasses import dataclass

import numpy as np

from .errors import SingularMatrixError


def _inverse_gufunc(module):
    """module.inv when it inverts a real and a complex stack under the
    signatures "d->d" and "D->D", as numpy's private inverse gufunc does;
    otherwise None, and `_stack_inverses` falls back to `np.linalg.inv`."""
    inv = getattr(module, "inv", None)
    try:
        ok = all(inv(np.full((1, 1, 1), 2.0, dtype), signature=sig)[0, 0, 0] == 0.5
                 for dtype, sig in ((float, "d->d"), (complex, "D->D")))
    except Exception:
        return None
    return inv if ok else None


# the gufunc under np.linalg.inv, called directly: on the small stacks of a
# probe the wrapper's Python costs more than the LAPACK work.
# tests/test_linalg.py pins its contract
_umath_linalg = getattr(np.linalg, "_umath_linalg", None)
_INV = _inverse_gufunc(_umath_linalg)


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
    """The singular-value test, on a stack of matrices: the indices of the
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


def certified_rows(sq_V, sq_Vi, tol=DEFAULT_TOL):
    """The rows of a stack V of square matrices that `nonsingular_rows`
    would accept, certified from the squared Frobenius norms sq_V of the
    matrices and sq_Vi of their computed inverses Vi, without an SVD.

    Row i is certified when c = ||V_i||_F ||Vi_i||_F <= b, with
    b = min(tol.singular_cond_limit, _CERTIFY_COND) / 2.  Since kappa_2 <=
    kappa_F, the true kappa_2 is at most c (1 + d1), where d1 ~ n eps kappa
    is the relative error of the computed inverse; the SVD's
    sigma_max / sigma_min is within a factor 1 + d2 of kappa_2, d2 ~ n eps
    kappa as well.  At kappa <= b both are ~1e-3, so the SVD reads at most
    c (1 + d1)(1 + d2) < 2 b <= tol.singular_cond_limit with sigma_min > 0:
    every certified row passes `nonsingular_rows`, which still decides the
    rows left over.  A NaN or infinite c, such as an overflowing Vi gives,
    is never certified; c^2 = sq_V sq_Vi can overflow, or read 0 * inf for
    a V whose squared norm underflows, so call this under
    np.errstate(over="ignore", invalid="ignore"), as
    `nonsingular_inverses` does, for it to raise no warning.
    """
    bound = 0.5 * min(tol.singular_cond_limit, _CERTIFY_COND)
    ok = (sq_V * sq_Vi <= bound * bound).tolist()
    return [i for i, certified in enumerate(ok) if certified]


def _stack_inverses(V):
    """The inverse of every matrix of a stack V, in double (complex double
    for complex V), each row with the bits of its own `np.linalg.inv` call;
    a row with an exact zero pivot reads NaN.

    Called under np.errstate(all="ignore").  The private inverse gufunc
    (`_INV`) inverts the stack in one call and fills a zero pivot's row
    with NaN; without it, `np.linalg.inv` inverts row by row, and a row on
    which it raises stays NaN.
    """
    dtype = complex if V.dtype.kind == "c" else float
    if _INV is not None:
        return _INV(V, signature="D->D" if dtype is complex else "d->d")
    Vi = np.full(V.shape, np.nan, dtype)
    for i, v in enumerate(V.astype(dtype, copy=False)):
        with contextlib.suppress(np.linalg.LinAlgError):
            Vi[i] = np.linalg.inv(v)
    return Vi


def _nonsingular_inverses(V, tol):
    """`nonsingular_inverses` without its error state: call it under
    np.errstate(all="ignore"), as the optimizer's restarts do once each."""
    k = len(V)
    Vi = _stack_inverses(V)
    a, b = V.reshape(k, -1), Vi.reshape(k, -1)
    sq_V, sq_Vi = np.vecdot(a, a), np.vecdot(b, b)
    rows = certified_rows(sq_V, sq_Vi, tol)
    if len(rows) < k:
        finite = (np.isfinite(a).all(axis=1) & np.isfinite(b).all(axis=1)).tolist()
        rest = [i for i in range(k) if finite[i] and i not in rows]
        if rest:
            s = np.linalg.svd(V[rest], compute_uv=False)
            rows = sorted(rows + [rest[j] for j in nonsingular_rows(s, tol)])
        Vi, sq_V, sq_Vi = Vi[rows], sq_V[rows], sq_Vi[rows]
    return rows, Vi, sq_V, sq_Vi


def nonsingular_inverses(V, tol=DEFAULT_TOL):
    """The rows of a stack V of square matrices that are not singular, their
    inverses and the squared Frobenius norms of both:
    (rows, Vi[rows], sq_V[rows], sq_Vi[rows]).

    The stacked inverse comes first (`_stack_inverses`: the LAPACK gufunc
    under `np.linalg.inv`, or `np.linalg.inv` itself where numpy lacks
    it), in double (complex double for complex V) as `np.linalg.inv`
    computes it, with the squared norms of every row and of its inverse,
    and `certified_rows` accepts the rows they show to be well
    conditioned.  Of the rows left over, one that is not finite, or whose
    inverse is not, is singular, whatever its singular values: an exact
    zero pivot fills its row with NaN, an inverse can overflow, and the
    SVD does not converge on a NaN.  Only the finite rest goes through
    `nonsingular_rows` on their own stacked SVD.  The norms are returned
    for the accepted rows, so a caller that needs ||V||_F^2 + ||V^-1||_F^2
    reads it from the certificate.  Every row is inverted on its own, so
    every row's inverse and norms have the bits of a one-row call.

    A zero pivot sets the invalid flag, an overflowing inverse gives
    sq_Vi = inf and its square can overflow in the certificate, so the
    work runs under np.errstate(all="ignore") and raises no warning.  The
    optimizer enters that state once per restart and calls the same work
    without it, `_nonsingular_inverses`.
    """
    with np.errstate(all="ignore"):
        return _nonsingular_inverses(V, tol)


def nonsingular_inverse(M, tol=DEFAULT_TOL):
    """The inverse of a square array that `nonsingular_inverses` accepts, as
    a one-row stack, with the bits of that call; otherwise
    SingularMatrixError, with the condition number its singular values
    read (`checked_svals`), or cond=inf when they pass and the inverse is
    not finite (an exact zero pivot or an overflow), and cond=inf, with no
    SVD taken, when the matrix itself has a NaN or infinite entry.
    """
    rows, Mi, _, _ = nonsingular_inverses(M[None], tol)
    if not rows:
        if np.isfinite(M).all():
            checked_svals(M, tol)
        raise SingularMatrixError(
            "matrix or its inverse not finite (cond=inf)", cond=np.inf)
    return Mi[0]


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


def numerical_rank(M, tol=DEFAULT_TOL):
    """Numerical rank of a 2-D array under the package rank threshold."""
    return _numerical_rank(M.shape, np.linalg.svd(M, compute_uv=False), tol)


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
    the rank threshold.  M may also be a stack (k, r, c) of matrices: then
    one stacked SVD serves them all, and the result is a list of k
    (kernel, pseudoinverse) pairs, each with the bits of its own call.
    """
    M = np.asarray(M)
    if M.ndim == 3:
        return [_kernel_and_pseudo_inverse(M.shape[1:], *usv, tol)
                for usv in zip(*np.linalg.svd(M))]
    M = np.atleast_2d(M)
    return _kernel_and_pseudo_inverse(M.shape, *np.linalg.svd(M), tol)


def _kernel_and_pseudo_inverse(shape, u, s, vh, tol):
    """The kernel basis and pseudoinverse of one matrix of the given shape
    from its full SVD u, s, vh."""
    rank = _numerical_rank(shape, s, tol)
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
