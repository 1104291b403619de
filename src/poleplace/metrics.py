"""Robustness and gain metrics for closed-loop matrices.

Condition numbers of the eigenvector matrix and the departure from normality
of the closed loop both bound how far eigenvalues can move under
perturbations; the gain norm measures control effort.
"""

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    fro_norm,
    nonsingular_inverse,
    schur_triangular,
    two_norm,
)
from .structure import jordan_matrix

# Below this share of ||A||_F^2 the Henrici identity's roundoff, about
# eps * ||A||_F^2, is no longer small against the departure it computes
_IDENTITY_FLOOR = 1e-6


def _nonsingular_svals(X, tol):
    """Singular values of a square X, largest first, when X is not
    singular by the rule of `linalg.nonsingular_inverses`; otherwise the
    SingularMatrixError of `linalg.nonsingular_inverse`.
    """
    X = np.atleast_2d(np.asarray(X))
    if X.shape[0] != X.shape[1]:
        raise ValueError("condition numbers require a square matrix")
    nonsingular_inverse(X, tol)
    return np.linalg.svd(X, compute_uv=False)


def kappa_fro(X, tol=DEFAULT_TOL):
    """Frobenius condition number ||X||_F ||X^-1||_F."""
    s = _nonsingular_svals(X, tol)
    return float(np.sqrt(np.sum(s**2) * np.sum(s**-2)))


def kappa_2(X, tol=DEFAULT_TOL):
    """Spectral condition number sigma_max / sigma_min."""
    s = _nonsingular_svals(X, tol)
    return float(s[0] / s[-1])


def departure_from_normality(A):
    """Frobenius departure from normality.

    Splits the Schur form U^H A U = D + R into its diagonal and strictly
    upper triangular parts and returns ||R||_F; zero exactly when A is
    normal.  Equals sqrt(||A||_F^2 - sum |lambda_i|^2).
    """
    _, T = schur_triangular(A)
    return fro_norm(np.triu(T, 1))


def spectrum_mass(spec):
    """sum |lambda|^2 over the spectrum of spec, with algebraic multiplicity."""
    return float(sum(
        abs(lam) ** 2 * mult
        for lam, mult in zip(spec.eigenvalues, spec.multiplicities)
    ))


def assigned_departure_sq(A, mass):
    """Squared departure from normality of A whose spectrum is known.

    mass is `spectrum_mass` of that spectrum; Henrici's identity gives
    delta_fro^2 = ||A||_F^2 - mass without a Schur form.  When that
    difference is below _IDENTITY_FLOOR * ||A||_F^2 (A nearly normal) the
    identity's roundoff would dominate, and the Schur form decides.  A may
    be one matrix, which gives a float, or a stack (k, n, n) of matrices
    with that spectrum, which gives a list of k floats, each decided on
    its own.
    """
    A = np.asarray(A)
    a = A.reshape(-1, A.shape[-2] * A.shape[-1])
    values = []
    for i, total in enumerate(np.vecdot(a, a).tolist()):
        value = total - mass
        if value < _IDENTITY_FLOOR * total:
            value = departure_from_normality(a[i].reshape(A.shape[-2:])) ** 2
        values.append(value)
    return values[0] if A.ndim == 2 else values


def sensitivity_bound_check(X, H, spec, tol=DEFAULT_TOL):
    """Verify the defective-eigenvalue perturbation bound on one trial.

    With A = X Lambda X^-1 assembled from the structure, checks that every
    eigenvalue lam' of A + H has a requested eigenvalue lam with

        |lam - lam'|^l / (1 + |lam - lam'|)^(l-1) <= kappa_2(X) ||H||_2,

    where l is the largest mini-block order of that lam (the generalized
    Bauer-Fike bound; for l = 1 it reduces to the classical one).  The
    computed A is X Lambda X^-1 plus a rounding error of about
    n eps kappa_2(X) ||Lambda||_2, which the eigenvalues see as part of the
    perturbation, so the bound is taken at ||H||_2 plus that term.
    Returns whether the bound held for all eigenvalues of the perturbed
    matrix.
    """
    X = np.atleast_2d(np.asarray(X))
    H = np.atleast_2d(np.asarray(H))
    Lambda = jordan_matrix(spec)
    kappa = kappa_2(X, tol)
    rounding = len(X) * np.finfo(float).eps * kappa * two_norm(Lambda)
    bound = kappa * (two_norm(H) + rounding)
    A = X @ Lambda @ np.linalg.inv(X)
    perturbed = np.linalg.eigvals(A + H)
    for lam_p in perturbed:
        ok = False
        for lam, orders in zip(spec.eigenvalues, spec.block_orders):
            gap = abs(lam - lam_p)
            ell = max(orders)
            if gap**ell / (1.0 + gap) ** (ell - 1) <= bound:
                ok = True
                break
        if not ok:
            return False
    return True
