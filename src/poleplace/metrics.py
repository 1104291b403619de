"""Robustness and gain metrics for closed-loop matrices.

Condition numbers of the eigenvector matrix and the departure from normality
of the closed loop both bound how far eigenvalues can move under
perturbations; the gain norm measures control effort.
"""

import numpy as np

from .linalg import DEFAULT_TOL, checked_svals, fro_norm, schur_triangular, two_norm
from .structure import jordan_matrix


def _square(X):
    X = np.atleast_2d(np.asarray(X))
    if X.shape[0] != X.shape[1]:
        raise ValueError("condition numbers require a square matrix")
    return X


def kappa_fro(X, tol=DEFAULT_TOL):
    """Frobenius condition number ||X||_F ||X^-1||_F."""
    s = checked_svals(_square(X), tol)
    return float(np.sqrt(np.sum(s**2) * np.sum(s**-2)))


def kappa_2(X, tol=DEFAULT_TOL):
    """Spectral condition number sigma_max / sigma_min."""
    s = checked_svals(_square(X), tol)
    return float(s[0] / s[-1])


def departure_from_normality(A):
    """Frobenius departure from normality.

    Splits the Schur form U^H A U = D + R into its diagonal and strictly
    upper triangular parts and returns ||R||_F; zero exactly when A is
    normal.  Equals sqrt(||A||_F^2 - sum |lambda_i|^2).
    """
    _, T = schur_triangular(A)
    return fro_norm(np.triu(T, 1))


def sensitivity_bound_check(X, H, spec, tol=DEFAULT_TOL):
    """Verify the defective-eigenvalue perturbation bound on one trial.

    With A = X Lambda X^-1 assembled from the structure, checks that every
    eigenvalue lam' of A + H has a requested eigenvalue lam with

        |lam - lam'|^l / (1 + |lam - lam'|)^(l-1) <= kappa_2(X) ||H||_2,

    where l is the largest mini-block order of that lam (the generalized
    Bauer-Fike bound; for l = 1 it reduces to the classical one).  Returns
    whether the bound held for all eigenvalues of the perturbed matrix.
    """
    X = np.atleast_2d(np.asarray(X))
    H = np.atleast_2d(np.asarray(H))
    bound = kappa_2(X, tol) * two_norm(H)
    A = X @ jordan_matrix(spec) @ np.linalg.inv(X)
    # slack absorbs eigensolver roundoff, relevant only when H ~ 0
    slack = 1e-12 * (1.0 + fro_norm(A))
    perturbed = np.linalg.eigvals(A + H)
    for lam_p in perturbed:
        ok = False
        for lam, orders in zip(spec.eigenvalues, spec.block_orders):
            gap = abs(lam - lam_p)
            ell = max(orders)
            if gap**ell / (1.0 + gap) ** (ell - 1) <= bound + slack:
                ok = True
                break
        if not ok:
            return False
    return True
