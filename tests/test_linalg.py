import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from poleplace.linalg import (
    ToleranceConfig,
    fro_norm,
    kernel_basis,
    pseudo_inverse,
    schur_triangular,
    two_norm,
)


SRC = Path(__file__).resolve().parent.parent / "src"


def test_package_import_leaves_scipy_unloaded():
    # scipy.linalg takes ~0.3 s to import and only the Schur form needs it
    code = ("import sys, poleplace, poleplace.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_tolerance_config_rejects_nonpositive():
    with pytest.raises(ValueError):
        ToleranceConfig(rank_tol_factor=0.0)
    with pytest.raises(ValueError):
        ToleranceConfig(residual_tol=-1e-8)
    with pytest.raises(ValueError):
        ToleranceConfig(residual_tol=float("nan"))


class TestKernelBasis:
    def test_rank_one_row(self):
        N = kernel_basis(np.array([[1.0, 1.0]]))
        assert N.shape == (2, 1)
        expected = np.array([1.0, -1.0]) / np.sqrt(2.0)
        # defined up to column phase
        assert min(
            np.abs(N[:, 0] - expected).max(), np.abs(N[:, 0] + expected).max()
        ) < 1e-14

    def test_zero_map(self):
        N = kernel_basis(np.zeros((1, 2)))
        assert N.shape == (2, 2)
        assert np.abs(N.conj().T @ N - np.eye(2)).max() < 1e-14

    def test_empty_kernel_returns_zero_columns(self):
        N = kernel_basis(np.eye(3))
        assert N.shape == (3, 0)

    def test_random_rank_three(self):
        rng = np.random.default_rng(0)
        left = rng.standard_normal((3, 3))
        right = rng.standard_normal((3, 5))
        M = left @ right  # exact rank 3
        N = kernel_basis(M)
        assert N.shape == (5, 2)
        assert np.abs(M @ N).max() < 1e-12 * fro_norm(M)
        assert np.abs(N.conj().T @ N - np.eye(2)).max() < 1e-13

    def test_invariant_suite(self):
        rng = np.random.default_rng(1)
        tol = ToleranceConfig()
        for _ in range(100):
            r = int(rng.integers(1, 8))
            c = int(rng.integers(r, 12))
            M = rng.standard_normal((r, c))
            if rng.random() < 0.3:
                M = M + 1j * rng.standard_normal((r, c))
            N = kernel_basis(M, tol)
            d = N.shape[1]
            rank_tol = tol.rank_threshold(M.shape, two_norm(M))
            if d:
                assert fro_norm(M @ N) <= 10 * rank_tol * max(fro_norm(M), 1.0)
                assert fro_norm(N.conj().T @ N - np.eye(d)) <= 1e-12 * d


class TestPseudoInverse:
    def test_identity(self):
        assert np.abs(pseudo_inverse(np.eye(3)) - np.eye(3)).max() < 1e-14

    def test_full_row_rank_permutation_like(self):
        M = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        expected = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert np.abs(pseudo_inverse(M) - expected).max() < 1e-14

    def test_right_inverse_on_full_row_rank(self):
        rng = np.random.default_rng(2)
        M = rng.standard_normal((4, 6))
        P = pseudo_inverse(M)
        assert np.abs(M @ P - np.eye(4)).max() < 1e-10

    def test_zero_matrix(self):
        assert np.abs(pseudo_inverse(np.zeros((3, 2)))).max() == 0.0

    def test_penrose_conditions_suite(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            r = int(rng.integers(1, 11))
            c = int(rng.integers(1, 15))
            M = rng.standard_normal((r, c))
            if rng.random() < 0.25:
                # rank-deficient cases
                k = int(rng.integers(1, min(r, c) + 1))
                M = rng.standard_normal((r, k)) @ rng.standard_normal((k, c))
            P = pseudo_inverse(M)
            lim = 1e-10 * (1.0 + fro_norm(M))
            assert fro_norm(M @ P @ M - M) <= lim
            assert fro_norm(P @ M @ P - P) <= lim
            assert fro_norm((M @ P).conj().T - M @ P) <= lim
            assert fro_norm((P @ M).conj().T - P @ M) <= lim


class TestSchur:
    def test_diagonal_passthrough(self):
        A = np.diag([3.0, -1.0, 2.0])
        U, T = schur_triangular(A)
        assert np.abs(np.tril(T, -1)).max() == 0.0
        assert sorted(np.diag(T).real.tolist()) == [-1.0, 2.0, 3.0]

    def test_already_triangular(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        U, T = schur_triangular(A)
        assert np.abs(U @ T @ U.conj().T - A).max() < 1e-14

    def test_symmetric_gives_diagonal(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((5, 5))
        A = A + A.T
        _, T = schur_triangular(A)
        assert np.abs(np.triu(T, 1)).max() < 1e-10

    def test_reconstruction_suite(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            A = rng.standard_normal((n, n))
            U, T = schur_triangular(A)
            assert fro_norm(U @ T @ U.conj().T - A) <= 1e-10 * max(fro_norm(A), 1.0)
            assert fro_norm(U.conj().T @ U - np.eye(n)) <= 1e-12 * n


class TestNorms:
    def test_identity(self):
        assert fro_norm(np.eye(4)) == pytest.approx(2.0)
        assert two_norm(np.eye(4)) == pytest.approx(1.0)

    def test_single_row(self):
        M = np.array([[3.0, 4.0]])
        assert fro_norm(M) == pytest.approx(5.0)
        assert two_norm(M) == pytest.approx(5.0)

    def test_norm_inequality_chain(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            r = int(rng.integers(1, 9))
            c = int(rng.integers(1, 9))
            M = rng.standard_normal((r, c))
            assert two_norm(M) <= fro_norm(M) + 1e-14
            assert fro_norm(M) <= np.sqrt(min(r, c)) * two_norm(M) + 1e-12
