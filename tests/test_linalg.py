import os
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import poleplace as pp
from poleplace import linalg
from poleplace.errors import SingularMatrixError
from poleplace.linalg import (
    ToleranceConfig,
    certified_rows,
    fro_norm,
    kernel_and_pseudo_inverse,
    kernel_basis,
    nonsingular_inverse,
    nonsingular_inverses,
    nonsingular_rows,
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
    for limit in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="singular_cond_limit"):
            ToleranceConfig(singular_cond_limit=limit)


def test_tolerance_config_rejects_infinite_tolerances():
    # an infinite tolerance would pass every rank and residual test
    for name in ("rank_tol_factor", "residual_tol"):
        with pytest.raises(ValueError, match="finite"):
            ToleranceConfig(**{name: float("inf")})
    # an infinite limit means "only exact singularity"
    assert ToleranceConfig(singular_cond_limit=float("inf")).singular_cond_limit > 0


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


class TestKernelAndPseudoInverse:
    def test_matches_the_two_separate_factorizations(self):
        rng = np.random.default_rng(4)
        for n, m in ((1, 1), (4, 2), (5, 2), (8, 3), (16, 4), (32, 8)):
            A = rng.standard_normal((n, n)) / np.sqrt(n)
            B = rng.standard_normal((n, m))
            for lam in (-1.3, complex(-0.4, 1.1), complex(np.linalg.eigvals(A)[0])):
                shift = lam.real if lam.imag == 0.0 else lam
                S = np.hstack([A - shift * np.eye(n), B])
                N, Mdag = kernel_and_pseudo_inverse(S)
                assert np.array_equal(N, kernel_basis(S))
                P = pseudo_inverse(S)
                assert np.abs(Mdag - P).max() <= 1e-13 * np.abs(P).max()

    def test_rank_deficient_and_zero(self):
        rng = np.random.default_rng(5)
        M = rng.standard_normal((4, 2)) @ rng.standard_normal((2, 6))
        N, Mdag = kernel_and_pseudo_inverse(M)
        assert np.array_equal(N, kernel_basis(M))
        assert N.shape == (6, 4)
        P = pseudo_inverse(M)
        assert np.abs(Mdag - P).max() <= 1e-13 * np.abs(P).max()
        N, Mdag = kernel_and_pseudo_inverse(np.zeros((3, 2)))
        assert np.array_equal(N, kernel_basis(np.zeros((3, 2))))
        assert Mdag.shape == (2, 3) and not Mdag.any()


    @staticmethod
    def per_matrix(M, tol=ToleranceConfig()):
        """The kernel and pseudoinverse of one matrix, formed one matrix at
        a time from its own SVD: the rank from the package threshold, 1/s
        on the kept values, the trailing right singular vectors and one
        product."""
        u, s, vh = np.linalg.svd(M)
        rank = 0
        if s.size and s[0] > 0.0:
            rank = int(np.sum(s >= tol.rank_threshold(M.shape, s[0])))
        inv_s = np.zeros_like(s)
        inv_s[:rank] = 1.0 / s[:rank]
        k = s.size
        return (vh[rank:].conj().T.copy(),
                (vh[:k].conj().T * inv_s) @ u[:, :k].conj().T)

    @pytest.mark.parametrize("complex_", (False, True), ids=("real", "complex"))
    def test_stack_has_the_bits_of_each_call(self, complex_):
        # pencils of several sizes, two of them rank deficient, and a zero
        # matrix: one stacked SVD, each matrix's kernel and pseudoinverse
        # with the bits of its own call and of the one-matrix formula
        rng = np.random.default_rng(6)
        for n, m in ((1, 1), (4, 2), (6, 2), (16, 4)):
            S = rng.standard_normal((5, n, n + m))
            if complex_:
                S = S + 1j * rng.standard_normal((5, n, n + m))
            S[1] = S[1][:, :1] @ S[1][:1]  # rank one
            S[2] = 0.0
            S[3, -1] = S[3, 0]  # rank n - 1: a pencil that is not reachable
            pairs = kernel_and_pseudo_inverse(S)
            assert len(pairs) == len(S)
            for M, (N, Mdag) in zip(S, pairs):
                one = kernel_and_pseudo_inverse(M)
                for want_N, want_Mdag in (one, self.per_matrix(M)):
                    for got, want in ((N, want_N), (Mdag, want_Mdag)):
                        assert got.dtype == want.dtype and got.shape == want.shape
                        assert got.tobytes() == want.tobytes()
                        assert got.flags.c_contiguous == want.flags.c_contiguous
            assert pairs[1][0].shape == (n + m, n + m - 1)
            assert pairs[3][0].shape == (n + m, m + (n > 1))


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

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            schur_triangular(np.ones((2, 3)))

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

    @staticmethod
    def fro_inputs():
        rng = np.random.default_rng(7)
        M = rng.standard_normal((5, 4))
        Z = M + 1j * rng.standard_normal((5, 4))
        return {
            "real": M,
            "complex": Z,
            "fortran": np.asfortranarray(M),
            "complex_fortran": np.asfortranarray(Z),
            "strided": M[::2, ::3],
            "transposed": Z.T,
            "row": M[:1],
            "float32": M.astype(np.float32),
            "complex64": Z.astype(np.complex64),
            "int": np.arange(12).reshape(3, 4) - 5,
            "bool": M > 0,
            "nested_list": M.tolist(),
            "empty": np.zeros((0, 3)),
            "empty_complex": np.zeros((3, 0), complex),
            "huge": np.full((2, 2), 1e300),
            "nan": np.array([[1.0, np.nan]]),
        }

    @pytest.mark.parametrize("name", sorted(fro_inputs.__func__().keys()))
    def test_fro_norm_has_the_bits_of_numpy(self, name):
        # the same value, and the same warnings (an overflowing sum of
        # squares warns in either)
        M = self.fro_inputs()[name]
        with warnings.catch_warnings(record=True) as want_warnings:
            warnings.simplefilter("always")
            want = float(np.linalg.norm(M, "fro"))
        with warnings.catch_warnings(record=True) as got_warnings:
            warnings.simplefilter("always")
            got = fro_norm(M)
        assert type(got) is float
        assert np.array([got]).tobytes() == np.array([want]).tobytes()
        assert ([(w.category, str(w.message)) for w in got_warnings]
                == [(w.category, str(w.message)) for w in want_warnings])

    @pytest.mark.parametrize("M", (np.ones(3), np.ones((2, 2, 2)), np.float64(2.0),
                                   np.array(["a", "b"]).reshape(1, 2)),
                             ids=("vector", "stack", "scalar", "strings"))
    def test_fro_norm_raises_where_numpy_does(self, M):
        with pytest.raises(Exception) as want:
            np.linalg.norm(M, "fro")
        with pytest.raises(type(want.value)) as got:
            fro_norm(M)
        assert str(got.value) == str(want.value)

    def test_norm_inequality_chain(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            r = int(rng.integers(1, 9))
            c = int(rng.integers(1, 9))
            M = rng.standard_normal((r, c))
            assert two_norm(M) <= fro_norm(M) + 1e-14
            assert fro_norm(M) <= np.sqrt(min(r, c)) * two_norm(M) + 1e-12


def conditioned_stack(rng, n, conds):
    """One n x n matrix U diag(s) W^T per entry of conds, with orthogonal
    U, W and singular values s geometric from 1 down to 1 / cond, scaled by
    a random power of ten."""
    out = []
    for cond in conds:
        U = np.linalg.qr(rng.standard_normal((n, n)))[0]
        W = np.linalg.qr(rng.standard_normal((n, n)))[0]
        s = np.geomspace(1.0, 1.0 / cond, n) * 10.0 ** rng.uniform(-3, 3)
        out.append((U * s) @ W.T)
    return np.array(out)


def own_inverse(v):
    """The inverse of one matrix as a one-row stack, or None where that
    inverse is not finite (`np.linalg.inv` raises at an exact zero
    pivot)."""
    try:
        vi = np.linalg.inv(v[None])
    except np.linalg.LinAlgError:
        return None
    return vi if np.isfinite(vi).all() else None


def squared_norms(V, Vi):
    """The squared Frobenius norms of each matrix of the stacks V and Vi,
    each a one-row dot product; an overflow reads inf."""
    with np.errstate(over="ignore"):
        return tuple(np.array([float(np.ravel(v) @ np.ravel(v)) for v in M])
                     for M in (V, Vi))


def certify(V, Vi, tol=ToleranceConfig()):
    """`certified_rows` on the squared norms of V and Vi, under the
    np.errstate that `nonsingular_inverses` calls it under."""
    with np.errstate(over="ignore", invalid="ignore"):
        return certified_rows(*squared_norms(V, Vi), tol)


class TestCertifiedRows:
    """`nonsingular_inverses` decides as `nonsingular_rows` on the SVD of
    every row, except that a row whose own inverse is not finite is
    singular; every row keeps the bits of a one-row call, and
    carries the squared norms of its matrix and of its inverse, whichever
    path decided it."""

    @pytest.mark.parametrize("limit", (1e12, 1e6, 1e3, np.inf))
    @pytest.mark.parametrize("singular", ("rank_deficient", "zero_column", "tiny"))
    def test_same_rows_as_the_svd_test(self, limit, singular):
        tol = ToleranceConfig(singular_cond_limit=limit)
        rng = np.random.default_rng(80)
        certified = dropped = 0
        for _ in range(60):
            n = int(rng.integers(2, 7))
            V = conditioned_stack(rng, n, 10.0 ** rng.uniform(0, 15, 8))
            i = int(rng.integers(8))
            if singular == "rank_deficient":
                # rank n - 1 before rounding: w spans its kernel
                w = rng.standard_normal(n)
                w /= np.linalg.norm(w)
                V[i] -= np.outer(V[i] @ w, w)
            elif singular == "zero_column":
                # an exact zero pivot: the row's inverse is NaN
                V[i][:, int(rng.integers(n))] = 0.0
            else:
                # well conditioned, but ||V^-1||_F^2 overflows
                V[i] = 1e-170 * conditioned_stack(rng, n, [10.0])[0]
            expected = nonsingular_rows(np.linalg.svd(V, compute_uv=False), tol)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rows, Vi, sq_V, sq_Vi = nonsingular_inverses(V, tol)
                own = [own_inverse(v) for v in V]
            cert = [j for j, vi in enumerate(own)
                    if vi is not None and certify(V[j:j + 1], vi, tol)]
            # the SVD passes a row with an exact zero pivot only under an
            # infinite limit; neither path returns that row
            kept = [j for j in expected if own[j] is not None]
            assert limit == np.inf or kept == expected
            assert rows == kept
            assert set(cert) <= set(expected)
            want = np.concatenate([V[:0]] + [own[j] for j in rows])
            assert Vi.shape == want.shape and Vi.tobytes() == want.tobytes()
            for got, norms in zip((sq_V, sq_Vi), squared_norms(V[rows], want)):
                assert got.shape == norms.shape and got.tobytes() == norms.tobytes()
            certified += len(cert)
            dropped += len(expected) - len(kept)
        # the zero-column stacks certify their other rows too
        assert certified > 0
        if singular == "zero_column":
            assert (dropped > 0) == (limit == np.inf)

    def test_certificate_bound(self):
        tol = ToleranceConfig()
        rng = np.random.default_rng(81)
        conds = [1.0, 1e6, 1e10, 4e11, 1e12]
        V = conditioned_stack(rng, 4, conds)
        c = [fro_norm(v) * fro_norm(np.linalg.inv(v)) for v in V]
        got = certify(V, np.linalg.inv(V), tol)
        # half the default limit, 1e12
        assert got == [i for i, ci in enumerate(c) if ci <= 5e11]
        assert got[:3] == [0, 1, 2] and 4 not in got

    def test_nan_is_never_certified(self):
        V = np.array([np.eye(2), np.full((2, 2), np.nan)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert certify(V, np.linalg.inv(V)) == [0]


class TestNonsingularInverse:
    """The raising one-matrix form of `nonsingular_inverses`."""

    def test_bits_of_the_one_row_stack(self):
        rng = np.random.default_rng(82)
        for V in conditioned_stack(rng, 4, [1.0, 1e8, 1e11]):
            rows, Vi, _, _ = nonsingular_inverses(V[None])
            assert rows == [0]
            assert nonsingular_inverse(V).tobytes() == Vi[0].tobytes()

    def test_condition_number_named(self):
        V = conditioned_stack(np.random.default_rng(83), 3, [1e14])[0]
        s = np.linalg.svd(V, compute_uv=False)
        with pytest.raises(SingularMatrixError) as err:
            nonsingular_inverse(V)
        assert err.value.cond == s[0] / s[-1]

    def test_exact_zero_pivot_is_cond_inf(self):
        # a zero column is an exact zero pivot, singular also where an
        # infinite limit lets its singular values (sigma_min ~ 1e-17) pass
        tol = ToleranceConfig(singular_cond_limit=np.inf)
        rng = np.random.default_rng(34)
        svd_passed = 0
        for _ in range(8):
            V = rng.standard_normal((4, 4))
            V[:, int(rng.integers(4))] = 0.0
            s = np.linalg.svd(V[None], compute_uv=False)
            svd_passed += bool(nonsingular_rows(s, tol))
            with pytest.raises(SingularMatrixError) as err:
                nonsingular_inverse(V, tol)
            assert err.value.cond == np.inf
        assert svd_passed > 0


def random_stack(rng, k, n, complex_=False):
    """k random n x n matrices, complex ones when complex_, near the
    identity so that every row is well conditioned."""
    V = rng.standard_normal((k, n, n))
    if complex_:
        V = V + 1j * rng.standard_normal((k, n, n))
    return V / (4 * n) + np.eye(n)


class TestInverseGufunc:
    """`nonsingular_inverses` calls numpy's private inverse gufunc
    (`numpy.linalg._umath_linalg.inv`) instead of `np.linalg.inv`; these
    pin the contract it relies on, so that a numpy that moves or changes
    the gufunc fails here."""

    @pytest.mark.parametrize("complex_", (False, True), ids=("real", "complex"))
    def test_bits_of_np_linalg_inv(self, complex_):
        rng = np.random.default_rng(84)
        for n in range(1, 9):
            for k in range(1, 9):
                V = random_stack(rng, k, n, complex_)
                rows, Vi, _, _ = nonsingular_inverses(V)
                want = np.linalg.inv(V)
                assert rows == list(range(k))
                assert Vi.dtype == want.dtype and Vi.shape == want.shape
                assert Vi.tobytes() == want.tobytes()

    @pytest.mark.parametrize("complex_", (False, True), ids=("real", "complex"))
    def test_zero_pivot_row_dropped(self, complex_):
        rng = np.random.default_rng(85)
        V = random_stack(rng, 6, 5, complex_)
        V[2][:, 3] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(V[2])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows, Vi, _, _ = nonsingular_inverses(V)
        assert rows == [0, 1, 3, 4, 5]
        assert Vi.tobytes() == np.linalg.inv(V[rows]).tobytes()

    @pytest.mark.parametrize("dtype", (np.float32, np.int64))
    def test_inverted_in_double(self, dtype):
        rng = np.random.default_rng(86)
        V = rng.integers(-4, 5, (8, 4, 4)) + 20 * np.eye(4, dtype=int)
        V = V.astype(dtype)
        rows, Vi, _, _ = nonsingular_inverses(V)
        want = np.linalg.inv(V.astype(np.float64))
        assert rows == list(range(8))
        assert Vi.dtype == np.float64 and Vi.tobytes() == want.tobytes()


def inverse_stacks():
    """The stacks `TestInverseGufunc` and `TestNonFiniteInverse` invert:
    well-conditioned real and complex stacks of every size up to 8, a
    stack with an exact zero pivot in one row, integer and float32 stacks,
    a stack with an overflowing inverse and the non-finite matrices."""
    rng = np.random.default_rng(89)
    stacks = [random_stack(rng, k, n, complex_)
              for complex_ in (False, True) for n in range(1, 9) for k in (1, 3, 8)]
    for complex_ in (False, True):
        V = random_stack(rng, 6, 5, complex_)
        V[2][:, 3] = 0.0
        stacks.append(V)
    ints = rng.integers(-4, 5, (8, 4, 4)) + 20 * np.eye(4, dtype=int)
    stacks += [ints, ints.astype(np.float32)]
    stacks.append(np.array([conditioned_stack(rng, 4, [10.0])[0],
                            1e-310 * conditioned_stack(rng, 4, [10.0])[0],
                            np.eye(4)]))
    stacks += [np.array([M, np.eye(2)]) for M in NON_FINITE]
    return stacks


class TestInverseFallback:
    """Where numpy lacks the private inverse gufunc, or it rejects the
    signature `nonsingular_inverses` passes, the stack is inverted by
    `np.linalg.inv`: the same rule decides the same rows, with the same
    bits."""

    def test_probe_binds_the_gufunc(self):
        assert linalg._INV is not None
        assert linalg._inverse_gufunc(linalg._umath_linalg) is linalg._INV

    @pytest.mark.parametrize("module", (
        None,
        SimpleNamespace(),
        SimpleNamespace(inv=np.linalg.inv),  # takes no signature
        SimpleNamespace(inv=lambda a, signature: a),  # not an inverse
    ), ids=("no-module", "no-inv", "no-signature", "wrong-result"))
    def test_probe_rejects(self, module):
        assert linalg._inverse_gufunc(module) is None

    def test_same_rows_and_bits(self, monkeypatch):
        stacks = inverse_stacks()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            want = [nonsingular_inverses(V) for V in stacks]
            monkeypatch.setattr(linalg, "_INV", None)
            got = [nonsingular_inverses(V) for V in stacks]
        # every kind of row occurs: all accepted, some dropped
        assert any(len(w[0]) == len(V) for w, V in zip(want, stacks))
        assert any(len(w[0]) < len(V) for w, V in zip(want, stacks))
        for (rows, *arrays), (want_rows, *want_arrays) in zip(got, want):
            assert rows == want_rows
            for a, b in zip(arrays, want_arrays):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes()

    def test_zero_pivot_stack_inverted_row_by_row(self, monkeypatch):
        rng = np.random.default_rng(90)
        V = random_stack(rng, 4, 3)
        V[1][:, 0] = 0.0
        monkeypatch.setattr(linalg, "_INV", None)
        Vi = linalg._stack_inverses(V)
        assert np.isnan(Vi[1]).all()
        assert Vi[[0, 2, 3]].tobytes() == np.linalg.inv(V[[0, 2, 3]]).tobytes()


class TestNonFiniteInverse:
    """An inverse that is not finite makes its row singular, even where
    its singular values pass: V ~ 1e-310 is well conditioned, but its
    inverse overflows."""

    @staticmethod
    def overflowing(rng, n):
        V = 1e-310 * conditioned_stack(rng, n, [10.0])[0]
        s = np.linalg.svd(V[None], compute_uv=False)
        assert nonsingular_rows(s) == [0]
        return V

    def test_row_dropped_and_inverse_raises(self):
        rng = np.random.default_rng(87)
        V = np.array([conditioned_stack(rng, 4, [10.0])[0],
                      self.overflowing(rng, 4),
                      conditioned_stack(rng, 4, [10.0])[0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows, Vi, _, _ = nonsingular_inverses(V)
            assert rows == [0, 2]
            assert Vi.tobytes() == np.linalg.inv(V[rows]).tobytes()
            with pytest.raises(SingularMatrixError) as err:
                nonsingular_inverse(V[1])
        assert err.value.cond == np.inf

    def test_no_svd_when_every_uncertified_row_is_non_finite(self, monkeypatch):
        rng = np.random.default_rng(88)
        zero_pivot = rng.standard_normal((4, 4))
        zero_pivot[:, 1] = 0.0
        V = np.array([conditioned_stack(rng, 4, [10.0])[0], zero_pivot,
                      self.overflowing(rng, 4)])

        def no_svd(*args, **kwargs):
            raise AssertionError("SVD taken")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows, Vi, sq_V, sq_Vi = nonsingular_inverses(V)
        assert rows == [0] and Vi.shape == (1, 4, 4)
        assert sq_V.shape == sq_Vi.shape == (1,)



# an all-NaN matrix, a single NaN entry, and an infinite entry whose
# inverse is finite
NON_FINITE = (
    np.full((2, 2), np.nan),
    np.array([[1.0, np.nan], [0.0, 1.0]]),
    np.array([[np.inf, 0.0], [0.0, 1.0]]),
)


class TestNonFiniteMatrix:
    """A matrix with a NaN or infinite entry is singular with cond=inf, and
    no SVD is taken: LAPACK's SVD does not converge on a NaN."""

    @pytest.mark.parametrize("M", NON_FINITE)
    def test_singular_without_svd(self, M, monkeypatch):
        def no_svd(*args, **kwargs):
            raise AssertionError("SVD taken")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        with pytest.raises(SingularMatrixError) as err:
            nonsingular_inverse(M)
        assert err.value.cond == np.inf
        # in a stack, only the matrix's own row is dropped
        rows, Vi, _, _ = nonsingular_inverses(np.array([M, np.eye(2)]))
        assert rows == [1] and np.array_equal(Vi[0], np.eye(2))

    @pytest.mark.parametrize("M", NON_FINITE)
    def test_condition_numbers_raise_singular(self, M):
        for kappa in (pp.kappa_fro, pp.kappa_2):
            with pytest.raises(SingularMatrixError) as err:
                kappa(M)
            assert err.value.cond == np.inf
