import dataclasses

import numpy as np
import pytest

import poleplace as pp
from poleplace import metrics, optimize
from poleplace.linalg import fro_norm, nonsingular_rows
from poleplace.metrics import assigned_departure_sq, spectrum_mass
from poleplace.placement import residual_ok
from conftest import place_random, random_admissible_spec, random_reachable


def count_calls(monkeypatch, module, name):
    """Replace module.name by a wrapper that records its calls."""
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestConditionNumbers:
    def test_identity(self):
        assert pp.kappa_fro(np.eye(4)) == pytest.approx(4.0)
        assert pp.kappa_2(np.eye(4)) == pytest.approx(1.0)

    def test_diagonal_closed_form(self):
        X = np.diag([1.0, 10.0])
        assert pp.kappa_2(X) == pytest.approx(10.0)
        assert pp.kappa_fro(X) == pytest.approx(np.sqrt(101.0) * np.sqrt(1.01))

    def test_spectral_below_frobenius(self):
        rng = np.random.default_rng(30)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            X = rng.standard_normal((n, n))
            try:
                assert pp.kappa_2(X) <= pp.kappa_fro(X) * (1 + 1e-12)
            except pp.SingularMatrixError:
                continue

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            pp.kappa_fro(np.ones((3, 2)))

    def test_singular_raises(self):
        X = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(pp.SingularMatrixError):
            pp.kappa_fro(X)
        # an exact zero pivot is singular, also where an infinite limit
        # lets its singular values (sigma_min ~ 1e-17) through
        tol = pp.ToleranceConfig(singular_cond_limit=np.inf)
        rng = np.random.default_rng(34)
        svd_passed = 0
        for _ in range(8):
            X = rng.standard_normal((4, 4))
            X[:, int(rng.integers(4))] = 0.0
            s = np.linalg.svd(X[None], compute_uv=False)
            svd_passed += bool(nonsingular_rows(s, tol))
            for kappa in (pp.kappa_fro, pp.kappa_2):
                with pytest.raises(pp.SingularMatrixError) as err:
                    kappa(X, tol)
                assert err.value.cond == np.inf
        assert svd_passed > 0

    def test_am_gm_chain(self):
        # ||V||^2 + ||V^-1||^2 >= 2 kappa_fro(V) >= 2n
        rng = np.random.default_rng(31)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            V = rng.standard_normal((n, n))
            s = np.linalg.svd(V, compute_uv=False)
            if s[-1] < 1e-8:
                continue
            surrogate = np.sum(s**2) + np.sum(s**-2)
            kf = pp.kappa_fro(V)
            assert surrogate >= 2.0 * kf * (1 - 1e-12)
            assert kf >= n * (1 - 1e-12)


class TestDepartureFromNormality:
    def test_symmetric_is_normal(self):
        rng = np.random.default_rng(32)
        A = rng.standard_normal((5, 5))
        A = A + A.T
        assert pp.departure_from_normality(A) < 1e-10 * fro_norm(A)

    def test_single_jordan_block(self):
        assert pp.departure_from_normality(np.array([[0.0, 1.0], [0.0, 0.0]])) \
            == pytest.approx(1.0)

    def test_trace_identity(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            A = rng.standard_normal((6, 6))
            delta = pp.departure_from_normality(A)
            lam = np.linalg.eigvals(A)
            identity = np.sqrt(max(fro_norm(A) ** 2 - np.sum(np.abs(lam) ** 2), 0.0))
            assert delta == pytest.approx(identity, rel=1e-9, abs=1e-9)


class TestAssignedDeparture:
    @pytest.mark.parametrize("n", [4, 5, 6, 8, 16])
    def test_matches_schur_on_placements(self, n, monkeypatch):
        # semisimple spectra (max_block=1, so repeated eigenvalues have order
        # 1 blocks): a defective eigenvalue's computed Schur eigenvalues move
        # by ~eps^(1/p), so there the Schur form is no 1e-12 reference
        schur = count_calls(monkeypatch, metrics, "departure_from_normality")
        rng = np.random.default_rng(70 + n)
        for _ in range(8):
            sys = random_reachable(rng, n, 2)
            spec = random_admissible_spec(rng, sys, max_block=1)
            _, res = place_random(rng, sys, spec)
            assert residual_ok(sys, res, pp.ToleranceConfig())
            Acl = sys.A + sys.B @ res.F
            value = assigned_departure_sq(Acl, spectrum_mass(spec))
            reference = pp.departure_from_normality(Acl) ** 2
            assert value == pytest.approx(reference, rel=1e-12)
        assert not schur  # every value came from the identity

    def test_spectrum_mass_counts_multiplicity(self):
        spec = pp.EigStructure((1 + 2j, 1 - 2j, -3.0), ((2,), (2,), (1, 1)))
        assert spectrum_mass(spec) == 2 * 5.0 + 2 * 5.0 + 2 * 9.0

    def test_near_normal_loop_takes_schur_branch(self, monkeypatch):
        # B = I and the target Q Lambda Q^T: the loop is symmetric, so
        # delta_fro = 0 and the identity would return pure roundoff
        rng = np.random.default_rng(56)
        A = rng.standard_normal((4, 4))
        sys = pp.System(A, np.eye(4))
        spec = pp.EigStructure((-1.0, -2.0, -3.0, -4.0), ((1,),) * 4)
        Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        F = Q @ np.diag([-4.0, -3.0, -2.0, -1.0]) @ Q.T - A
        K = pp.recover_parameters(sys, spec, pp.chains_from_feedback(sys, spec, F))
        res = pp.place(sys, spec, K)
        tol = pp.ToleranceConfig()
        assert residual_ok(sys, res, tol)
        schur = count_calls(monkeypatch, metrics, "departure_from_normality")
        delta = optimize.placement_metrics(sys, spec, res, tol)["delta_fro"]
        assert len(schur) == 1
        assert delta < 1e-10 * fro_norm(sys.A + sys.B @ res.F)

    def test_failed_residual_takes_schur(self, monkeypatch):
        # a placement that fails residual_ok need not have the assigned
        # spectrum, so its delta_fro must not come from the identity
        rng = np.random.default_rng(57)
        sys = random_reachable(rng, 4, 2)
        spec = pp.EigStructure((-1.0, -2.0, -3.0, -4.0), ((1,),) * 4)
        _, res = place_random(rng, sys, spec)
        bad = dataclasses.replace(res, residual=1.0)
        tol = pp.ToleranceConfig()
        assert not residual_ok(sys, bad, tol)
        schur = count_calls(monkeypatch, optimize, "departure_from_normality")
        delta = optimize.placement_metrics(sys, spec, bad, tol)["delta_fro"]
        assert len(schur) == 1
        assert delta == pp.departure_from_normality(sys.A + sys.B @ res.F)


class TestSensitivityBound:
    def test_zero_perturbation(self):
        spec = pp.EigStructure((-1.0, -2.0), ((1,), (1,)))
        X = np.array([[1.0, 1.0], [0.0, 1.0]])
        assert pp.sensitivity_bound_check(X, np.zeros((2, 2)), spec)

    def test_diagonalizable_reduces_to_bauer_fike(self):
        rng = np.random.default_rng(34)
        spec = pp.EigStructure((-1.0, -2.0, -3.0), ((1,), (1,), (1,)))
        for _ in range(50):
            X = rng.standard_normal((3, 3))
            if np.linalg.cond(X) > 1e3:
                continue
            H = 1e-4 * rng.standard_normal((3, 3))
            assert pp.sensitivity_bound_check(X, H, spec)

    def test_defective_square_root_growth(self):
        # closed-loop double integrator: A = J_2(0), X = I
        spec = pp.EigStructure((0.0,), ((2,),))
        X = np.eye(2)
        for eps in (1e-4, 1e-6, 1e-8, 1e-10):
            H = np.zeros((2, 2))
            H[1, 0] = eps
            assert pp.sensitivity_bound_check(X, H, spec)
            observed = np.abs(np.linalg.eigvals(np.array([[0.0, 1.0], [0.0, 0.0]]) + H)).max()
            assert observed == pytest.approx(np.sqrt(eps), rel=1e-6)

    def test_roundoff_of_forming_A_is_not_a_violation(self):
        # H = 0, so the bound is the rounding of A = X Lambda X^-1 alone;
        # X = U diag(logspace(0, -7, 4)) W^T has kappa_2(X) = 1e7
        rng = np.random.default_rng(36)
        spec = pp.EigStructure((-1.0, -2.0, -3.0, -4.0), ((1,),) * 4)
        for _ in range(100):
            U, W = (np.linalg.qr(rng.standard_normal((4, 4)))[0] for _ in range(2))
            X = (U * np.logspace(0, -7, 4)) @ W.T
            assert pp.kappa_2(X) == pytest.approx(1e7, rel=1e-6)
            assert pp.sensitivity_bound_check(X, np.zeros((4, 4)), spec)

    def test_defective_random_trials(self):
        rng = np.random.default_rng(35)
        spec = pp.EigStructure((0.0, -2.0), ((3,), (1,)))
        X = np.eye(4) + 0.1 * rng.standard_normal((4, 4))
        for _ in range(50):
            H = 1e-3 * rng.standard_normal((4, 4))
            H *= 1e-3 / max(np.linalg.norm(H, 2), 1e-300)
            assert pp.sensitivity_bound_check(X, H, spec)
