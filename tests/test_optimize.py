import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import poleplace as pp
from poleplace import linalg, optimize
from poleplace.bench import defective_zero_structure
from poleplace.linalg import checked_svals, fro_norm
from poleplace.metrics import (
    _IDENTITY_FLOOR,
    assigned_departure_sq,
    departure_from_normality,
    spectrum_mass,
)
from poleplace.optimize import (
    _Evaluator,
    _fd_gradient,
    is_f_unique,
    unique_parameter,
)
from conftest import (
    realify,
    random_reachable,
    split_limit,
    start_conds,
    zero_column_draw,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def double_integrator():
    return pp.System(np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0], [1.0]]))


def gradient_structures(m):
    """Simple, complex-pair and defective 4-state structures for m inputs."""
    if m == 1:
        defective = pp.EigStructure((-1.0, -2.0), ((2,), (2,)))
    else:
        defective = pp.EigStructure((-1.0, -2.0), ((2, 1), (1,)))
    return {
        "simple": pp.EigStructure((-1.0, -2.0, -3.0, -4.0), ((1,),) * 4),
        "complex_pair": pp.EigStructure(
            (-1 + 2j, -1 - 2j, -2.0, -3.0), ((1,),) * 4
        ),
        "defective": defective,
    }


GRADIENT_CASES = [
    (m, name) for m in (1, 2, 3) for name in ("simple", "complex_pair", "defective")
]


def well_conditioned_probes(placer, rng, count, cond_limit=1e3):
    """Free-coordinate vectors whose V has cond(V) <= cond_limit."""
    m, n = placer.sys.m, placer.sys.n
    probes = []
    for _ in range(200):
        x = rng.standard_normal(m * n)
        K = pp.ParameterMatrix.from_vector(placer.spec, m, x)
        try:
            if placer.place(K).cond_V <= cond_limit:
                probes.append(x)
        except pp.SingularMatrixError:
            continue
        if len(probes) == count:
            return probes
    raise RuntimeError("too few well-conditioned probes")


class TestSpecs:
    def test_objective_spec_validation(self):
        with pytest.raises(ValueError):
            pp.ObjectiveSpec("both", 0.5)
        with pytest.raises(ValueError):
            pp.ObjectiveSpec("condition", 1.5)

    def test_options_validation(self):
        with pytest.raises(ValueError):
            pp.OptOptions(restarts=0)
        with pytest.raises(ValueError):
            pp.OptOptions(tol_grad=0.0)
        with pytest.raises(ValueError):
            pp.OptOptions(tol_grad=float("nan"))
        with pytest.raises(ValueError):
            pp.OptOptions(seed=-1)

    @pytest.mark.parametrize("field,value", [
        ("restarts", 1.5), ("max_iters", 2.5), ("seed", 1.5),
        ("restarts", 2.0), ("seed", np.float64(3.0)),
        ("restarts", True), ("max_iters", True), ("seed", False),
        ("tol_grad", float("inf")),
    ])
    def test_options_reject_non_integral_counts_and_infinite_tolerance(
        self, field, value
    ):
        # each of these used to pass and then fail inside numpy (TypeError)
        # or, for tol_grad = inf, stop every restart at once
        with pytest.raises(ValueError, match=field):
            pp.OptOptions(**{field: value})

    def test_options_accept_numpy_integers(self):
        opts = pp.OptOptions(restarts=np.int64(2), max_iters=np.int32(5),
                             seed=np.uint8(3))
        sys = random_reachable(np.random.default_rng(39), 3, 2)
        spec = pp.EigStructure((-1.0, -2.0, -3.0), ((1,), (1,), (1,)))
        result = pp.minimize(pp.ObjectiveSpec("condition", 1.0), sys, spec, opts)
        reference = pp.minimize(pp.ObjectiveSpec("condition", 1.0), sys, spec,
                                pp.OptOptions(restarts=2, max_iters=5, seed=3))
        assert result.traces == reference.traces


class TestObjectives:
    def test_f1_alpha_zero_is_squared_gain(self):
        rng = np.random.default_rng(40)
        sys = random_reachable(rng, 4, 2)
        spec = pp.EigStructure((-1.0, -2.0, -3.0, -4.0), ((1,), (1,), (1,), (1,)))
        K = pp.ParameterMatrix.random(spec, 2, rng)
        res = pp.place(sys, spec, K)
        assert pp.objective_f1(K, sys, spec, 0.0) == pytest.approx(
            fro_norm(res.F) ** 2, rel=1e-12
        )

    def test_f1_alpha_one_amgm_floor(self):
        rng = np.random.default_rng(41)
        sys = random_reachable(rng, 4, 2)
        spec = pp.EigStructure((-1.0, -2.0, -3.0, -4.0), ((1,), (1,), (1,), (1,)))
        for _ in range(20):
            K = pp.ParameterMatrix.random(spec, 2, rng)
            assert pp.objective_f1(K, sys, spec, 1.0) >= 2 * sys.n * (1 - 1e-12)

    def test_f1_single_input_gain_term_constant(self):
        rng = np.random.default_rng(42)
        sys = random_reachable(rng, 3, 1)
        spec = pp.EigStructure((-1.0, -2.0, -3.0), ((1,), (1,), (1,)))
        values = []
        for _ in range(50):
            K = pp.ParameterMatrix.random(spec, 1, rng)
            try:
                values.append(pp.objective_f1(K, sys, spec, 0.0))
            except pp.SingularMatrixError:
                continue
        # the feedback is unique, so the value is the one at K* on every draw
        assert len(values) >= 40
        assert len(set(values)) == 1

    def test_f2_alpha_zero_is_squared_gain(self):
        rng = np.random.default_rng(43)
        sys = random_reachable(rng, 3, 2)
        spec = pp.EigStructure((-1.0, -2.0, -3.0), ((1,), (1,), (1,)))
        K = pp.ParameterMatrix.random(spec, 2, rng)
        res = pp.place(sys, spec, K)
        assert pp.objective_f2(K, sys, spec, 0.0) == pytest.approx(
            fro_norm(res.F) ** 2, rel=1e-12
        )

    def test_f2_zero_for_achievable_normal_loop(self):
        # with B = I the loop A + F = diag(spec) is normal, so f2(alpha=1) = 0
        rng = np.random.default_rng(44)
        A = rng.standard_normal((3, 3))
        sys = pp.System(A, np.eye(3))
        spec = pp.EigStructure((-1.0, -2.0, -3.0), ((1,), (1,), (1,)))
        F = np.diag([-3.0, -2.0, -1.0]) - A  # conformable order is ascending
        chains = pp.chains_from_feedback(sys, spec, F)
        K = pp.recover_parameters(sys, spec, chains)
        assert pp.objective_f2(K, sys, spec, 1.0) < 1e-20

    def test_f2_trace_identity_oracle(self):
        rng = np.random.default_rng(45)
        sys = random_reachable(rng, 4, 2)
        spec = pp.EigStructure((-1.0, -2.0, -3.0, -4.0), ((1,), (1,), (1,), (1,)))
        K = pp.ParameterMatrix.random(spec, 2, rng)
        res = pp.place(sys, spec, K)
        Acl = sys.A + sys.B @ res.F
        lam = np.linalg.eigvals(Acl)
        delta_sq = fro_norm(Acl) ** 2 - float(np.sum(np.abs(lam) ** 2))
        alpha = 0.7
        expected = alpha * delta_sq + (1 - alpha) * fro_norm(res.F) ** 2
        assert pp.objective_f2(K, sys, spec, alpha) == pytest.approx(expected, rel=1e-8)


class TestAlphaOne:
    @pytest.mark.parametrize("name", ("simple", "complex_pair", "defective"))
    def test_value_is_the_blended_formula(self, name):
        # at alpha = 1 the value skips the gain term, which is +0.0 there
        spec = gradient_structures(2)[name]
        sys = random_reachable(np.random.default_rng(80), 4, 2)
        placer = pp.Placer(sys, spec)
        rng = np.random.default_rng(81)
        alpha = 1.0
        for x in well_conditioned_probes(placer, rng, 3):
            K = pp.ParameterMatrix.from_vector(spec, 2, x)
            VW = (placer.operator() @ x).reshape(6, 4)
            V, W = VW[:4], VW[4:]
            Vi = np.linalg.inv(V)
            F = W @ Vi
            gain = (1.0 - alpha) * fro_norm(F) ** 2
            v, vi = V.ravel(), Vi.ravel()
            cond = float(v @ v) + float(vi @ vi)
            assert pp.objective_f1(K, sys, spec, alpha) == alpha * cond + gain
            # the same term from V's singular values
            s = np.linalg.svd(V, compute_uv=False)
            assert cond == pytest.approx(np.sum(s**2) + np.sum(s**-2), rel=1e-12)
            # the loop A + B F as V Lambda_R V^-1
            M = V @ placer._real_jordan[0] @ Vi
            normal = assigned_departure_sq(M, spectrum_mass(spec))
            assert pp.objective_f2(K, sys, spec, alpha) == alpha * normal + gain


class TestGradient:
    def test_constant_objective_gives_zero_gradient(self):
        rng = np.random.default_rng(46)
        sys = random_reachable(rng, 3, 1)
        spec = pp.EigStructure((-1.0, -2.0, -3.0), ((1,), (1,), (1,)))
        K = pp.ParameterMatrix.random(spec, 1, rng)
        g = pp.gradient(pp.ObjectiveSpec("condition", 0.0), K, sys, spec)
        assert np.linalg.norm(g) <= 1e-6

    def test_singular_base_point_raises(self):
        sys = random_reachable(np.random.default_rng(46), 3, 1)
        spec = pp.EigStructure((-1.0, -2.0, -3.0), ((1,), (1,), (1,)))
        K = pp.ParameterMatrix.from_vector(spec, 1, np.zeros(3))  # V = 0
        with pytest.raises(pp.SingularMatrixError, match="evaluation point"):
            pp.gradient(pp.ObjectiveSpec("condition", 1.0), K, sys, spec)

    def test_quadratic_functional_exact(self):
        # central differences are exact on quadratics up to roundoff
        rng = np.random.default_rng(47)
        dim = 8
        Q = rng.standard_normal((dim, dim))
        Q = Q @ Q.T + np.eye(dim)
        b = rng.standard_normal(dim)
        f = lambda x: (0.5 * x @ Q @ x + b @ x, True)
        x = rng.standard_normal(dim)
        g, flags = _fd_gradient(f, x, float(np.finfo(float).eps ** (1 / 3)))
        exact = Q @ x + b
        assert not flags.any()
        assert np.abs(g - exact).max() <= 1e-10 * (1 + np.abs(exact).max())

    def test_singular_probe_falls_back_to_one_side(self):
        # a singular_cond_limit between cond V(x) and the larger cond of
        # coordinate j's two central-difference probes: g[j] is the
        # one-sided difference through the other probe
        rng = np.random.default_rng(49)
        sys = random_reachable(rng, 3, 2)
        spec = pp.EigStructure((-1.0, -2.0, -3.0), ((1,), (1,), (1,)))
        placer = pp.Placer(sys, spec)
        x = well_conditioned_probes(placer, rng, 1)[0]
        j = 1
        h = optimize._FD_STEP * (1.0 + abs(x[j]))
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        K, Kp, Km = (pp.ParameterMatrix.from_vector(spec, sys.m, v)
                     for v in (x, xp, xm))
        c0, cp, cm = (placer.place(k).cond_V for k in (K, Kp, Km))
        assert min(cp, cm) < c0 < max(cp, cm)
        tol = pp.ToleranceConfig(singular_cond_limit=0.5 * (c0 + max(cp, cm)))
        f = lambda k, t=tol: pp.objective_f1(k, sys, spec, 1.0, t)
        if cp < cm:
            one_sided = (f(Kp) - f(K)) / h
        else:
            one_sided = (f(K) - f(Km)) / h
        with pytest.raises(pp.SingularMatrixError):
            f(Km if cp < cm else Kp)
        g = pp.gradient(pp.ObjectiveSpec("condition", 1.0), K, sys, spec, tol)
        assert g[j] == one_sided
        loose = pp.ToleranceConfig()
        central = (f(Kp, loose) - f(Km, loose)) / (2.0 * h)
        assert g[j] != central
        assert g[j] == pytest.approx(central, rel=1e-4)

    def test_step_halving_richardson_ratio(self):
        rng = np.random.default_rng(48)
        sys = random_reachable(rng, 3, 2)
        spec = pp.EigStructure((-1.0, -2.0, -3.0), ((1,), (1,), (1,)))
        obj = pp.ObjectiveSpec("condition", 1.0)
        evaluate = _Evaluator(obj, pp.Placer(sys, spec))
        checked = 0
        for _ in range(20):
            x = rng.standard_normal(sys.m * sys.n)
            if not evaluate(x)[1]:
                continue
            u = rng.standard_normal(x.size)
            u /= np.linalg.norm(u)
            h = 1e-2

            def dd(step):
                fp, okp = evaluate(x + step * u)
                fm, okm = evaluate(x - step * u)
                assert okp and okm
                return (fp - fm) / (2 * step)

            d1, d2, d4 = dd(h), dd(h / 2), dd(h / 4)
            if abs(d2 - d4) < 1e-9 * (1 + abs(d1)):
                continue  # cubic term too small to resolve the ratio
            ratio = (d1 - d2) / (d2 - d4)
            assert 3.5 <= ratio <= 4.5
            checked += 1
        assert checked >= 10


class TestAnalyticGradient:
    @pytest.mark.parametrize("m,name", GRADIENT_CASES)
    def test_operator_is_the_placement_map(self, m, name):
        spec = gradient_structures(m)[name]
        sys = random_reachable(np.random.default_rng(60 + m), 4, m)
        placer = pp.Placer(sys, spec)
        L = placer.operator()
        assert L.shape == ((4 + m) * 4, m * 4)
        assert placer.operator() is L
        rng = np.random.default_rng(61)
        for _ in range(5):
            K = pp.ParameterMatrix.random(spec, m, rng)
            VW = np.vstack(realify(placer.build_chains(K))).ravel()
            err = np.linalg.norm(L @ K.to_vector() - VW)
            assert err <= 1e-12 * np.linalg.norm(VW)

    @pytest.mark.parametrize("m,name", GRADIENT_CASES)
    def test_matches_finite_differences(self, m, name):
        spec = gradient_structures(m)[name]
        sys = random_reachable(np.random.default_rng(100 + m), 4, m)
        assert pp.check_admissible(spec, sys).satisfied
        placer = pp.Placer(sys, spec)
        rng = np.random.default_rng(62)
        for x in well_conditioned_probes(placer, rng, 3):
            K = pp.ParameterMatrix.from_vector(spec, m, x)
            for method in ("condition", "normality"):
                for alpha in (0.0, 0.6, 1.0):
                    obj = pp.ObjectiveSpec(method, alpha)
                    evaluate = _Evaluator(obj, placer)
                    fd = pp.gradient(obj, K, sys, spec)
                    if evaluate.fixed is not None:
                        # F-unique: minimize does not search, FD is zero
                        assert not fd.any()
                        continue
                    pt = evaluate.point(x)
                    g = evaluate.grad(pt)
                    assert pt.value == evaluate(x)[0]
                    err = np.linalg.norm(g - fd)
                    assert err <= 1e-5 * np.linalg.norm(fd), (method, alpha)

    @pytest.mark.parametrize("name", ["simple", "complex_pair"])
    def test_normality_gradient_matches_schur_differences(self, name):
        # an oracle independent of Henrici's identity: central differences
        # of the Schur-form delta_fro^2 of each probe's placement
        spec = gradient_structures(2)[name]
        sys = random_reachable(np.random.default_rng(102), 4, 2)
        placer = pp.Placer(sys, spec)
        evaluate = _Evaluator(pp.ObjectiveSpec("normality", 1.0), placer)

        def schur_value(x):
            res = placer.place(pp.ParameterMatrix.from_vector(spec, 2, x))
            return pp.departure_from_normality(sys.A + sys.B @ res.F) ** 2, True

        for x in well_conditioned_probes(placer, np.random.default_rng(65), 3):
            fd, flags = _fd_gradient(schur_value, x, optimize._FD_STEP)
            assert not flags.any()
            g = evaluate.grad(evaluate.point(x))
            assert np.linalg.norm(g - fd) <= 1e-5 * np.linalg.norm(fd)

    @pytest.mark.parametrize("method", ("condition", "normality"))
    def test_singular_point_rejected(self, method):
        sys = random_reachable(np.random.default_rng(63), 4, 2)
        spec = gradient_structures(2)["simple"]
        obj = pp.ObjectiveSpec(method, 1.0)
        evaluate = _Evaluator(obj, pp.Placer(sys, spec))
        assert evaluate.point(np.zeros(8)) is None
        assert evaluate(np.zeros(8)) == (float("inf"), False)
        # an exact zero column of V whose singular values pass an infinite
        # limit: the zero pivot rejects it all the same, and no
        # LinAlgError escapes the evaluator or place
        placer = pp.Placer(sys, spec, pp.ToleranceConfig(singular_cond_limit=np.inf))
        evaluate = _Evaluator(obj, placer)
        rng = np.random.default_rng(66)
        good = well_conditioned_probes(placer, rng, 2)
        passed = 0
        for _ in range(10):
            K = zero_column_draw(placer, rng, 1)
            x = K.to_vector()
            V = (placer.operator() @ x).reshape(6, 4)[:4]
            passed += np.linalg.svd(V, compute_uv=False)[-1] > 0
            assert evaluate.point(x) is None
            assert evaluate.points(np.array([good[0], x, good[1]])).rows == [0, 2]
            with pytest.raises(pp.SingularMatrixError) as exc:
                placer.place(K)
            assert exc.value.cond == np.inf
        assert passed > 0

    @pytest.mark.parametrize("method,alpha", (("condition", 1.0),
                                              ("normality", 1.0),
                                              ("condition", 0.5)))
    def test_non_finite_inverse_rejected(self, method, alpha):
        # V ~ 1e-310 is well conditioned, so its singular values pass, but
        # its inverse overflows to a non-finite matrix: singular, not a NaN
        # F, residual or value
        sys = random_reachable(np.random.default_rng(63), 4, 2)
        spec = gradient_structures(2)["simple"]
        placer = pp.Placer(sys, spec)
        evaluate = _Evaluator(pp.ObjectiveSpec(method, alpha), placer)
        x = 1e-310 * well_conditioned_probes(placer, np.random.default_rng(67), 1)[0]
        V = (placer.operator() @ x).reshape(6, 4)[:4]
        s = np.linalg.svd(V, compute_uv=False)
        assert s[0] / s[-1] <= 1e3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert evaluate(x) == (float("inf"), False)
            with pytest.raises(pp.SingularMatrixError) as exc:
                placer.place(pp.ParameterMatrix.from_vector(spec, 2, x))
        assert exc.value.cond == np.inf


def loop_structure(rng, n, cls):
    """A conformably ordered n-state structure with about n/4 conjugate
    pairs: simple, repeated (two order-one blocks per eigenvalue) or
    defective (one order-two block per eigenvalue)."""
    count = n if cls == "simple" else n // 2
    pairs = [complex(-rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0))
             for _ in range(max(1, count // 4))]
    eigs = [z for lam in pairs for z in (lam, lam.conjugate())]
    eigs += [-float(v) for v in rng.uniform(0.2, 2.0, count - len(eigs))]
    orders = {"simple": (1,), "repeated": (1, 1), "defective": (2,)}[cls]
    spec = pp.EigStructure(tuple(eigs), (orders,) * count)
    return pp.normalize_ordering(spec)[0]


class TestNormalityFromV:
    """Every placed loop is A + B F = V Lambda_R V^-1, so the normality
    objective reads V alone: the loop from V agrees with the one from F to
    the rounding of forming either, and the gradient differentiates it."""

    @pytest.mark.parametrize("cls", ("simple", "repeated", "defective"))
    def test_loop_from_v_within_its_rounding(self, cls):
        # ||V Lambda_R V^-1 - (A + B F)||_F <= n eps cond(V) ||A + B F||_F
        eps = np.finfo(float).eps
        rng = np.random.default_rng(110)
        checked = 0
        for n, m in ((4, 2), (6, 2), (8, 2), (8, 4), (12, 3), (16, 4), (16, 8)):
            for _ in range(50):
                sys, spec = random_reachable(rng, n, m), loop_structure(rng, n, cls)
                if pp.check_admissible(spec, sys).satisfied:
                    break
            assert spec.sigma > 0
            placer = pp.Placer(sys, spec)
            LR = placer._real_jordan[0]
            for _ in range(4):
                try:
                    res = placer.place(pp.ParameterMatrix.random(spec, m, rng))
                except pp.SingularMatrixError:
                    continue
                Acl = sys.A + sys.B @ res.F
                M = res.V @ LR @ np.linalg.inv(res.V)
                bound = n * eps * res.cond_V * fro_norm(Acl)
                assert fro_norm(M - Acl) <= bound, (n, m, res.cond_V)
                checked += 1
        assert checked >= 20

    @pytest.mark.parametrize("alpha", (0.5, 1.0))
    @pytest.mark.parametrize("case", range(4))
    def test_gradient_matches_finite_differences(self, case, alpha):
        # n = 4..6 with a pair and simple, repeated or defective reals
        sys, spec = normality_instances()[case]
        obj = pp.ObjectiveSpec("normality", alpha)
        placer = pp.Placer(sys, spec)
        evaluate = _Evaluator(obj, placer)
        assert evaluate.v_only == (alpha == 1.0)
        for x in well_conditioned_probes(placer, np.random.default_rng(111), 3):
            K = pp.ParameterMatrix.from_vector(spec, sys.m, x)
            fd = pp.gradient(obj, K, sys, spec)
            g = evaluate.grad(evaluate.point(x))
            assert np.linalg.norm(g - fd) <= 1e-5 * np.linalg.norm(fd)

    @pytest.mark.parametrize("name", ["simple", "complex_pair"])
    def test_blended_gradient_matches_schur_differences(self, name):
        # at alpha = 0.5, an oracle independent of the loop from V: central
        # differences of the Schur-form delta_fro^2 of A + B F and the gain
        # of each probe's placement
        spec = gradient_structures(2)[name]
        sys = random_reachable(np.random.default_rng(102), 4, 2)
        placer = pp.Placer(sys, spec)
        evaluate = _Evaluator(pp.ObjectiveSpec("normality", 0.5), placer)

        def schur_value(x):
            res = placer.place(pp.ParameterMatrix.from_vector(spec, 2, x))
            robust = pp.departure_from_normality(sys.A + sys.B @ res.F) ** 2
            return 0.5 * robust + 0.5 * fro_norm(res.F) ** 2, True

        for x in well_conditioned_probes(placer, np.random.default_rng(65), 3):
            fd, flags = _fd_gradient(schur_value, x, optimize._FD_STEP)
            assert not flags.any()
            g = evaluate.grad(evaluate.point(x))
            assert np.linalg.norm(g - fd) <= 1e-5 * np.linalg.norm(fd)


class TestTerminations:
    @staticmethod
    def corpus_case(name):
        sf = pp.load_system(CORPUS / f"{name}.json")
        return sf.system, defective_zero_structure(sf.system)

    def test_bn01_restarts_reach_gradient_tolerance(self):
        sys, spec = self.corpus_case("bn01_reactor")
        result = pp.minimize(
            pp.ObjectiveSpec("condition", 1.0), sys, spec,
            pp.OptOptions(restarts=3, seed=0),
        )
        assert result.terminations == ("grad_tol",) * 3
        assert len(result.evaluations) == 3
        for count, trace in zip(result.evaluations, result.traces):
            assert count >= len(trace)

    def test_gradient_tolerance_met_at_the_iteration_cap(self):
        # restart 0 meets tol_grad after its 30th step; capped at 30 steps
        # it ends "grad_tol" all the same, with the same trace, and capped
        # at 29 it ends "max_iters"
        sys, spec = self.corpus_case("bn01_reactor")
        obj = pp.ObjectiveSpec("condition", 1.0)
        runs = {
            cap: pp.minimize(obj, sys, spec,
                             pp.OptOptions(restarts=4, max_iters=cap, seed=0))
            for cap in (500, 30, 29)
        }
        assert len(runs[500].traces[0]) == 31
        assert runs[500].terminations[0] == runs[30].terminations[0] == "grad_tol"
        assert runs[30].traces[0] == runs[500].traces[0]
        assert runs[29].terminations[0] == "max_iters"
        assert runs[29].traces[0] == runs[500].traces[0][:30]

    def test_all_starts_singular_raises(self):
        # cond V >= 1, so a limit of 1 rejects every start draw
        sys = random_reachable(np.random.default_rng(64), 4, 2)
        spec = gradient_structures(2)["simple"]
        with pytest.raises(pp.SingularMatrixError, match="all restarts"):
            pp.minimize(
                pp.ObjectiveSpec("condition", 1.0), sys, spec,
                pp.OptOptions(restarts=2), pp.ToleranceConfig(singular_cond_limit=1.0),
            )

    def test_iteration_cap_reported(self):
        sys, spec = self.corpus_case("bn02_distillation")
        result = pp.minimize(
            pp.ObjectiveSpec("condition", 1.0), sys, spec,
            pp.OptOptions(restarts=2, max_iters=3, seed=0),
        )
        assert result.terminations == ("max_iters",) * 2
        assert all(len(trace) == 4 for trace in result.traces)

    def test_zero_slope_stop(self):
        # g @ p = -1e-340 underflows to -0.0, so the quasi-Newton direction
        # is not a descent one; the steepest-descent fallback's slope
        # -g @ g underflows as well, and the restart stops before a probe
        class Flat:
            def grad(self, pt):
                return np.array([1e-170, 0.0])

            def points(self, X):
                raise AssertionError("no probe is evaluated")

        x0 = np.array([0.5, -0.5])
        pt0 = optimize._Point(None, None, None, 2.0)
        x, value, trace, termination, probes = optimize._bfgs_restart(
            Flat(), x0, pt0, pp.OptOptions(tol_grad=1e-300))
        assert termination == "zero_slope"
        assert (value, trace, probes) == (2.0, [2.0], 0)
        assert np.array_equal(x, x0)

    def test_bn02_restarts_end_at_roundoff_floor(self):
        # 98.51495372173828 is the floor value these restarts reach when run
        # on to max_iters=500 (116,541 evaluations in all)
        sys, spec = self.corpus_case("bn02_distillation")
        result = pp.minimize(
            pp.ObjectiveSpec("condition", 1.0), sys, spec, pp.OptOptions()
        )
        assert set(result.terminations) <= {"grad_tol", "roundoff"}
        assert "roundoff" in result.terminations
        assert sum(result.evaluations) < 10_000
        assert result.best_value == pytest.approx(98.51495372173828, rel=1e-12)


    def test_singular_start_reported(self, monkeypatch):
        # one start draw per restart and a limit between the draws' cond(V):
        # about half the restarts cannot start
        monkeypatch.setattr(optimize, "_RESAMPLE_LIMIT", 1)
        sys = random_reachable(np.random.default_rng(64), 4, 2)
        spec = gradient_structures(2)["simple"]
        opts = pp.OptOptions(restarts=6, max_iters=20, seed=3)
        conds = start_conds(pp.Placer(sys, spec), opts.seed, opts.restarts)
        limit = split_limit(conds)
        result = pp.minimize(
            pp.ObjectiveSpec("condition", 1.0), sys, spec, opts,
            pp.ToleranceConfig(singular_cond_limit=limit),
        )
        assert len(result.traces) == opts.restarts
        assert len(result.terminations) == len(result.evaluations) == opts.restarts
        for i, cond in enumerate(conds):
            if cond > limit:
                assert result.traces[i] == ()
                assert result.restart_values[i] == float("inf")
                assert result.terminations[i] == "singular_start"
                assert result.evaluations[i] == 1
            else:
                assert len(result.traces[i]) >= 1
                assert result.restart_values[i] == result.traces[i][-1]
                assert result.terminations[i] != "singular_start"
        assert result.best_value == min(result.restart_values)


class TestMinimize:
    def test_single_input_gain_matches_unique_feedback(self):
        sys = double_integrator()
        spec = pp.EigStructure((-1.0, -2.0), ((1,), (1,)))
        result = pp.minimize(
            pp.ObjectiveSpec("normality", 0.0), sys, spec,
            pp.OptOptions(restarts=4, max_iters=50, seed=0),
        )
        # unique F = [-2, -3]
        assert result.metrics["gain_fro"] == pytest.approx(np.sqrt(13.0), rel=1e-10)
        assert np.abs(result.placement.F - np.array([[-2.0, -3.0]])).max() < 1e-8

    def test_defective_double_integrator_min_gain_zero(self):
        sys = double_integrator()
        spec = pp.EigStructure((0.0,), ((2,),))
        result = pp.minimize(
            pp.ObjectiveSpec("condition", 0.0), sys, spec,
            pp.OptOptions(restarts=2, max_iters=50, seed=1),
        )
        assert result.best_value <= 1e-16

    def test_best_not_above_any_start(self):
        rng = np.random.default_rng(49)
        sys = random_reachable(rng, 4, 2)
        spec = pp.EigStructure((-1.0, -2.0, -3.0, -4.0), ((1,), (1,), (1,), (1,)))
        result = pp.minimize(
            pp.ObjectiveSpec("condition", 0.0), sys, spec,
            pp.OptOptions(restarts=5, max_iters=60, seed=2),
        )
        for trace, why in zip(result.traces, result.terminations):
            if why != "singular_start":
                assert result.best_value <= trace[0] * (1 + 1e-12)

    def test_public_objectives_match_best_value(self):
        rng = np.random.default_rng(53)
        sys = random_reachable(rng, 4, 2)
        spec = pp.EigStructure((-1.0, -2.0, -3.0, -4.0), ((1,), (1,), (1,), (1,)))
        opts = pp.OptOptions(restarts=2, max_iters=40, seed=5)
        for method, objective in (("condition", pp.objective_f1),
                                  ("normality", pp.objective_f2)):
            result = pp.minimize(pp.ObjectiveSpec(method, 0.6), sys, spec, opts)
            # one evaluation path: the public objective at best_K is the
            # value minimize reports, to the last bit
            assert objective(result.best_K, sys, spec, 0.6) == result.best_value

    def test_traces_nonincreasing(self):
        rng = np.random.default_rng(50)
        sys = random_reachable(rng, 4, 2)
        spec = pp.EigStructure((0.0,), ((2, 2),))
        if not pp.check_admissible(spec, sys).satisfied:
            spec = pp.EigStructure((0.0,), (pp.controllability_indices(sys),))
        result = pp.minimize(
            pp.ObjectiveSpec("condition", 1.0), sys, spec,
            pp.OptOptions(restarts=3, max_iters=80, seed=3),
        )
        for trace in result.traces:
            diffs = np.diff(np.array(trace))
            assert (diffs <= 1e-12).all()

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(51)
        sys = random_reachable(rng, 3, 2)
        spec = pp.EigStructure((-1.0, -2.0, -3.0), ((1,), (1,), (1,)))
        opts = pp.OptOptions(restarts=2, max_iters=40, seed=7)
        obj = pp.ObjectiveSpec("condition", 0.5)
        r1 = pp.minimize(obj, sys, spec, opts)
        r2 = pp.minimize(obj, sys, spec, opts)
        assert r1.traces == r2.traces
        assert r1.best_value == r2.best_value
        assert np.array_equal(r1.best_K.to_vector(), r2.best_K.to_vector())

    def test_beats_random_search_smoke(self):
        rng = np.random.default_rng(52)
        sys = random_reachable(rng, 4, 2)
        spec = pp.EigStructure((-1.0, -2.0, -3.0, -4.0), ((1,), (1,), (1,), (1,)))
        obj = pp.ObjectiveSpec("condition", 1.0)
        result = pp.minimize(obj, sys, spec, pp.OptOptions(restarts=3, max_iters=80, seed=4))
        baseline = np.inf
        for _ in range(300):
            K = pp.ParameterMatrix.random(spec, 2, rng)
            try:
                baseline = min(baseline, pp.objective_f1(K, sys, spec, 1.0))
            except pp.SingularMatrixError:
                continue
        assert result.best_value <= baseline * (1 + 1e-9)


# One feedback per structure: every eigenvalue has m = 2 blocks of one order.
F_UNIQUE_CASES = {
    "real_defective": pp.EigStructure((-1.7,), ((2, 2),)),
    "complex_pair": pp.EigStructure((-1 + 2j, -1 - 2j), ((1, 1), (1, 1))),
}


class TestFUnique:
    def test_detection(self):
        assert is_f_unique(F_UNIQUE_CASES["real_defective"], 2)
        assert is_f_unique(F_UNIQUE_CASES["complex_pair"], 2)
        assert is_f_unique(pp.EigStructure((-1.0, -2.0), ((1,), (1,))), 1)
        assert not is_f_unique(pp.EigStructure((-1.7,), ((3, 1),)), 2)
        assert not is_f_unique(
            pp.EigStructure((-1.0, -2.0, -3.0, -4.0), ((1,),) * 4), 2
        )

    @pytest.mark.parametrize("name", sorted(F_UNIQUE_CASES))
    def test_f_only_objective_constant_and_accurate(self, name):
        spec = F_UNIQUE_CASES[name]
        sys = random_reachable(np.random.default_rng(53), 4, 2)
        assert pp.check_admissible(spec, sys).satisfied
        placer = pp.Placer(sys, spec)
        evaluate = _Evaluator(pp.ObjectiveSpec("normality", 1.0), placer)
        rng = np.random.default_rng(54)
        values, best = [], None
        for _ in range(300):
            x = rng.standard_normal(8)
            value, ok = evaluate(x)
            if not ok:
                continue
            values.append(value)
            res = placer.place(pp.ParameterMatrix.from_vector(spec, 2, x))
            if best is None or res.cond_V < best.cond_V:
                best = res
        assert len(values) >= 200
        assert len(set(values)) == 1
        # independent reference: f2 from the best-conditioned draw
        reference = pp.departure_from_normality(sys.A + sys.B @ best.F) ** 2
        assert values[0] == pytest.approx(reference, rel=1e-9)

        result = pp.minimize(
            pp.ObjectiveSpec("normality", 1.0), sys, spec,
            pp.OptOptions(restarts=3, max_iters=100, seed=9),
        )
        res = result.placement
        delta = pp.departure_from_normality(sys.A + sys.B @ res.F)
        assert result.best_value == delta**2
        assert result.best_value == values[0]
        assert res.cond_V <= 3.0 * best.cond_V

    @pytest.mark.parametrize("name", sorted(F_UNIQUE_CASES))
    def test_v_dependent_objective_still_varies(self, name):
        spec = F_UNIQUE_CASES[name]
        sys = random_reachable(np.random.default_rng(53), 4, 2)
        obj = pp.ObjectiveSpec("condition", 1.0)
        evaluate = _Evaluator(obj, pp.Placer(sys, spec))
        rng = np.random.default_rng(55)
        values = {evaluate(rng.standard_normal(8))[0] for _ in range(20)}
        assert len(values) == 20

    def test_operator_bound_once_unless_fixed(self):
        # an evaluator builds L on its first evaluation, once; one with a
        # value fixed at K* builds it only when a draw is checked
        sys = random_reachable(np.random.default_rng(53), 4, 2)
        spec = F_UNIQUE_CASES["real_defective"]
        placer = pp.Placer(sys, spec)
        builds, operator = [], placer.operator
        placer.operator = lambda: builds.append(1) or operator()
        searching = _Evaluator(pp.ObjectiveSpec("condition", 1.0), placer)
        assert searching.fixed is None
        assert builds == [] and "_operator" not in placer.__dict__
        x = np.random.default_rng(55).standard_normal(8)
        assert searching(x)[1] and searching(2.0 * x)[1]
        assert builds == [1] and searching.__dict__["L"] is operator()
        placer = pp.Placer(sys, spec)
        fixed = _Evaluator(pp.ObjectiveSpec("normality", 1.0), placer)
        assert fixed.fixed is not None
        assert "L" not in fixed.__dict__ and "_operator" not in placer.__dict__
        assert fixed(np.random.default_rng(54).standard_normal(8)) == (fixed.fixed, True)
        assert fixed.__dict__["L"] is placer.operator()

    def test_search_skipped(self, monkeypatch):
        spec = F_UNIQUE_CASES["real_defective"]
        sys = random_reachable(np.random.default_rng(53), 4, 2)
        calls = []
        place, operator = pp.Placer.place, pp.Placer.operator
        builds = []

        def counted(self, K):
            calls.append(K)
            return place(self, K)

        def counted_operator(self):
            builds.append(self)
            return operator(self)

        monkeypatch.setattr(pp.Placer, "place", counted)
        monkeypatch.setattr(pp.Placer, "operator", counted_operator)
        result = pp.minimize(
            pp.ObjectiveSpec("normality", 1.0), sys, spec,
            pp.OptOptions(restarts=10, seed=9),
        )
        assert len(calls) <= 2
        # nothing is searched, so the dense operator L is never built
        assert builds == []
        assert result.traces == ((result.best_value,),) * 10
        assert result.restart_values == (result.best_value,) * 10
        assert result.terminations == ("grad_tol",) * 10
        assert np.array_equal(
            result.best_K.to_vector(), unique_parameter(spec, 2).to_vector()
        )

    def test_singular_k_star_falls_back_to_per_draw_values(self):
        spec = F_UNIQUE_CASES["complex_pair"]
        sys = random_reachable(np.random.default_rng(53), 4, 2)
        K_star = unique_parameter(spec, 2)
        cond_star = pp.Placer(sys, spec).place(K_star).cond_V
        # a limit just under cond V(K*) rejects K* but passes better draws
        tol = pp.ToleranceConfig(singular_cond_limit=0.999 * cond_star)
        obj = pp.ObjectiveSpec("normality", 1.0)
        assert _Evaluator(obj, pp.Placer(sys, spec, tol)).K_star is None
        result = pp.minimize(
            obj, sys, spec, pp.OptOptions(restarts=2, max_iters=20, seed=9), tol
        )
        assert result.placement.cond_V < cond_star


def reference_point(evaluate, x):
    """One evaluation the way it was computed one point at a time: L x, the
    `checked_svals` test, inv, W V^-1, then the scalar value formula; the
    condition term ||V||_F^2 + ||V^-1||_F^2 is also checked against its
    singular-value form sum s^2 + sum s^-2, the same value in exact
    arithmetic, and the normality term is Henrici's identity on the loop
    M = V Lambda_R V^-1, with the Schur form of M below its floor."""
    sys, n, alpha = evaluate.sys, evaluate.sys.n, evaluate.obj.alpha
    VW = (evaluate.placer.operator() @ x).reshape(n + sys.m, n)
    V, W = VW[:n], VW[n:]
    try:
        s = checked_svals(V, evaluate.placer.tol)
    except pp.SingularMatrixError:
        return None
    Vi = np.linalg.inv(V)
    F = W @ Vi
    if evaluate.obj.method == "condition":
        v, vi = np.ravel(V), np.ravel(Vi)
        robust = float(v @ v) + float(vi @ vi)
        # both forms carry roundoff ~ n eps kappa_2 relative from the inverse
        # and from sigma_min
        rel = max(1e-12, n * np.finfo(float).eps * s[0] / s[-1])
        assert robust == pytest.approx(np.sum(s**2) + np.sum(s**-2), rel=rel)
    else:
        M = V @ evaluate.placer._real_jordan[0] @ Vi
        a = np.ravel(M)
        total = float(a @ a)
        robust = total - evaluate.mass
        if robust < _IDENTITY_FLOOR * total:
            robust = departure_from_normality(M) ** 2
    if alpha != 1.0:
        robust = alpha * robust + (1.0 - alpha) * fro_norm(F) ** 2
    return V, Vi, F, robust


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestStackedPoints:
    @staticmethod
    def normal_loop_case():
        """B = I, so the loop A + F = diag(spec) is normal; K placing it,
        with Henrici's identity below its floor there."""
        rng = np.random.default_rng(70)
        A = rng.standard_normal((3, 3))
        sys = pp.System(A, np.eye(3))
        spec = pp.EigStructure((-1.0, -2.0, -3.0), ((1,), (1,), (1,)))
        F = np.diag([-3.0, -2.0, -1.0]) - A
        K = pp.recover_parameters(sys, spec, pp.chains_from_feedback(sys, spec, F))
        return rng, sys, spec, K.to_vector()

    @pytest.mark.parametrize("method", ("condition", "normality"))
    @pytest.mark.parametrize("alpha", (0.0, 0.5, 1.0))
    def test_rows_match_one_row_calls_bitwise(self, method, alpha):
        rng, sys, spec, x_normal = self.normal_loop_case()
        dim = sys.m * sys.n
        X = np.vstack([
            rng.standard_normal(dim),
            np.zeros(dim),  # V = 0: singular
            x_normal,
            rng.standard_normal((3, dim)),
            3.0 * rng.standard_normal(dim),
        ])
        evaluate = _Evaluator(pp.ObjectiveSpec(method, alpha), pp.Placer(sys, spec))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pts = evaluate.points(X)
            singles = [evaluate.point(x) for x in X]
            references = [reference_point(evaluate, x) for x in X]
        assert singles[1] is None and references[1] is None
        assert pts.rows == [i for i, pt in enumerate(singles) if pt is not None]
        assert pts.rows == [0, 2, 3, 4, 5, 6]
        # both values at alpha = 1 read V alone: no F is formed
        v_only = alpha == 1.0
        for j, i in enumerate(pts.rows):
            got, one, ref = pts.at(j), singles[i], references[i]
            assert type(got.value) is float
            assert got.value == one.value == ref[3]
            for field, want in zip(("V", "Vi", "F")[:2 if v_only else 3], ref[:3]):
                assert same_bits(getattr(got, field), getattr(one, field))
                assert same_bits(getattr(got, field), want)
            if v_only:
                assert got.F is None and one.F is None
            # the normality value's loop, which grad reads
            if method == "normality":
                M = ref[0] @ evaluate.placer._real_jordan[0] @ ref[1]
                assert same_bits(got.M, one.M) and same_bits(got.M, M)
            else:
                assert got.M is None and one.M is None
        # the nearly normal row took the Schur-form fallback
        V, Vi = references[2][:2]
        total = fro_norm(V @ evaluate.placer._real_jordan[0] @ Vi) ** 2
        assert total - evaluate.mass < _IDENTITY_FLOOR * total

    @pytest.mark.parametrize("method,alpha",
                             (("normality", 1.0), ("condition", 0.0)))
    def test_rows_near_a_singular_point_match_the_svd_test(
            self, monkeypatch, method, alpha):
        # probes along a line through a point where V is singular, at
        # relative distances 1e-1 .. 1e-16 in quarter decades: the certified
        # rows and the SVD of the others decide as the SVD of every row
        rng, sys, spec, _ = self.normal_loop_case()
        evaluate = _Evaluator(pp.ObjectiveSpec(method, alpha), pp.Placer(sys, spec))
        n, dim = sys.n, sys.m * sys.n
        xa, xb = rng.standard_normal((2, dim))
        Va, Vb = (evaluate.L @ np.array([xa, xb]).T).T.reshape(2, -1, n)[:, :n]
        # det(Va + t (Vb - Va)) = 0 at each real eigenvalue t of this pencil
        ts = np.linalg.eigvals(-np.linalg.solve(Vb - Va, Va))
        t0 = float(ts[np.argmin(np.abs(ts.imag))].real)
        offsets = t0 * 10.0 ** -np.arange(1.0, 17.0, 0.25)
        X = xa + np.multiply.outer(t0 + np.concatenate((offsets, -offsets)),
                                   xb - xa)
        certify, calls = linalg.certified_rows, []

        def logged_certify(V, Vi, tol):
            rows = certify(V, Vi, tol)
            calls.append((len(V), len(rows)))
            return rows

        monkeypatch.setattr(linalg, "certified_rows", logged_certify)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pts = [evaluate.points(chunk) for chunk in np.split(X, 16)]
            references = [reference_point(evaluate, x) for x in X]
        rows = [8 * c + i for c, p in enumerate(pts) for i in p.rows]
        assert rows == [i for i, ref in enumerate(references) if ref is not None]
        # both sides of the limit occur, and some chunk certified only part
        # of its rows
        assert 0 < len(rows) < len(X)
        assert any(0 < certified < k for k, certified in calls)
        got = [p.at(j) for p in pts for j in range(len(p.rows))]
        for pt, i in zip(got, rows):
            assert pt.value == references[i][3]
            assert same_bits(pt.Vi, references[i][1])
            # the normality value at alpha = 1 reads V alone: no F is formed
            if alpha == 1.0:
                assert pt.F is None
            else:
                assert same_bits(pt.F, references[i][2])

    def test_all_rows_singular(self):
        rng, sys, spec, _ = self.normal_loop_case()
        evaluate = _Evaluator(pp.ObjectiveSpec("normality", 1.0), pp.Placer(sys, spec))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pts = evaluate.points(np.zeros((3, sys.m * sys.n)))
        assert pts.rows == [] and pts.values == []

    def test_fixed_value_rows(self):
        spec = F_UNIQUE_CASES["real_defective"]
        sys = random_reachable(np.random.default_rng(53), 4, 2)
        evaluate = _Evaluator(pp.ObjectiveSpec("normality", 1.0), pp.Placer(sys, spec))
        assert evaluate.fixed is not None
        X = np.vstack([np.random.default_rng(71).standard_normal((2, 8)), np.zeros(8)])
        pts = evaluate.points(X)
        assert pts.rows == [0, 1]
        assert pts.values == [evaluate.fixed] * 2
        assert pts.at(1).value == evaluate.point(X[1]).value == evaluate.fixed


def full_formula(evaluate, x):
    """The condition objective at alpha = 1 at x as it was formed from all
    of L: W, F = W V^-1, G = 0 F, a zero dW block and -F^T dW, with the
    gradient pulled back through the whole of L; (value, gradient)."""
    n, alpha = evaluate.sys.n, 1.0
    VW = (evaluate.L @ x).reshape(-1, n)
    V, W = VW[:n], VW[n:]
    Vi = np.linalg.inv(V)
    F = W @ Vi
    v, vi = np.ravel(V), np.ravel(Vi)
    value = float(v @ v) + float(vi @ vi)
    G = 2.0 * (1.0 - alpha) * F
    dW = G @ Vi.T
    dV = -F.T @ dW
    dV += 2.0 * alpha * (V - Vi.T @ Vi @ Vi.T)
    return value, np.concatenate((dV, dW)).ravel() @ evaluate.L


class TestConditionOnV:
    """At alpha = 1 the condition objective reads V alone: values from the
    certificate's squared norms and gradients pulled back through the V
    block of L equal the full-L formula bit for bit, on every path that
    decides a row nonsingular."""

    @staticmethod
    def instances():
        sf = pp.load_system(CORPUS / "bn02_distillation.json")
        bn02 = (sf.system, defective_zero_structure(sf.system))
        rng = np.random.default_rng(38)
        pair = (complex(-1.0, 0.8), complex(-1.0, -0.8))
        reals = tuple(-float(v) for v in rng.uniform(0.5, 3.0, 4))
        spec = pp.EigStructure(pair + reals, ((1,),) * 6)
        return {"bn02": bn02, "random_6x2": (random_reachable(rng, 6, 2), spec)}

    @staticmethod
    def assert_rows_match(evaluate, X, rows):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pts = evaluate.points(X)
        assert pts.rows == rows and pts.F is None
        for j, i in enumerate(rows):
            value, g = full_formula(evaluate, X[i])
            pt = pts.at(j)
            assert pt.value == value and pt.F is None
            assert same_bits(evaluate.grad(pt), g)

    @pytest.mark.parametrize("name", ("bn02", "random_6x2"))
    def test_certified_rows(self, name):
        sys, spec = self.instances()[name]
        evaluate = _Evaluator(pp.ObjectiveSpec("condition", 1.0), pp.Placer(sys, spec))
        X = np.random.default_rng(39).standard_normal((24, sys.m * sys.n))
        for chunk in (X[:1], X[1:3], X[3:8], X[8:16], X[16:]):
            self.assert_rows_match(evaluate, chunk, list(range(len(chunk))))

    @pytest.mark.parametrize("name", ("bn02", "random_6x2"))
    def test_svd_fallback_and_zero_pivot_rows(self, monkeypatch, name):
        sys, spec = self.instances()[name]
        X = np.random.default_rng(40).standard_normal((8, sys.m * sys.n))
        n = sys.n
        V = (pp.Placer(sys, spec).operator() @ X.T).T[:, :n * n].reshape(-1, n, n)
        conds = [pp.kappa_2(v) for v in V]
        worst = int(np.argmax(conds))
        # every row passes the SVD test; the worst row is not certified
        # (kappa_F >= kappa_2 > 0.75 kappa_2, half the limit), and the
        # others, here below a quarter of the worst, are
        tol = pp.ToleranceConfig(singular_cond_limit=1.5 * conds[worst])
        assert sorted(conds)[-2] < 0.25 * conds[worst]
        evaluate = _Evaluator(pp.ObjectiveSpec("condition", 1.0),
                              pp.Placer(sys, spec, tol))
        certify, calls = linalg.certified_rows, []

        def logged_certify(sq_V, sq_Vi, tol):
            rows = certify(sq_V, sq_Vi, tol)
            calls.append(rows)
            return rows

        monkeypatch.setattr(linalg, "certified_rows", logged_certify)
        self.assert_rows_match(evaluate, X, list(range(8)))
        assert calls == [[i for i in range(8) if i != worst]]
        # x = 0 makes V = 0, an exact zero pivot: its inverse is NaN, so
        # one certificate over the whole stack leaves it and the worst row
        # uncertified, and the zero row is dropped
        zero = (worst + 1) % 8
        X[zero] = 0.0
        calls.clear()
        self.assert_rows_match(evaluate, X, [i for i in range(8) if i != zero])
        assert calls == [[i for i in range(8) if i not in (worst, zero)]]


def sequential_bfgs_restart(evaluate, x0, pt0, opts):
    """The BFGS restart with one evaluation per backtracking probe, as
    `_bfgs_restart` ran before the probes of a step were stacked; the
    reference the stacked line search is held to, bit for bit."""
    dim = x0.size
    eye = np.eye(dim)
    Hinv = eye.copy()
    x = x0.copy()
    probes = 0
    fx, g = pt0.value, evaluate.grad(pt0)
    trace = [fx]
    termination = "max_iters"
    for _ in range(opts.max_iters):
        if np.linalg.norm(g, np.inf) <= opts.tol_grad:
            termination = "grad_tol"
            break
        p = -Hinv @ g
        slope = float(g @ p)
        if slope >= 0.0:
            Hinv = eye.copy()
            p = -g
            slope = -float(g @ g)
            if slope == 0.0:
                termination = "zero_slope"
                break
        t = 1.0
        accepted = None
        stop = "line_search"
        for _ in range(optimize._MAX_BACKTRACKS):
            pc = evaluate.point(x + t * p)
            probes += 1
            if pc is not None and pc.value <= fx + optimize._ARMIJO_C1 * t * slope:
                accepted = pc
                break
            t *= 0.5
            if not fx + optimize._ARMIJO_C1 * t * slope < fx:
                stop = "roundoff"
                break
        if accepted is None:
            termination = stop
            break
        s = t * p
        x_new = x + s
        g_new = evaluate.grad(accepted)
        y = g_new - g
        sy = float(s @ y)
        if sy > 1e-10 * np.linalg.norm(s) * np.linalg.norm(y):
            rho = 1.0 / sy
            left = eye - rho * np.outer(s, y)
            Hinv = left @ Hinv @ left.T + rho * np.outer(s, s)
        x, fx, g = x_new, accepted.value, g_new
        trace.append(fx)
    else:
        if np.linalg.norm(g, np.inf) <= opts.tol_grad:
            termination = "grad_tol"
    return x, fx, trace, termination, probes


def normality_instances():
    """Seeded n = 4..6, m = 2 pairs with a conjugate pair and simple,
    repeated or defective real eigenvalues, as random_normality draws."""
    rng = np.random.default_rng(72)
    out = []
    for n, kind in ((4, "simple"), (5, "repeated"), (6, "defective"), (5, "simple")):
        for _ in range(50):
            sys = random_reachable(rng, n, 2)
            pair = (complex(-1.0, 1.2), complex(-1.0, -1.2))
            reals = tuple(-float(v) for v in rng.uniform(0.5, 3.0, n - 2))
            if kind == "simple":
                spec = pp.EigStructure(pair + reals, ((1,),) * n)
            else:
                orders = (1, 1) if kind == "repeated" else (2,)
                spec = pp.EigStructure(pair + reals[: n - 3],
                                       ((1,), (1,), orders) + ((1,),) * (n - 4))
            if pp.check_admissible(spec, sys).satisfied:
                out.append((sys, spec))
                break
    return out


class TestStackedLineSearch:
    @staticmethod
    def both(monkeypatch, obj, sys, spec, opts):
        """minimize with the stacked line search and with the sequential
        reference, what each stacked search was: (first chunk size, rows of
        each points call, probes, stop), and how many rows the stacked run
        certified nonsingular from their inverses.  The reference decides
        every row by the SVD test: nothing is certified there."""
        searches, certified = [], []
        backtrack, points = optimize._backtrack, _Evaluator._points
        certify = linalg.certified_rows

        def logged_backtrack(evaluate, x, p, fx, slope, size):
            searches.append([size, []])
            out = backtrack(evaluate, x, p, fx, slope, size)
            searches[-1] += [out[2], out[3]]
            return out

        def logged_points(self, X):
            if searches:
                searches[-1][1].append(len(X))
            return points(self, X)

        def logged_certify(V, Vi, tol):
            rows = certify(V, Vi, tol)
            certified.append(len(rows))
            return rows

        monkeypatch.setattr(optimize, "_backtrack", logged_backtrack)
        monkeypatch.setattr(_Evaluator, "_points", logged_points)
        monkeypatch.setattr(linalg, "certified_rows", logged_certify)
        stacked = pp.minimize(obj, sys, spec, opts)
        monkeypatch.undo()
        monkeypatch.setattr(optimize, "_bfgs_restart", sequential_bfgs_restart)
        monkeypatch.setattr(linalg, "certified_rows", lambda V, Vi, tol: [])
        sequential = pp.minimize(obj, sys, spec, opts)
        return stacked, sequential, searches, sum(certified)

    @staticmethod
    def assert_identical(a, b):
        assert a.traces == b.traces
        assert a.terminations == b.terminations
        assert a.evaluations == b.evaluations
        assert a.restart_values == b.restart_values
        assert a.best_value == b.best_value
        assert same_bits(a.best_K.to_vector(), b.best_K.to_vector())
        assert same_bits(a.placement.F, b.placement.F)

    @pytest.mark.parametrize("case", range(4))
    @pytest.mark.parametrize("max_iters", (8, 60))
    @pytest.mark.parametrize(
        "obj",
        (pp.ObjectiveSpec("normality", 1.0), pp.ObjectiveSpec("condition", 0.5)),
        ids=("normality", "condition-0.5"),
    )
    def test_normality_instances(self, monkeypatch, obj, case, max_iters):
        sys, spec = normality_instances()[case]
        opts = pp.OptOptions(restarts=2, max_iters=max_iters, seed=case)
        stacked, sequential, searches, certified = self.both(
            monkeypatch, obj, sys, spec, opts)
        self.assert_identical(stacked, sequential)
        # some probes were stacked
        assert max(max(rows) for _, rows, *_ in searches) > 1
        # every objective certifies rows from their inverses
        assert certified > 0

    def test_bn02_roundoff_stop_mid_chunk(self, monkeypatch):
        sys, spec = TestTerminations.corpus_case("bn02_distillation")
        stacked, sequential, searches, _ = self.both(
            monkeypatch, pp.ObjectiveSpec("condition", 1.0), sys, spec,
            pp.OptOptions(restarts=4))
        self.assert_identical(stacked, sequential)
        assert "roundoff" in stacked.terminations
        # a roundoff stop cut its last chunk short of the chunk size
        cut = [rows for size, rows, probes, stop in searches
               if stop == "roundoff"
               and rows[-1] < (size if len(rows) == 1 else optimize._MAX_STACK)]
        assert cut

    def test_iteration_cap(self, monkeypatch):
        sys, spec = TestTerminations.corpus_case("bn02_distillation")
        stacked, sequential, _, _ = self.both(
            monkeypatch, pp.ObjectiveSpec("normality", 0.5), sys, spec,
            pp.OptOptions(restarts=3, max_iters=7, seed=2))
        self.assert_identical(stacked, sequential)
        assert stacked.terminations == ("max_iters",) * 3

    def test_probe_budget_stop(self, monkeypatch):
        # a budget of 5 probes ends searches "line_search" inside a chunk
        monkeypatch.setattr(optimize, "_MAX_BACKTRACKS", 5)
        sys, spec = normality_instances()[0]
        opts = pp.OptOptions(restarts=6, max_iters=60, seed=1)
        obj = pp.ObjectiveSpec("condition", 1.0)
        stacked = pp.minimize(obj, sys, spec, opts)
        monkeypatch.setattr(optimize, "_bfgs_restart", sequential_bfgs_restart)
        sequential = pp.minimize(obj, sys, spec, opts)
        self.assert_identical(stacked, sequential)
        assert "line_search" in stacked.terminations

    @pytest.mark.parametrize("budget_offset,stop", ((0, "roundoff"), (-1, "line_search")))
    def test_roundoff_outranks_probe_budget(self, monkeypatch, budget_offset, stop):
        # every probe is rejected; the roundoff test of the step after the
        # last probe decides first, as it did one probe at a time
        fx, slope = 1.0, -1.0
        t, count = 1.0, 1
        while fx + optimize._ARMIJO_C1 * (t / 2) * slope < fx:
            t, count = t / 2, count + 1

        class Rejecting:
            calls = []

            def _points(self, X):
                self.calls.append(len(X))
                rows = list(range(len(X)))
                return optimize._Points(rows, [math.inf] * len(X), None, None, None)

        monkeypatch.setattr(optimize, "_MAX_BACKTRACKS", count + budget_offset)
        evaluate = Rejecting()
        t, pt, probes, why = optimize._backtrack(
            evaluate, np.zeros(2), np.ones(2), fx, slope, 3)
        assert (t, pt, why) == (None, None, stop)
        assert probes == sum(evaluate.calls) == count + budget_offset
        assert evaluate.calls[0] == 3
        assert set(evaluate.calls[1:-1]) <= {optimize._MAX_STACK}
