import numpy as np
import pytest
import scipy.signal

import poleplace as pp
from poleplace import placement
from poleplace.optimize import _Evaluator
from conftest import (
    eigenvalue_match_errors,
    place_random,
    random_admissible_spec,
    random_reachable,
    weyr_ranks_ok,
)


def double_integrator():
    return pp.System(np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0], [1.0]]))


class TestBuildPencil:
    def test_scalar_system(self):
        sys = pp.System(np.array([[0.0]]), np.array([[1.0]]))
        pencil = pp.build_pencil(sys, -1.0)
        expected = np.array([1.0, -1.0]) / np.sqrt(2.0)
        col = pencil.N[:, 0]
        assert min(np.abs(col - expected).max(), np.abs(col + expected).max()) < 1e-14

    def test_double_integrator_at_zero(self):
        pencil = pp.build_pencil(double_integrator(), 0.0)
        # kernel of [[0,1,0],[0,0,1]] is e1; Mdag is the transposed selector
        assert np.abs(np.abs(pencil.N[:, 0]) - np.array([1.0, 0.0, 0.0])).max() < 1e-14
        expected = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert np.abs(pencil.Mdag - expected).max() < 1e-14

    def test_kernel_dimension_at_open_loop_eigenvalue(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            sys = random_reachable(rng, 5, 2)
            lam = np.linalg.eigvals(sys.A)[0]
            pencil = pp.build_pencil(sys, lam)
            assert pencil.N.shape == (7, 2)

    def test_unreachable_shift(self):
        A = np.diag([1.0, 2.0])
        B = np.array([[1.0], [0.0]])
        sys = pp.System(A, B)
        with pytest.raises(pp.NotReachableError):
            pp.build_pencil(sys, 2.0)

    def test_real_shift_keeps_real_arrays(self):
        pencil = pp.build_pencil(double_integrator(), -3.0)
        assert not np.iscomplexobj(pencil.N)
        assert not np.iscomplexobj(pencil.Mdag)


class TestBuildChains:
    def test_double_integrator_worked_example(self):
        sys = double_integrator()
        spec = pp.EigStructure((0.0,), ((2,),))
        k1, k2 = 0.7, -0.3
        K = pp.ParameterMatrix.from_vector(spec, 1, np.array([k1, k2]))
        chains = pp.build_chains(sys, spec, K)
        H = chains.chains[0][0]
        # h(1) = [k1, 0, 0], h(2) = [k2, k1, 0] up to the kernel-basis sign
        sign = np.sign(H[0, 0]) * np.sign(k1)
        assert np.abs(H[:, 0] - sign * np.array([k1, 0.0, 0.0])).max() < 1e-14
        assert np.abs(H[:, 1] - sign * np.array([k2, k1, 0.0])).max() < 1e-14

    def test_order_one_blocks_skip_recursion(self):
        rng = np.random.default_rng(11)
        sys = random_reachable(rng, 4, 2)
        spec = pp.EigStructure(
            (-1.0, -2.0, -3.0, -4.0), ((1,), (1,), (1,), (1,))
        )
        K = pp.ParameterMatrix.random(spec, 2, rng)
        placer = pp.Placer(sys, spec)
        chains = placer.build_chains(K)
        for i in range(4):
            expected = placer.pencils[i].N @ K.blocks[i][:, 0]
            assert np.abs(chains.chains[i][0][:, 0] - expected).max() < 1e-14

    def test_chain_relations_conjugate_pair_order_two(self):
        rng = np.random.default_rng(12)
        sys = random_reachable(rng, 4, 2)
        spec = pp.EigStructure((1j, -1j), ((2,), (2,)))
        K = pp.ParameterMatrix.random(spec, 2, rng)
        chains = pp.build_chains(sys, spec, K)
        n = sys.n
        for i, lam in enumerate(spec.eigenvalues):
            blk = chains.chains[i][0]
            prev = None
            for ell in range(blk.shape[1]):
                h = blk[:, ell]
                lhs = (sys.A - lam * np.eye(n)) @ h[:n] + sys.B @ h[n:]
                rhs = np.zeros(n) if prev is None else prev[:n]
                assert np.abs(lhs - rhs).max() < 1e-10
                prev = h

    def test_pair_chains_are_exact_conjugates(self):
        rng = np.random.default_rng(13)
        sys = random_reachable(rng, 6, 2)
        spec = pp.EigStructure(
            (-1 + 2j, -1 - 2j, -2.0), ((2,), (2,), (2,))
        )
        K = pp.ParameterMatrix.random(spec, 2, rng)
        chains = pp.build_chains(sys, spec, K)
        for blk, blk_c in zip(chains.chains[0], chains.chains[1]):
            assert np.array_equal(blk.conj(), blk_c)

    def test_dimension_mismatch_rejected(self):
        sys = double_integrator()
        spec = pp.EigStructure((0.0,), ((2,),))
        other = pp.EigStructure((0.0,), ((3,),))
        K = pp.ParameterMatrix.from_vector(other, 1, np.zeros(3))
        with pytest.raises(pp.StructureError):
            pp.build_chains(sys, spec, K)


def operator_structure(n, m, kind):
    """A conformably ordered n-state structure of one kind for m inputs.

    "real" and "pair" are simple spectra (all reals, or conjugate pairs plus
    a real when n is odd); "repeated" gives every eigenvalue up to m blocks of
    order one (needs m >= 2); "defective" leads with a pair of order-2 Jordan
    blocks and fills with real eigenvalues of blocks (2, 1) (one block of
    order 2 when m = 1), or one last block of order up to 3.
    """
    eigs, orders = [], []

    def pair(k, blocks):
        lam = complex(-0.5 - 0.4 * k, 0.6 + 0.3 * k)
        eigs.extend((lam, lam.conjugate()))
        orders.extend((blocks, blocks))

    if kind == "real":
        eigs = [-1.0 - 0.5 * k for k in range(n)]
        orders = [(1,)] * n
    elif kind == "pair":
        for k in range(n // 2):
            pair(k, (1,))
        if n % 2:
            eigs.append(-2.5)
            orders.append((1,))
    elif kind == "repeated":
        pair(0, (1,) * m)
        rem = n - 2 * m
        while rem > 0:
            eigs.append(-1.0 - 0.5 * len(eigs))
            orders.append((1,) * min(m, rem))
            rem -= min(m, rem)
    elif kind == "defective":
        pair(0, (2,))
        rem = n - 4
        while rem > 0:
            blocks = (2, 1)[:m] if sum((2, 1)[:m]) <= rem else (min(3, rem),)
            eigs.append(-1.0 - 0.5 * len(eigs))
            orders.append(blocks)
            rem -= sum(blocks)
    return pp.normalize_ordering(pp.EigStructure(tuple(eigs), tuple(orders)))[0]


OPERATOR_CASES = [
    (n, m, kind)
    for n, m in ((4, 1), (7, 1), (5, 2), (8, 2), (16, 2), (6, 3), (16, 3))
    for kind in ("real", "pair", "repeated", "defective")
    if not (kind == "repeated" and m == 1)
]


def operator_instance(n, m, kind):
    spec = operator_structure(n, m, kind)
    rng = np.random.default_rng(70 + 10 * n + m)
    sys = pp.System(rng.standard_normal((n, n)) / np.sqrt(n),
                    rng.standard_normal((n, m)))
    assert pp.check_admissible(spec, sys).satisfied
    return pp.Placer(sys, spec), rng


def reference_chains(placer, K):
    """The chain recursion one column vector at a time."""
    n, spec = placer.sys.n, placer.spec
    groups = []
    for i, (pencil, Ki) in enumerate(zip(placer.pencils, K.blocks)):
        if i % 2 == 1 and i < 2 * spec.sigma:
            groups.append(tuple(blk.conj() for blk in groups[-1]))
            continue
        blocks, off = [], 0
        for p in spec.block_orders[i]:
            cols = []
            for ell in range(p):
                h = pencil.N @ Ki[:, off + ell]
                if ell > 0:
                    h = h + pencil.Mdag @ cols[-1][:n]
                cols.append(h)
            blocks.append(np.column_stack(cols))
            off += p
        groups.append(tuple(blocks))
    return pp.ChainSet(spec, tuple(groups))


def reference_operator(placer):
    """L one column at a time: the m*n unit vectors through the chain
    recursion and realify."""
    m, n = placer.sys.m, placer.sys.n
    cols = []
    for e in np.eye(m * n):
        K = pp.ParameterMatrix.from_vector(placer.spec, m, e)
        cols.append(np.vstack(pp.realify(reference_chains(placer, K))).ravel())
    return np.column_stack(cols)


class TestBatchedRecursion:
    @pytest.mark.parametrize("n,m,kind", OPERATOR_CASES)
    def test_operator_matches_unit_vector_columns(self, n, m, kind):
        placer, _ = operator_instance(n, m, kind)
        L, ref = placer.operator(), reference_operator(placer)
        assert L.shape == ref.shape == ((n + m) * n, m * n)
        if placer.spec.max_block_order == 1:
            # N times a unit block is exact, so the columns are too
            assert np.array_equal(L, ref)
        else:
            # the batched Mdag product may round differently per column
            assert np.abs(L - ref).max() <= 1e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("n,m,kind", OPERATOR_CASES)
    def test_build_chains_matches_per_column_recursion(self, n, m, kind):
        placer, rng = operator_instance(n, m, kind)
        for _ in range(3):
            K = pp.ParameterMatrix.random(placer.spec, m, rng)
            got, ref = placer.build_chains(K), reference_chains(placer, K)
            for group, ref_group in zip(got.chains, ref.chains):
                assert len(group) == len(ref_group)
                for blk, ref_blk in zip(group, ref_group):
                    assert np.array_equal(blk, ref_blk)
                    # a strided block changes the rounding of the BLAS
                    # products in recover_parameters
                    assert blk.flags.c_contiguous


class TestRealify:
    def test_real_passthrough(self):
        rng = np.random.default_rng(14)
        sys = random_reachable(rng, 3, 1)
        spec = pp.EigStructure((-1.0, -2.0, -3.0), ((1,), (1,), (1,)))
        K = pp.ParameterMatrix.random(spec, 1, rng)
        chains = pp.build_chains(sys, spec, K)
        V, W = pp.realify(chains)
        H = chains.H
        assert np.abs(V - H[:3].real).max() == 0.0
        assert np.abs(W - H[3:].real).max() == 0.0

    def test_pair_becomes_real_and_imag_parts(self):
        rng = np.random.default_rng(15)
        sys = random_reachable(rng, 2, 1)
        spec = pp.EigStructure((1 + 1j, 1 - 1j), ((1,), (1,)))
        K = pp.ParameterMatrix.random(spec, 1, rng)
        chains = pp.build_chains(sys, spec, K)
        V, W = pp.realify(chains)
        H1 = chains.chains[0][0][:, 0]
        assert np.abs(V[:, 0] - H1[:2].real).max() < 1e-15
        assert np.abs(V[:, 1] - H1[:2].imag).max() < 1e-15
        assert np.abs(W[0, 0] - H1[2].real) < 1e-15
        assert np.abs(W[0, 1] - H1[2].imag) < 1e-15

    def test_unitary_right_factor_oracle(self):
        # realified pair blocks equal [H_i H_{i+1}] @ U, U = [[I, -jI],[I, jI]]/2
        rng = np.random.default_rng(16)
        sys = random_reachable(rng, 4, 2)
        spec = pp.EigStructure((2j, -2j), ((2,), (2,)))
        K = pp.ParameterMatrix.random(spec, 2, rng)
        chains = pp.build_chains(sys, spec, K)
        V, W = pp.realify(chains)
        H = chains.H
        mi = 2
        U = 0.5 * np.block(
            [[np.eye(mi), -1j * np.eye(mi)], [np.eye(mi), 1j * np.eye(mi)]]
        )
        realified = H @ U
        assert np.abs(realified.imag).max() < 1e-13
        assert np.abs(np.vstack([V, W]) - realified.real).max() < 1e-13

    def test_symmetry_violation_raises(self):
        rng = np.random.default_rng(17)
        sys = random_reachable(rng, 2, 1)
        spec = pp.EigStructure((1j, -1j), ((1,), (1,)))
        K = pp.ParameterMatrix.random(spec, 1, rng)
        chains = pp.build_chains(sys, spec, K)
        broken = pp.ChainSet(
            spec,
            (chains.chains[0], (chains.chains[0][0] * (1 + 1e-3),)),
        )
        with pytest.raises(pp.ChainConsistencyError):
            pp.realify(broken)


class TestPlace:
    def test_scalar(self):
        sys = pp.System(np.array([[0.0]]), np.array([[1.0]]))
        spec = pp.EigStructure((-1.0,), ((1,),))
        K = pp.ParameterMatrix.from_vector(spec, 1, np.array([0.37]))
        res = pp.place(sys, spec, K)
        assert np.abs(res.F - np.array([[-1.0]])).max() < 1e-12

    def test_double_integrator_defective_zero(self):
        sys = double_integrator()
        spec = pp.EigStructure((0.0,), ((2,),))
        K = pp.ParameterMatrix.from_vector(spec, 1, np.array([1.3, 0.4]))
        res = pp.place(sys, spec, K)
        assert np.abs(res.F).max() < 1e-13

    def test_double_integrator_simple_poles(self):
        sys = double_integrator()
        spec = pp.EigStructure((-1.0, -2.0), ((1,), (1,)))
        rng = np.random.default_rng(18)
        for _ in range(5):
            K = pp.ParameterMatrix.random(spec, 1, rng)
            res = pp.place(sys, spec, K)
            assert np.abs(res.F - np.array([[-2.0, -3.0]])).max() < 1e-10

    def test_defective_blocks_sized_by_indices(self):
        rng = np.random.default_rng(19)
        sys = random_reachable(rng, 6, 3)
        c = pp.controllability_indices(sys)
        spec = pp.EigStructure((0.0,), (c,))
        K, res = place_random(rng, sys, spec)
        scale = 1.0 + pp.fro_norm(sys.A) + pp.fro_norm(sys.B) * pp.fro_norm(res.F)
        assert res.residual <= 1e-8 * scale
        assert weyr_ranks_ok(sys, res.F, spec)

    def test_inadmissible_spec_yields_singular_V(self):
        # two mini-blocks at zero with one input: never assignable
        rng = np.random.default_rng(20)
        sys3 = pp.System(
            np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]),
            np.array([[0.0], [0.0], [1.0]]),
        )
        bad = pp.EigStructure((0.0,), ((2, 1),))
        with pytest.raises(pp.SingularMatrixError):
            for _ in range(10):
                pp.place(sys3, bad, pp.ParameterMatrix.random(bad, 1, rng))

    def test_open_loop_coincidence(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            sys = random_reachable(rng, 5, 2)
            eigs = np.linalg.eigvals(sys.A)
            lam_open = None
            for e in eigs:
                if abs(e.imag) < 1e-9:
                    lam_open = float(e.real)
                    break
            if lam_open is None:
                continue
            spec = pp.EigStructure(
                (lam_open, -10.0, -11.0, -12.0, -13.0),
                ((1,), (1,), (1,), (1,), (1,)),
            )
            K, res = place_random(rng, sys, spec)
            scale = 1.0 + pp.fro_norm(sys.A) + pp.fro_norm(sys.B) * pp.fro_norm(res.F)
            assert res.residual <= 1e-8 * scale

    def test_random_suite_with_structure_verification(self):
        rng = np.random.default_rng(22)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(1, min(n, 3) + 1))
            sys = random_reachable(rng, n, m)
            spec = random_admissible_spec(rng, sys, max_block=3)
            K, res = place_random(rng, sys, spec)
            scale = 1.0 + pp.fro_norm(sys.A) + pp.fro_norm(sys.B) * pp.fro_norm(res.F)
            assert res.residual <= 1e-8 * scale
            assert np.isrealobj(res.F)
            assert weyr_ranks_ok(sys, res.F, spec)
            _, cluster = eigenvalue_match_errors(sys, res.F, spec)
            assert max(cluster) < 1e-6


class TestResidualOp:
    def test_definition_with_identity(self):
        rng = np.random.default_rng(23)
        sys = random_reachable(rng, 3, 1)
        spec = pp.EigStructure((-1.0, -2.0, -3.0), ((1,), (1,), (1,)))
        Lam = pp.jordan_matrix(spec)
        value = pp.residual(sys, np.zeros((1, 3)), np.eye(3), spec)
        assert value == pytest.approx(pp.fro_norm(sys.A - Lam))

    def test_perturbation_growth(self):
        rng = np.random.default_rng(24)
        sys = random_reachable(rng, 4, 2)
        spec = pp.EigStructure((-1.0, -2.0, -3.0, -4.0), ((1,), (1,), (1,), (1,)))
        K, res = place_random(rng, sys, spec)
        noise = 1e-3 * rng.standard_normal(res.F.shape)
        bumped = pp.residual(sys, res.F + noise, res.X, spec)
        upper = pp.fro_norm(sys.B) * pp.fro_norm(noise) * pp.fro_norm(res.X)
        assert res.residual <= 1e-10 * upper
        assert bumped <= upper * (1 + 1e-9)
        assert bumped >= 1e-3 * upper / 100.0


class TestSingleOwners:
    def test_one_singularity_test(self):
        # place, the optimizer's evaluator and kappa_fro/kappa_2 draw the
        # line at the same singular_cond_limit for the same V
        rng = np.random.default_rng(25)
        sys = random_reachable(rng, 3, 2)
        spec = pp.EigStructure((-1.0, -2.0, -3.0), ((1,), (1,), (1,)))
        K, res = place_random(rng, sys, spec)
        cond = res.cond_V
        obj = pp.ObjectiveSpec("condition", 1.0)
        x = K.to_vector()

        below = pp.ToleranceConfig(singular_cond_limit=cond * (1 - 1e-6))
        with pytest.raises(pp.SingularMatrixError) as exc:
            pp.Placer(sys, spec, below).place(K)
        assert exc.value.cond == pytest.approx(cond, rel=1e-12)
        assert _Evaluator(obj, pp.Placer(sys, spec, below)).point(x) is None
        with pytest.raises(pp.SingularMatrixError):
            pp.kappa_fro(res.V, below)

        above = pp.ToleranceConfig(singular_cond_limit=cond * (1 + 1e-6))
        assert pp.Placer(sys, spec, above).place(K).cond_V == cond
        assert _Evaluator(obj, pp.Placer(sys, spec, above)).point(x) is not None
        assert pp.kappa_2(res.V, above) == cond

    def test_place_reuses_the_placers_jordan_matrix(self, monkeypatch):
        rng = np.random.default_rng(26)
        sys = random_reachable(rng, 4, 2)
        spec = pp.EigStructure((-1.0, -2.0), ((2, 1), (1,)))
        placer = pp.Placer(sys, spec)
        K = pp.ParameterMatrix.random(spec, 2, rng)
        calls = []
        build = placement.jordan_matrix
        monkeypatch.setattr(
            placement, "jordan_matrix", lambda s: calls.append(s) or build(s)
        )
        res = placer.place(K)
        assert calls == []
        assert res.residual == pp.residual(sys, res.F, res.X, spec)


class TestRecoverParameters:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(25)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(1, min(n, 3) + 1))
            sys = random_reachable(rng, n, m)
            spec = random_admissible_spec(rng, sys, max_block=4)
            K = pp.ParameterMatrix.random(spec, m, rng)
            chains = pp.build_chains(sys, spec, K)
            back = pp.recover_parameters(sys, spec, chains)
            for a, b in zip(K.blocks, back.blocks):
                assert np.abs(a - b).max() <= 1e-12 * (1.0 + np.abs(a).max())

    def test_double_integrator_worked_example(self):
        sys = double_integrator()
        spec = pp.EigStructure((0.0,), ((2,),))
        K = pp.ParameterMatrix.from_vector(spec, 1, np.array([0.9, -1.1]))
        chains = pp.build_chains(sys, spec, K)
        back = pp.recover_parameters(sys, spec, chains)
        assert np.abs(back.blocks[0] - K.blocks[0]).max() < 1e-14

    def test_rebuilt_chains_reproduce_input(self):
        rng = np.random.default_rng(26)
        sys = random_reachable(rng, 5, 2)
        spec = pp.EigStructure((-1 + 1j, -1 - 1j, -2.0), ((2,), (2,), (1,)))
        K = pp.ParameterMatrix.random(spec, 2, rng)
        chains = pp.build_chains(sys, spec, K)
        back = pp.recover_parameters(sys, spec, chains)
        rebuilt = pp.build_chains(sys, spec, back)
        assert np.abs(rebuilt.H - chains.H).max() < 1e-12 * (1 + np.abs(chains.H).max())

    def test_conjugate_pair_block_order_three(self):
        # pair mini-blocks beyond order 2 follow the same relabeling
        rng = np.random.default_rng(126)
        for _ in range(5):
            sys = random_reachable(rng, 8, 2)
            spec = pp.EigStructure((-1 + 1j, -1 - 1j), ((3, 1), (3, 1)))
            if not pp.check_admissible(spec, sys).satisfied:
                continue
            K = pp.ParameterMatrix.random(spec, 2, rng)
            res = pp.place(sys, spec, K)
            scale = 1.0 + pp.fro_norm(sys.A) + pp.fro_norm(sys.B) * pp.fro_norm(res.F)
            assert res.residual <= 1e-8 * scale
            assert weyr_ranks_ok(sys, res.F, spec)
            chains = pp.build_chains(sys, spec, K)
            back = pp.recover_parameters(sys, spec, chains)
            for a, b in zip(K.blocks, back.blocks):
                assert np.abs(a - b).max() <= 1e-12 * (1.0 + np.abs(a).max())

    def test_invalid_chain_set_rejected(self):
        rng = np.random.default_rng(27)
        sys = random_reachable(rng, 4, 2)
        spec = pp.EigStructure((-1.0, -2.0), ((2,), (2,)))
        K = pp.ParameterMatrix.random(spec, 2, rng)
        chains = pp.build_chains(sys, spec, K)
        corrupted = pp.ChainSet(
            spec, (chains.chains[0], (chains.chains[1][0] + 0.01,))
        )
        with pytest.raises(pp.ChainConsistencyError):
            pp.recover_parameters(sys, spec, corrupted)

    def test_single_input_matches_ackermann_formula(self):
        """Independent oracle: for m = 1 the structure-assigning feedback is
        unique and given by Ackermann's formula F = -e_n^T C^{-1} phi(A)."""
        rng = np.random.default_rng(127)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            sys = random_reachable(rng, n, 1)
            poles = -np.arange(1, n + 1, dtype=float) - rng.uniform(0, 0.5)
            spec = pp.EigStructure(tuple(poles.tolist()), tuple((1,) for _ in poles))
            ordered, _ = pp.normalize_ordering(spec)
            K, res = place_random(rng, sys, ordered)

            phi = np.eye(n)
            for lam in poles:
                phi = phi @ (sys.A - lam * np.eye(n))
            C = sys.reachability_matrix()
            F_ack = -(np.linalg.solve(C.T, np.eye(n)[:, -1]) @ phi)[None, :]
            assert np.abs(res.F - F_ack).max() <= 1e-6 * (1.0 + np.abs(F_ack).max())

    def test_external_feedback_round_trip(self):
        """Independent oracle: scipy's pole placer supplies F; chains from
        its closed-loop eigenvectors must recover a K reproducing F."""
        rng = np.random.default_rng(28)
        for _ in range(10):
            sys = random_reachable(rng, 5, 2)
            poles = np.array([-1.0, -2.0, -3.0, -1 + 2j, -1 - 2j])
            full = scipy.signal.place_poles(sys.A, sys.B, poles)
            F_ext = -full.gain_matrix
            spec = pp.EigStructure(
                tuple(poles.tolist()), tuple((1,) for _ in poles)
            )
            ordered, _ = pp.normalize_ordering(spec)
            chains = pp.chains_from_feedback(sys, ordered, F_ext)
            K = pp.recover_parameters(sys, ordered, chains)
            res = pp.place(sys, ordered, K)
            assert np.abs(res.F - F_ext).max() <= 1e-8 * (1.0 + np.abs(F_ext).max())


class TestAlmostEverywhereInvertibility:
    def test_no_singular_draws_small(self):
        rng = np.random.default_rng(29)
        sys = random_reachable(rng, 5, 2)
        spec = random_admissible_spec(rng, sys)
        placer = pp.Placer(sys, spec)
        failures = 0
        for _ in range(100):
            K = pp.ParameterMatrix.random(spec, 2, rng)
            try:
                placer.place(K)
            except pp.SingularMatrixError:
                failures += 1
        assert failures == 0
