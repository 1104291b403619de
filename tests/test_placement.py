import collections
import warnings

import numpy as np
import pytest
import scipy.signal

import poleplace as pp
from poleplace import placement
from poleplace.optimize import _Evaluator
from conftest import (
    eigenvalue_match_errors,
    load_perfbench,
    place_random,
    random_admissible_spec,
    realify,
    random_reachable,
    weyr_ranks_ok,
    zero_column_draw,
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


class TestStackedPencils:
    """`Placer` builds its pencils from one stacked SVD per dtype, the
    pairs' first members in one and the reals in the other; each pencil
    has the bits `build_pencil` gives its eigenvalue."""

    @pytest.mark.parametrize("n,m", ((4, 2), (6, 2), (8, 3), (16, 4)))
    def test_bits_of_build_pencil(self, n, m):
        rng = np.random.default_rng(11)
        sys = random_reachable(rng, n, m)
        pairs = [complex(-1.0, 0.5 + k) for k in range(n // 4)]
        reals = [-1.0 - k for k in range(n - 2 * len(pairs))]
        eigs = [z for lam in pairs for z in (lam, lam.conjugate())] + reals
        spec, _ = pp.normalize_ordering(pp.EigStructure(tuple(eigs), ((1,),) * n))
        placer = pp.Placer(sys, spec)
        for i, (lam, pencil) in enumerate(zip(spec.eigenvalues, placer.pencils)):
            want = pp.build_pencil(sys, lam)
            if i < 2 * spec.sigma and i % 2:
                want = pp.build_pencil(sys, lam.conjugate()).conjugate()
            assert pencil.lam == want.lam
            for field in ("N", "Mdag"):
                got, ref = getattr(pencil, field), getattr(want, field)
                assert got.dtype == ref.dtype and got.shape == ref.shape
                assert got.tobytes() == ref.tobytes()

    def test_first_unreachable_eigenvalue_raises(self):
        # (A, B) loses reachability at the shifts 2 and 3; the error names
        # the first of them in the structure's order
        sys = pp.System(np.diag([1.0, 2.0, 3.0]), np.array([[1.0], [0.0], [0.0]]))
        spec = pp.EigStructure((1.0, 2.0, 3.0), ((1,),) * 3)
        with pytest.raises(pp.NotReachableError, match=r"lambda=\(2\+0j\)"):
            pp.Placer(sys, spec)
        # a rotation block without input is unreachable at +-2i, and the
        # last state at 3: the pair comes first
        A = np.zeros((4, 4))
        A[:2, :2] = [[0.0, 2.0], [-2.0, 0.0]]
        A[2, 2] = A[3, 3] = 3.0
        sys = pp.System(A, np.array([[0.0], [0.0], [1.0], [0.0]]))
        spec = pp.EigStructure((2j, -2j, 3.0, -1.0), ((1,),) * 4)
        with pytest.raises(pp.NotReachableError, match=r"lambda=2j"):
            pp.Placer(sys, pp.normalize_ordering(spec)[0])


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

    @pytest.mark.parametrize("n, eigs, orders, match", [
        # a 3-state structure for a 2-state pair
        (2, (0.0,), ((3,),), "multiplicities sum to 3, expected 2"),
        # a real eigenvalue ahead of the conjugate pair
        (3, (-3.0, -1 + 1j, -1 - 1j), ((1,),) * 3, "conformably ordered"),
        # pairs first, but a second member is not its first's conjugate
        (4, (1 + 1j, 2 - 1j, 2 + 1j, 1 - 1j), ((1,),) * 4, "conformably ordered"),
    ])
    def test_placer_rejects_structure(self, n, eigs, orders, match):
        # the single-input integrator chain of n states
        sys = pp.System(np.eye(n, k=1), np.eye(n)[:, -1:])
        with pytest.raises(pp.StructureError, match=match):
            pp.Placer(sys, pp.EigStructure(eigs, orders))


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
        cols.append(np.vstack(realify(reference_chains(placer, K))).ravel())
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
            assert got.H.dtype == ref.H.dtype
            assert_columns_close(got.H, ref.H)
            assert_chain_layout(got)


def assert_columns_close(H, ref):
    """Each column of H within 1e-14 of its reference column's largest
    modulus: the stored map sums a column's terms in another order than the
    chain recursion does."""
    assert np.all(np.abs(H - ref).max(axis=0) <= 1e-14 * np.abs(ref).max(axis=0))


def assert_chain_layout(chain_set):
    """The exact structure of a built chain set: a conjugate pair's second
    blocks are the conjugates of its first, and every block is
    C-contiguous."""
    spec, chains = chain_set.spec, chain_set.chains
    for i in range(0, 2 * spec.sigma, 2):
        for blk, blk_c in zip(chains[i], chains[i + 1]):
            assert np.array_equal(blk_c, blk.conj())
    for group in chains:
        for blk in group:
            # a strided block changes the rounding of the BLAS products in
            # recover_parameters
            assert blk.flags.c_contiguous


def grouped_structure(n, m):
    """A structure in which several representative eigenvalues share
    their block orders: two pairs with blocks (2, 1) (order 2 alone when
    m = 1), then reals with blocks (1, 1), (2,) and (3,), in turn while
    they fit, then simple reals."""
    eigs, orders = [], []
    for k in range(2):
        lam = complex(-0.5 - 0.4 * k, 0.6 + 0.3 * k)
        eigs.extend((lam, lam.conjugate()))
        orders.extend(((2, 1)[:m],) * 2)
    rem = n - 2 * sum(sum(blocks) for blocks in orders[::2])
    for blocks in ((1, 1)[:m], (2,), (3,)) * 2:
        if sum(blocks) <= rem:
            eigs.append(-1.0 - 0.5 * len(eigs))
            orders.append(blocks)
            rem -= sum(blocks)
    eigs.extend(-1.0 - 0.5 * (len(eigs) + k) for k in range(rem))
    orders.extend([(1,)] * rem)
    return pp.normalize_ordering(pp.EigStructure(tuple(eigs), tuple(orders)))[0]


GROUPED_CASES = [(12, 1), (14, 1), (16, 1), (14, 2), (16, 2), (15, 3), (16, 3)]


def grouped_instance(n, m):
    spec = grouped_structure(n, m)
    rng = np.random.default_rng(90 + 10 * n + m)
    sys = pp.System(rng.standard_normal((n, n)) / np.sqrt(n),
                    rng.standard_normal((n, m)))
    assert pp.check_admissible(spec, sys).satisfied
    return pp.Placer(sys, spec), rng


GROUP_CASE_INSTANCES = [
    pytest.param(lambda n=n, m=m, kind=kind: operator_instance(n, m, kind),
                 id=f"{kind}-n{n}-m{m}")
    for n, m, kind in OPERATOR_CASES
] + [
    pytest.param(lambda n=n, m=m: grouped_instance(n, m), id=f"grouped-n{n}-m{m}")
    for n, m in GROUPED_CASES
]


def per_eigenvalue_chains(placer, K):
    """build_chains one eigenvalue at a time, each eigenvalue's recursion
    over its parameter block as a batch of one, blocks stacked per
    mini-block and then into H."""
    n, spec = placer.sys.n, placer.spec
    groups = []
    for i, (pencil, Ki) in enumerate(zip(placer.pencils, K.blocks)):
        if i % 2 == 1 and i < 2 * spec.sigma:
            groups.append(tuple(blk.conj() for blk in groups[-1]))
            continue
        Ki = Ki[:, :, None]
        cols = []
        blocks, off = [], 0
        for p in spec.block_orders[i]:
            for ell in range(p):
                h = pencil.N @ Ki[:, off + ell]
                if ell > 0:
                    h = h + pencil.Mdag @ cols[-1][:n]
                cols.append(h)
            blocks.append(np.hstack(cols[off : off + p]))
            off += p
        groups.append(tuple(blocks))
    return groups


def per_eigenvalue_operator(placer):
    """L with one batched recursion per representative eigenvalue, on the
    unit blocks of its coordinates."""
    n, m, spec = placer.sys.n, placer.sys.m, placer.spec
    L = np.zeros((n + m, n, m * n))
    col_blocks = placement.conformable_column_blocks(spec)
    pos = 0
    for i in range(spec.nu):
        if i % 2 == 1 and i < 2 * spec.sigma:
            continue
        pencil, size = placer.pencils[i], m * spec.multiplicities[i]
        E = np.eye(size).reshape(m, -1, size)
        cols, off = [], 0
        for p in spec.block_orders[i]:
            for ell in range(p):
                h = pencil.N @ E[:, off + ell]
                if ell > 0:
                    h = h + pencil.Mdag @ cols[-1][:n]
                cols.append(h)
            off += p
        H = np.stack(cols, axis=1)
        a, b = col_blocks[i]
        if i < 2 * spec.sigma:
            c, d = col_blocks[i + 1]
            L[:, a:b, pos : pos + size] = H.real
            L[:, c:d, pos : pos + size] = H.imag
            L[:, a:b, pos + size : pos + 2 * size] = -H.imag
            L[:, c:d, pos + size : pos + 2 * size] = H.real
            pos += 2 * size
        else:
            L[:, a:b, pos : pos + size] = H
            pos += size
    return L.reshape((n + m) * n, m * n)


class TestGroupedRecursion:
    def test_grouped_structures_have_shared_groups(self):
        # several representatives share (pair or real, block orders), in
        # at least two such groups
        for n, m in GROUPED_CASES:
            placer, _ = grouped_instance(n, m)
            keys = collections.Counter(
                (rep.pair, placer.spec.block_orders[rep.i])
                for rep in placer._reps)
            sizes = sorted(keys.values())
            assert sizes[-1] >= 2 and len(sizes) >= 2

    @pytest.mark.parametrize("make", GROUP_CASE_INSTANCES)
    def test_build_chains_matches_per_eigenvalue_reference(self, make):
        placer, rng = make()
        m = placer.sys.m
        for _ in range(3):
            K = pp.ParameterMatrix.random(placer.spec, m, rng)
            got = placer.build_chains(K)
            ref = per_eigenvalue_chains(placer, K)
            ref_H = np.hstack([blk for group in ref for blk in group])
            assert got.H.dtype == ref_H.dtype
            assert_columns_close(got.H, ref_H)
            assert [len(group) for group in got.chains] == [len(g) for g in ref]
            assert_chain_layout(got)

    @pytest.mark.parametrize("make", GROUP_CASE_INSTANCES)
    def test_operator_matches_per_eigenvalue_build(self, make):
        placer, _ = make()
        assert np.array_equal(placer.operator(), per_eigenvalue_operator(placer))

    @pytest.mark.parametrize("make", GROUP_CASE_INSTANCES)
    def test_chain_set_from_blocks_agrees(self, make):
        placer, rng = make()
        built = placer.build_chains(
            pp.ParameterMatrix.random(placer.spec, placer.sys.m, rng)
        )
        rebuilt = pp.ChainSet(placer.spec, built.chains)
        assert np.array_equal(rebuilt.H, built.H)
        assert np.array_equal(rebuilt.X, built.X)
        for group, other in zip(rebuilt.chains, built.chains):
            for blk, blk_o in zip(group, other):
                assert np.array_equal(blk, blk_o)

    def test_map_and_records_built_on_first_use(self):
        placer, rng = grouped_instance(15, 3)
        assert "_map" not in placer.__dict__ and "_reps" not in placer.__dict__
        placer.build_chains(pp.ParameterMatrix.random(placer.spec, 3, rng))
        assert "_map" in placer.__dict__ and "_reps" in placer.__dict__


class TestTrustedParameterMatrix:
    def test_vector_round_trip_is_a_copy(self):
        spec = grouped_structure(12, 3)
        x = np.random.default_rng(1).standard_normal(3 * 12)
        expected = x.copy()
        K = pp.ParameterMatrix.from_vector(spec, 3, x)
        x[0] += 1.0  # the caller's array is not K's
        y = K.to_vector()
        assert np.array_equal(y, expected)
        y[:] = 0.0  # nor is the returned one
        assert np.array_equal(K.to_vector(), expected)

    def test_blocks_match_the_checked_constructor(self):
        spec = grouped_structure(16, 2)
        K = pp.ParameterMatrix.random(spec, 2, np.random.default_rng(2))
        checked = pp.ParameterMatrix(K.blocks, spec.sigma)
        assert np.array_equal(checked.to_vector(), K.to_vector())
        for blk, blk_c in zip(K.blocks, checked.blocks):
            assert blk.dtype == blk_c.dtype
            assert np.array_equal(blk, blk_c)
            assert not blk.flags.writeable

    def test_checked_constructor_copies_the_callers_blocks(self):
        spec = pp.EigStructure((-1 + 1j, -1 - 1j, -2.0), ((2,), (2,), (1,)))
        b0 = np.array([[1 + 2j, 3 - 1j], [0.5j, -2.0 + 0j]])
        b1 = b0.conj()
        r = np.array([[4.0], [-1.5]])
        K = pp.ParameterMatrix([b0, b1, r], spec.sigma)
        # the pair's real parts, its imaginary parts, the real block
        x = [1.0, 3.0, 0.0, -2.0, 2.0, -1.0, 0.5, 0.0, 4.0, -1.5]
        blocks = [b0.copy(), b1.copy(), r.copy()]
        # mutate the caller's arrays in place
        b0[0, 0] = 5 + 5j
        b1[1, 1] = 7.0
        r[0, 0] = 0.0
        assert np.array_equal(K.to_vector(), x)
        for blk, before in zip(K.blocks, blocks):
            assert np.array_equal(blk, before)
            assert not blk.flags.writeable

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("part", [1.0, 1j])
    def test_non_finite_blocks_rejected(self, bad, part):
        spec = pp.EigStructure((-1 + 1j, -1 - 1j, -2.0), ((1,), (1,), (1,)))
        b0 = np.array([[1 + 2j], [0.5j]])
        b0[1, 0] += bad * part
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(pp.StructureError, match="non-finite"):
                pp.ParameterMatrix([b0, b0.conj(), np.ones((2, 1))], spec.sigma)
            with pytest.raises(pp.StructureError, match="non-finite"):
                pp.ParameterMatrix([b0.real, b0.real, [[1.0], [bad]]], 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_vector_rejected(self, bad):
        spec = grouped_structure(12, 3)
        x = np.random.default_rng(1).standard_normal(3 * 12)
        x[5] = bad
        with pytest.raises(pp.StructureError, match="non-finite"):
            pp.ParameterMatrix.from_vector(spec, 3, x)

    @pytest.mark.parametrize("blocks,sigma", [([], 0), ([np.eye(2)], 1)])
    def test_too_few_blocks_rejected(self, blocks, sigma):
        with pytest.raises(pp.StructureError,
                           match=f"^{len(blocks)} parameter blocks given"):
            pp.ParameterMatrix(blocks, sigma)

    def test_unequal_block_rows_rejected(self):
        with pytest.raises(pp.StructureError, match="must have m rows"):
            pp.ParameterMatrix([np.ones((2, 1)), np.ones((3, 1))], 0)

    @pytest.mark.parametrize("shape", [(2, 4), (8, 1), (1, 8), ()])
    def test_vector_not_one_dimensional_rejected(self, shape):
        # a (2, 4) x once passed the size check, and `place` then raised
        # a bare IndexError
        spec = pp.EigStructure((-1.0, -2.0, -3.0, -4.0), ((1,),) * 4)
        x = np.arange(1.0, 9.0).reshape(shape) if shape else np.float64(1.0)
        with pytest.raises(pp.StructureError, match="must be one-dimensional"):
            pp.ParameterMatrix.from_vector(spec, 2, x)

    @pytest.mark.parametrize("spec", [
        # a defective pair, a simple pair, a defective and a semisimple real
        pp.normalize_ordering(pp.EigStructure(
            (-1 + 1j, -1 - 1j, -0.5 + 2j, -0.5 - 2j, -2.0, -3.0, -4.0),
            ((2, 1), (2, 1), (1,), (1,), (3,), (1, 1), (1,))))[0],
        grouped_structure(16, 3),
    ])
    def test_each_eigenvalue_owns_its_columns_of_x(self, spec):
        # the eigenvalue with chain columns a:e owns x[m a : m e], its
        # block's real parts row-major, a pair's second member the first
        # member's imaginary parts
        m = 3
        K = pp.ParameterMatrix.random(spec, m, np.random.default_rng(7))
        x = K.to_vector()
        blocks = K.blocks
        for i, (a, e) in enumerate(placement.conformable_column_blocks(spec)):
            own = x[m * a : m * e].reshape(m, e - a)
            second = i < 2 * spec.sigma and i % 2
            assert np.array_equal(own, blocks[i - 1].imag if second else blocks[i].real)
        assert np.array_equal(pp.ParameterMatrix(blocks, spec.sigma).to_vector(), x)
        # every block is cut from a private copy: writing into one leaves x
        for blk in K.blocks:
            blk.flags.writeable = True
            blk[...] = 7.0
        assert np.array_equal(K.to_vector(), x)

    @pytest.mark.parametrize("size", [5, 7])
    def test_vector_size_rejected(self, size):
        spec = pp.EigStructure((-1.0, -2.0, -3.0), ((1,),) * 3)
        with pytest.raises(pp.StructureError,
                           match=f"has {size} entries, expected 6"):
            pp.ParameterMatrix.from_vector(spec, 2, np.zeros(size))

    def test_recovered_vector_matches_its_blocks(self):
        placer, rng = grouped_instance(16, 3)
        K = pp.ParameterMatrix.random(placer.spec, 3, rng)
        back = placer.recover_parameters(placer.build_chains(K))
        assert np.array_equal(
            back.to_vector(),
            pp.ParameterMatrix(back.blocks, back.sigma).to_vector(),
        )
        assert np.abs(back.to_vector() - K.to_vector()).max() < 1e-12


class TestZeroImaginaryRealBlock:
    @pytest.mark.parametrize("kind", ["real", "pair"])
    def test_stored_real(self, kind):
        placer, rng = operator_instance(5, 2, kind)
        spec = placer.spec
        K = pp.ParameterMatrix.random(spec, 2, rng)
        # real eigenvalues' blocks as complex arrays with zero imaginary part
        blocks = [blk + 0j if i >= 2 * spec.sigma else blk
                  for i, blk in enumerate(K.blocks)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            K_c = pp.ParameterMatrix(blocks, spec.sigma)
            assert np.array_equal(K_c.to_vector(), K.to_vector())
            got, ref = placer.place(K_c), placer.place(K)
        for blk in K_c.blocks[2 * spec.sigma :]:
            assert not np.iscomplexobj(blk)
        assert got.X.dtype == ref.X.dtype
        assert np.array_equal(got.X, ref.X)
        assert np.array_equal(got.V, ref.V)
        assert np.array_equal(got.F, ref.F)

    def test_nonzero_imaginary_part_still_rejected(self):
        spec = pp.EigStructure((-1.0,), ((1,),))
        with pytest.raises(pp.StructureError, match="must be real"):
            pp.ParameterMatrix([np.array([[1.0 + 1e-300j]])], spec.sigma)


class TestRealSplit:
    """place's real (V, W) against build_chains' complex chain matrix."""

    def test_real_passthrough(self):
        rng = np.random.default_rng(14)
        sys = random_reachable(rng, 3, 1)
        spec = pp.EigStructure((-1.0, -2.0, -3.0), ((1,), (1,), (1,)))
        K = pp.ParameterMatrix.random(spec, 1, rng)
        placer = pp.Placer(sys, spec)
        res, H = placer.place(K), placer.build_chains(K).H
        assert not np.iscomplexobj(H)
        assert np.array_equal(res.V, H[:3])
        assert np.array_equal(res.W, H[3:])

    def test_pair_becomes_real_and_imag_parts(self):
        rng = np.random.default_rng(15)
        sys = random_reachable(rng, 2, 1)
        spec = pp.EigStructure((1 + 1j, 1 - 1j), ((1,), (1,)))
        K = pp.ParameterMatrix.random(spec, 1, rng)
        placer = pp.Placer(sys, spec)
        res, chains = placer.place(K), placer.build_chains(K)
        H1 = chains.chains[0][0][:, 0]
        assert np.array_equal(res.V[:, 0], H1[:2].real)
        assert np.array_equal(res.V[:, 1], H1[:2].imag)
        assert res.W[0, 0] == H1[2].real
        assert res.W[0, 1] == H1[2].imag

    def test_unitary_right_factor_oracle(self):
        # realified pair blocks equal [H_i H_{i+1}] @ U, U = [[I, -jI],[I, jI]]/2
        rng = np.random.default_rng(16)
        sys = random_reachable(rng, 4, 2)
        spec = pp.EigStructure((2j, -2j), ((2,), (2,)))
        K = pp.ParameterMatrix.random(spec, 2, rng)
        placer = pp.Placer(sys, spec)
        res, H = placer.place(K), placer.build_chains(K).H
        mi = 2
        U = 0.5 * np.block(
            [[np.eye(mi), -1j * np.eye(mi)], [np.eye(mi), 1j * np.eye(mi)]]
        )
        realified = H @ U
        assert np.abs(realified.imag).max() < 1e-13
        assert np.abs(np.vstack([res.V, res.W]) - realified.real).max() < 1e-13


class TestPlace:
    def test_results_compare_by_identity(self):
        sys = double_integrator()
        spec = pp.EigStructure((-1.0, -2.0), ((1,), (1,)))
        K = pp.ParameterMatrix.from_vector(spec, 1, np.array([0.9, -1.1]))
        a, b = pp.place(sys, spec, K), pp.place(sys, spec, K)
        assert np.array_equal(a.F, b.F)
        assert a != b and a == a
        assert len({a, b, a}) == 2

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


WORKLOADS = load_perfbench("workloads")

# How far `Placer.place`'s real-form residual may lie from the complex
# definition `pp.residual`, in units of eps * residual_scale(F) * ||V||_F:
# both carry roundoff of that order, and the largest move seen on
# thousands of perfbench ladder and normality placements was 0.034.
RESIDUAL_MOVE_BOUND = 0.1


def perfbench_instance(n, m, gen, cls):
    """A Placer on the perfbench instance of one generator ("ladder" or
    "normality") and structure class, drawn from seed [1, n, m]."""
    rng = np.random.default_rng([1, n, m])
    if gen == "ladder":
        def make(r):
            return WORKLOADS.ladder_structure(pp, r, n, m, cls)
    else:
        def make(r):
            return WORKLOADS.normality_structure(pp, r, n, cls)
    return pp.Placer(*WORKLOADS.admissible_instance(pp, rng, n, m, make)), rng


# every place_ladder cell and class, and the random_normality templates
REAL_FORM_CASES = [
    (n, m, "ladder", cls)
    for n, m in WORKLOADS.LADDER_CELLS for cls in WORKLOADS.STRUCTURE_CLASSES
] + [(n, 2, "normality", cls) for n, cls in WORKLOADS.NORMALITY_TEMPLATES]


class TestRealFormResidual:
    """`Placer.place` takes its residual in real form, against the real
    Jordan form, and gathers X from V only when X is read."""

    @pytest.mark.parametrize("n, m, gen, cls", REAL_FORM_CASES)
    def test_real_jordan_form_commutes_with_the_gather(self, n, m, gen, cls):
        placer, _ = perfbench_instance(n, m, gen, cls)
        spec = placer.spec
        # X = V G, for G the chain gather of the identity
        G = placer._map.chains(np.eye(n))
        LR, P = placer._real_jordan
        assert np.isrealobj(LR)
        assert np.array_equal(LR @ G, G @ placer.Lambda)
        assert P == sum(spec.multiplicities[: 2 * spec.sigma])

    @pytest.mark.parametrize("n, m, gen, cls", REAL_FORM_CASES)
    def test_residual_agrees_with_the_complex_definition(self, n, m, gen, cls):
        placer, rng = perfbench_instance(n, m, gen, cls)
        eps = np.finfo(float).eps
        placed = 0
        for _ in range(5):
            K = pp.ParameterMatrix.random(placer.spec, m, rng)
            try:
                res = placer.place(K)
            except pp.SingularMatrixError:
                continue
            placed += 1
            chains = placer.build_chains(K)
            assert res.X.dtype == chains.H.dtype
            assert np.array_equal(res.X, chains.X)
            ref = pp.residual(placer.sys, res.F, res.X, placer.spec)
            if placer.spec.sigma == 0:
                assert res.residual == ref
            else:
                unit = eps * placer.residual_scale(res.F) * pp.fro_norm(res.V)
                assert abs(res.residual - ref) <= RESIDUAL_MOVE_BOUND * unit
        assert placed >= 3

    @pytest.mark.parametrize(
        "n, eigs, orders",
        [(4, (-1.0, -2.0, -3.0, -4.0), ((1,), (1,), (1,), (1,))),
         (4, (-1.0, -2.0), ((1, 1), (1, 1))),
         (4, (-1.0, -2.0), ((2, 1), (1,))),
         (5, (0.0,), ((3, 2),))],
    )
    def test_structures_without_pairs_keep_their_residual_bits(self, n, eigs, orders):
        rng = np.random.default_rng(27)
        sys = random_reachable(rng, n, 2)
        spec = pp.EigStructure(eigs, orders)
        assert pp.check_admissible(spec, sys).satisfied
        placer = pp.Placer(sys, spec)
        assert placer._real_jordan[1] == 0
        for _ in range(5):
            res = placer.place(pp.ParameterMatrix.random(spec, 2, rng))
            assert np.isrealobj(res.X)
            assert res.residual == pp.residual(sys, res.F, res.X, spec)

    def test_place_gathers_x_on_first_read(self, monkeypatch):
        placer, rng = perfbench_instance(8, 2, "ladder", "defective")
        assert placer.spec.sigma > 0
        K = pp.ParameterMatrix.random(placer.spec, 2, rng)
        calls = []
        gather = placement._PlacementMap.chains
        monkeypatch.setattr(
            placement._PlacementMap, "chains",
            lambda pmap, rows: calls.append(rows.shape) or gather(pmap, rows),
        )
        res = placer.place(K)
        assert calls == []
        assert "X" not in res.__dict__
        X = res.X
        assert calls == [(8, 8)]
        assert res.X is X
        assert np.iscomplexobj(X)


def spread_simple_instance(rng, n, m, tol=pp.linalg.DEFAULT_TOL):
    """A Placer on a random pair (A scaled by 1/sqrt(n), as perfbench draws
    it) with a simple spectrum of n // 4 conjugate pairs and spread reals."""
    sys = pp.System(rng.standard_normal((n, n)) / np.sqrt(n), rng.standard_normal((n, m)))
    eigs = []
    for k in range(n // 4):
        eigs += [complex(-1 - 0.3 * k, 1 + 0.2 * k), complex(-1 - 0.3 * k, -1 - 0.2 * k)]
    eigs += [-0.5 - 0.25 * k for k in range(n - 2 * (n // 4))]
    return pp.Placer(sys, pp.EigStructure(tuple(eigs), ((1,),) * n), tol)


class TestInverseFirstPlace:
    """`Placer.place` decides V's singularity by `nonsingular_inverses` and
    forms F from that inverse, refined once."""

    @staticmethod
    def certified_draw(seed):
        rng = np.random.default_rng(seed)
        placer = spread_simple_instance(rng, 8, 2)
        while True:
            K = pp.ParameterMatrix.random(placer.spec, 2, rng)
            V = realify(placer.build_chains(K))[0]
            sq = [np.vdot(M, M) for M in (V, np.linalg.inv(V))]
            if pp.linalg.certified_rows(*np.array(sq)[:, None]) == [0]:
                return placer, K

    def test_certified_place_takes_no_svd_or_solve(self, monkeypatch):
        placer, K = self.certified_draw(27)
        calls = []
        for name in ("svd", "solve"):
            fn = getattr(np.linalg, name)
            monkeypatch.setattr(
                np.linalg, name,
                lambda *a, name=name, fn=fn, **kw: calls.append(name) or fn(*a, **kw),
            )
        res = placer.place(K)
        assert calls == []
        assert placement.residual_ok(placer.sys, res, placer.tol)

    def test_cond_V_computed_on_first_read(self, monkeypatch):
        placer, K = self.certified_draw(28)
        svd, calls = np.linalg.svd, []
        monkeypatch.setattr(
            np.linalg, "svd", lambda *a, **kw: calls.append(1) or svd(*a, **kw)
        )
        res = placer.place(K)
        assert calls == []
        cond = res.cond_V
        assert calls == [1]
        assert res.cond_V is cond and calls == [1]
        monkeypatch.undo()
        assert cond == pp.kappa_2(res.V)

    @pytest.mark.parametrize("n, m", [(8, 2), (16, 2), (16, 4), (32, 8)])
    def test_refined_F_matches_a_linear_solve(self, n, m):
        # the (16, 2) draws have cond(V) ~ 1e6 to 4e7
        rng = np.random.default_rng([29, n, m])
        eps = np.finfo(float).eps
        conds = []
        for _ in range(2):
            placer = spread_simple_instance(rng, n, m)
            for _ in range(4):
                K = pp.ParameterMatrix.random(placer.spec, m, rng)
                try:
                    res = placer.place(K)
                except pp.SingularMatrixError:
                    continue
                conds.append(res.cond_V)
                F_solve = np.linalg.solve(res.V.T, res.W.T).T
                bound = res.cond_V * eps * (1.0 + pp.fro_norm(res.F))
                assert np.abs(res.F - F_solve).max() <= bound
                assert placement.residual_ok(placer.sys, res, placer.tol)
                # refined, the residual stays at roundoff of its scale, as
                # the linear solve's does; W V^-1 alone grows with cond(V)
                # (to ~600 times the solve's residual on the (16, 2) draws)
                assert res.residual <= 10 * eps * placer.residual_scale(res.F)
        assert len(conds) >= 6
        if (n, m) == (16, 2):
            assert min(conds) > 1e5

    @pytest.mark.parametrize("limit", [1e12, np.inf])
    @pytest.mark.parametrize("i", [0, 2])
    def test_decisions_match_nonsingular_inverses(self, limit, i):
        # a line of parameters through an exactly singular V: eigenvalue i's
        # first parameter column (a pair's, with its conjugate, for i = 0)
        # scaled by t, so V's matching columns are zero at t = 0
        tol = pp.ToleranceConfig(singular_cond_limit=limit)
        rng = np.random.default_rng(30)
        placer = spread_simple_instance(rng, 5, 2, tol)
        base = pp.ParameterMatrix.random(placer.spec, 2, rng)
        column = pp.ParameterMatrix.random(placer.spec, 2, rng).blocks
        ts = [-1.0, -1e-6, -1e-12, -1e-15, 0.0, 1e-16, 1e-13, 1e-10, 1e-4, 1.0]
        Ks, Vs = [], []
        for t in ts:
            blocks = [b.copy() for b in base.blocks]
            for j in ({i, i + 1} if i < 2 * placer.spec.sigma else {i}):
                blocks[j][:, 0] = t * column[j][:, 0]
            Ks.append(pp.ParameterMatrix(blocks, placer.spec.sigma))
            Vs.append(realify(placer.build_chains(Ks[-1]))[0])
        rows = pp.linalg.nonsingular_inverses(np.array(Vs), tol)[0]
        placed = []
        for j, K in enumerate(Ks):
            try:
                placer.place(K)
                placed.append(j)
            except pp.SingularMatrixError:
                pass
        assert placed == rows
        if limit < np.inf:
            # rejected beyond the zero point: cond(V) passes the limit
            assert len(rows) < len(ts) - 1
        else:
            # only the exact zero columns, whatever the singular values read
            assert rows == [j for j, t in enumerate(ts) if t != 0.0]
            with pytest.raises(pp.SingularMatrixError) as exc:
                placer.place(Ks[ts.index(0.0)])
            assert exc.value.cond == np.inf


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



def clustered_feedback(seed, n, m, pairs):
    """(sys, spec, F): scipy's pole placer on a pair A = G / sqrt(n), B = G',
    with `pairs` conjugate pairs -U(0.2, 2) +- i U(0.2, 2) and the other
    eigenvalues real, 1e-3 apart below -U(0.2, 2).  The clustered reals
    make the eigenvector matrix ill-conditioned (cond 1e7 to 1e9)."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n)) / np.sqrt(n)
    B = rng.standard_normal((n, m))
    eigs = []
    for _ in range(pairs):
        re, im = -rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0)
        eigs += [complex(re, im), complex(re, -im)]
    top = -rng.uniform(0.2, 2.0)
    eigs += [complex(top - 1e-3 * k, 0.0) for k in range(n - 2 * pairs)]
    spec = pp.EigStructure(tuple(eigs), tuple((1,) for _ in eigs))
    F = -scipy.signal.place_poles(A, B, np.array(eigs)).gain_matrix
    return pp.System(A, B), pp.normalize_ordering(spec)[0], F


def round_trip_error(sys, spec, F):
    """The CLI `recover` reading: max |F_reproduced - F| over its bound
    1e-8 (1 + ||F||_F)."""
    chains = pp.chains_from_feedback(sys, spec, F)
    res = pp.place(sys, spec, pp.recover_parameters(sys, spec, chains))
    return np.abs(res.F - F).max() / (1e-8 * (1.0 + pp.fro_norm(F)))


class TestChainsFromFeedback:
    """Each chain [x; F x] takes x from the kernel of A + BF - lambda I at the
    target lambda, not from an eigensolver."""

    @pytest.mark.parametrize("seed, n, m, pairs", [(9, 5, 1, 1), (131, 4, 1, 0)])
    def test_ill_conditioned_loop_recovered(self, seed, n, m, pairs):
        # the computed eigenvalues of A + BF miss these targets by 1e-7 to
        # 1e-6, and their eigenvectors break the relation check 3-14 times
        # over its tolerance; the kernel vectors at the targets reproduce F
        sys, spec, F = clustered_feedback(seed, n, m, pairs)
        eigs = np.linalg.eigvals(sys.A + sys.B @ F)
        miss = max(np.abs(eigs - lam).min() for lam in spec.eigenvalues)
        assert miss > 5e-8
        assert round_trip_error(sys, spec, F) <= 1.0

    @pytest.mark.parametrize("pairs", [0, 1, 2])
    def test_non_placing_feedback_rejected(self, pairs):
        rng = np.random.default_rng(140 + pairs)
        for _ in range(10):
            n = int(rng.integers(2 * pairs + 1, 8))
            m = int(rng.integers(1, min(n, 3) + 1))
            sys = random_reachable(rng, n, m)
            eigs = []
            for _ in range(pairs):
                re, im = -rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0)
                eigs += [complex(re, im), complex(re, -im)]
            eigs += [complex(-rng.uniform(0.2, 4.0), 0.0)
                     for _ in range(n - 2 * pairs)]
            spec = pp.normalize_ordering(
                pp.EigStructure(tuple(eigs), tuple((1,) for _ in eigs)))[0]
            chains = pp.chains_from_feedback(sys, spec, rng.standard_normal((m, n)))
            with pytest.raises(pp.ChainConsistencyError):
                pp.recover_parameters(sys, spec, chains)

    def test_column_layout(self):
        rng = np.random.default_rng(143)
        for pairs in (0, 1, 2):
            sys = random_reachable(rng, 6, 2)
            eigs = [-1.0 - 0.5 * k for k in range(6 - 2 * pairs)]
            for k in range(pairs):
                eigs = [complex(-1.5, 1.0 + k), complex(-1.5, -1.0 - k)] + eigs
            spec = pp.normalize_ordering(
                pp.EigStructure(tuple(eigs), tuple((1,) for _ in eigs)))[0]
            F = -scipy.signal.place_poles(sys.A, sys.B, np.array(eigs)).gain_matrix
            H = pp.chains_from_feedback(sys, spec, F).H
            assert H.shape == (8, 6)
            assert H.dtype == (complex if pairs else float)
            P = 2 * pairs
            # a pair's second column is the exact conjugate of its first
            assert np.array_equal(H[:, 1:P:2], H[:, 0:P:2].conj())
            # a real eigenvalue's column is exactly real, a unit x on top
            assert not np.imag(H[:, P:]).any()
            x = H[:6]
            assert np.allclose(np.linalg.norm(x, axis=0), 1.0, atol=1e-14)
            # the bottom is F x, a real product on the real columns
            for j in [*range(0, P, 2), *range(P, 6)]:
                xj = x[:, j].real if j >= P else x[:, j].copy()
                assert np.array_equal(H[6:, j], F @ xj)


class TestChainsFromFeedbackInput:
    """`chains_from_feedback` checks F before it takes any SVD."""

    @pytest.mark.parametrize("shape", [(4, 2), (2, 5), (1, 4), (4,)])
    def test_wrong_shape_rejected(self, shape, monkeypatch):
        sys = random_reachable(np.random.default_rng(5), 4, 2)
        spec = pp.EigStructure((-1.0, -2.0, -3.0, -4.0), ((1,),) * 4)
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: pytest.fail("SVD taken"))
        with pytest.raises(pp.StructureError,
                           match=r"feedback has shape .*, expected \(2, 4\)"):
            pp.chains_from_feedback(sys, spec, np.ones(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad, monkeypatch):
        sys = random_reachable(np.random.default_rng(5), 4, 2)
        spec = pp.EigStructure((-1.0, -2.0, -3.0, -4.0), ((1,),) * 4)
        F = np.ones((2, 4))
        F[1, 2] = bad
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: pytest.fail("SVD taken"))
        with pytest.raises(pp.StructureError, match="non-finite"):
            pp.chains_from_feedback(sys, spec, F)


class TestRecoverInputChecks:
    """`recover_parameters` checks its chain set as `place` checks K."""

    @staticmethod
    def placer_and_chains():
        rng = np.random.default_rng(144)
        sys = random_reachable(rng, 4, 2)
        spec = pp.EigStructure((-1 + 1j, -1 - 1j, -2.0, -3.0), ((1,),) * 4)
        placer = pp.Placer(sys, spec)
        return placer, placer.build_chains(pp.ParameterMatrix.random(spec, 2, rng))

    @pytest.mark.parametrize("shape", [(5, 4), (6, 3)])
    def test_wrong_shape_rejected(self, shape):
        # numpy's matmul ValueError and an IndexError before the check
        placer, _ = self.placer_and_chains()
        H = np.zeros(shape, complex)
        with pytest.raises(pp.StructureError, match="shape"):
            placer.recover_parameters(pp.ChainSet(placer.spec, ((H,),)))

    def test_other_structure_rejected(self):
        placer, chains = self.placer_and_chains()
        other = pp.EigStructure((-1 + 1j, -1 - 1j, -2.0, -4.0), ((1,),) * 4)
        with pytest.raises(pp.StructureError, match="structure"):
            placer.recover_parameters(pp.ChainSet(other, ((chains.H,),)))

    def test_equal_structure_accepted(self):
        placer, chains = self.placer_and_chains()
        spec = pp.EigStructure(placer.spec.eigenvalues, placer.spec.block_orders)
        assert spec is not placer.spec
        back = placer.recover_parameters(pp.ChainSet(spec, ((chains.H,),)))
        expect = placer.recover_parameters(chains)
        assert np.array_equal(back.to_vector(), expect.to_vector())

def reference_recover(placer, chain_set):
    """Parameter recovery one chain column at a time, with the Mdag term:
    k(l) = N^H (h(l) - Mdag pi_upper(h(l-1)))."""
    n, spec = placer.sys.n, placer.spec
    blocks = []
    for i, pencil in enumerate(placer.pencils):
        if i % 2 == 1 and i < 2 * spec.sigma:
            blocks.append(blocks[-1].conj())
            continue
        cols = []
        for blk in chain_set.chains[i]:
            prev = None
            for ell in range(blk.shape[1]):
                h = blk[:, ell]
                k = h if prev is None else h - pencil.Mdag @ prev[:n]
                cols.append(pencil.N.conj().T @ k)
                prev = h
        Ki = np.column_stack(cols)
        blocks.append(Ki if i < 2 * spec.sigma else Ki.real)
    return blocks


def replace_chain(chain_set, i, blk):
    """The chain set with eigenvalue i's first mini-block replaced."""
    groups = list(chain_set.chains)
    groups[i] = (blk,) + groups[i][1:]
    return pp.ChainSet(chain_set.spec, tuple(groups))


class TestLoopFreeRoundTrip:
    @pytest.mark.parametrize("make", GROUP_CASE_INSTANCES)
    def test_place_matches_realify(self, make):
        # place's (V, W) are bitwise the real gather of build_chains' H
        placer, rng = make()
        # no singularity limit, so that every draw is compared
        placer = pp.Placer(
            placer.sys, placer.spec, pp.ToleranceConfig(singular_cond_limit=np.inf)
        )
        for _ in range(3):
            K = pp.ParameterMatrix.random(placer.spec, placer.sys.m, rng)
            res = placer.place(K)
            chains = placer.build_chains(K)
            V, W = realify(chains)
            assert np.array_equal(res.V, V)
            assert np.array_equal(res.W, W)
            assert res.X.dtype == chains.H.dtype
            assert np.array_equal(res.X, chains.X)
        # an exact zero column of V is still singular there, whatever its
        # singular values read: SingularMatrixError, not LinAlgError
        for i in range(placer.spec.nu):
            with pytest.raises(pp.SingularMatrixError):
                placer.place(zero_column_draw(placer, rng, i))

    @pytest.mark.parametrize("make", GROUP_CASE_INSTANCES)
    def test_recover_matches_per_column_reference(self, make):
        placer, rng = make()
        for _ in range(3):
            chains = placer.build_chains(
                pp.ParameterMatrix.random(placer.spec, placer.sys.m, rng)
            )
            got = placer.recover_parameters(chains).blocks
            ref = reference_recover(placer, chains)
            scale = max(np.abs(b).max() for b in ref)
            for blk, ref_blk in zip(got, ref):
                assert blk.shape == ref_blk.shape
                assert np.iscomplexobj(blk) == np.iscomplexobj(ref_blk)
                assert np.abs(blk - ref_blk).max() <= 1e-12 * scale

    def test_conjugate_pair_mismatch_rejected(self):
        placer, rng = operator_instance(8, 2, "pair")
        chains = placer.build_chains(pp.ParameterMatrix.random(placer.spec, 2, rng))
        blk = chains.chains[1][0].copy()
        blk[0, 0] += 1e-3
        with pytest.raises(pp.ChainConsistencyError, match="conjugate pair"):
            placer.recover_parameters(replace_chain(chains, 1, blk))

    @pytest.mark.parametrize("kind", ["real", "defective"])
    def test_complex_chain_for_real_eigenvalue_rejected(self, kind):
        # i h satisfies the chain relations of h, but its parameter is i k
        placer, rng = operator_instance(8, 2, kind)
        chains = placer.build_chains(pp.ParameterMatrix.random(placer.spec, 2, rng))
        i = 2 * placer.spec.sigma
        bad = replace_chain(chains, i, 1j * chains.chains[i][0])
        with pytest.raises(pp.ChainConsistencyError, match="complex chain"):
            placer.recover_parameters(bad)

    def test_level_two_column_in_the_kernel_rejected(self):
        # h(2) = N k(2) drops the Mdag x(1) term: S h(2) = 0 instead of x(1),
        # which only the X Lambda shift of the relation residual catches
        placer, rng = operator_instance(8, 2, "defective")
        chains = placer.build_chains(pp.ParameterMatrix.random(placer.spec, 2, rng))
        spec = placer.spec
        # a real eigenvalue whose first mini-block has order 2
        i = next(i for i in range(2 * spec.sigma, spec.nu)
                 if spec.block_orders[i][0] == 2)
        blk = chains.chains[i][0].copy()
        blk[:, 1] = placer.pencils[i].N @ np.array([0.3, -0.7])
        with pytest.raises(pp.ChainConsistencyError, match="relation residual"):
            placer.recover_parameters(replace_chain(chains, i, blk))


def column_scale(placer, j):
    """scale_j = residual_tol (1 + |A|_F + |lambda_j| sqrt(n) + |B|_F) of
    chain column j; its recovery tolerance is scale_j max(1, |h_j|_2)."""
    sys, spec = placer.sys, placer.spec
    lam = np.repeat(spec.eigenvalues, spec.multiplicities)[j]
    return placer.tol.residual_tol * (
        1.0 + pp.fro_norm(sys.A) + abs(lam) * np.sqrt(sys.n) + pp.fro_norm(sys.B))


class TestPerColumnRule:
    """Every representative column is checked against its own tolerance.

    On the 8 x 2 defective structure the pair's first member holds columns
    0, 1 (one mini-block of order 2), its second member columns 2, 3, and
    the real eigenvalue -2 (eigenvalue 3) columns 5, 6 (order 2) and 7
    (order 1).  The parameters of columns 1, 5 and 6 are drawn 100 times
    larger, and the chain set is scaled by 1e3 so that every |h| > 1.  A
    deviation of twice column 0's or column 7's own tolerance then stays
    below a tolerance taken from the largest entry of the pair mini-block
    or from the largest parameter entry of eigenvalue 3.
    """

    @staticmethod
    def chains():
        placer, rng = operator_instance(8, 2, "defective")
        blocks = [blk.copy() for blk in
                  pp.ParameterMatrix.random(placer.spec, 2, rng).blocks]
        blocks[0][:, 1] *= 100.0
        blocks[1] = blocks[0].conj()
        blocks[3][:, :2] *= 100.0
        chains = placer.build_chains(pp.ParameterMatrix(blocks, placer.spec.sigma))
        chains.H *= 1e3
        return placer, chains

    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_conjugate_mismatch_against_own_column(self, factor):
        placer, chains = self.chains()
        scale, H = column_scale(placer, 0), chains.H
        own = scale * np.linalg.norm(H[:, 0])
        assert 1.0 < np.linalg.norm(H[:, 0])
        assert 2.0 * own < scale * np.abs(H[:, :2]).max()
        H[0, 2] += factor * own
        if factor < 1.0:
            placer.recover_parameters(chains)
        else:
            with pytest.raises(pp.ChainConsistencyError, match="conjugate pair"):
                placer.recover_parameters(chains)

    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_imaginary_part_against_own_column(self, factor):
        # i t N e keeps the chain relations of column 7, the last of its
        # mini-block, and adds t e to the imaginary part of its parameter
        placer, chains = self.chains()
        scale, H = column_scale(placer, 7), chains.H
        own = scale * np.linalg.norm(H[:, 7])
        assert 1.0 < np.linalg.norm(H[:, 7])
        params = placer.recover_parameters(chains).blocks[3]
        assert 2.0 * own < scale * np.abs(params).max()
        H[:, 7] += 1j * factor * own * placer.pencils[3].N[:, 0]
        if factor < 1.0:
            placer.recover_parameters(chains)
        else:
            with pytest.raises(pp.ChainConsistencyError, match="complex chain"):
                placer.recover_parameters(chains)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("col", [0, 1, 4], ids=["pair-first", "pair-second", "real"])
    def test_non_finite_entries_rejected(self, value, col):
        # 5 x 2, two simple pairs then the real eigenvalue -2.5 in column 4
        placer, rng = operator_instance(5, 2, "pair")
        chains = placer.build_chains(pp.ParameterMatrix.random(placer.spec, 2, rng))
        chains.H[1, col] = value
        with pytest.raises(pp.ChainConsistencyError, match="non-finite"):
            placer.recover_parameters(chains)


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
