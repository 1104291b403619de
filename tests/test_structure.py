import numpy as np
import pytest

import poleplace as pp
from conftest import random_reachable, weyr_ranks_ok


class TestSystem:
    @pytest.mark.parametrize(
        "A, B, match",
        [(np.zeros((2, 3)), np.ones((2, 1)), "A must be square"),
         (np.zeros((2, 2)), np.ones((3, 1)), "B must have as many rows as A"),
         ([[0.0, np.nan], [0.0, 0.0]], [[0.0], [1.0]], "must be finite"),
         ([[0.0, 1.0], [0.0, 0.0]], [[0.0], [np.inf]], "must be finite")],
    )
    def test_malformed_pair_rejected(self, A, B, match):
        with pytest.raises(pp.StructureError, match=match):
            pp.System(A, B)


class TestEigStructure:
    def test_rejects_empty_structure(self):
        with pytest.raises(pp.StructureError, match="at least one eigenvalue"):
            pp.EigStructure((), ())

    @pytest.mark.parametrize(
        "eigs, orders", [((-1.0, -2.0), ((1,),)), ((-1.0,), ((1,), (1,)))]
    )
    def test_rejects_length_mismatch(self, eigs, orders):
        with pytest.raises(pp.StructureError, match="one block-order list"):
            pp.EigStructure(eigs, orders)

    def test_blocks_stored_nonincreasing(self):
        spec = pp.EigStructure((0.0,), ((1, 3, 2),))
        assert spec.block_orders == ((3, 2, 1),)
        assert spec.multiplicities == (6,)

    def test_rejects_nonpositive_blocks(self):
        with pytest.raises(pp.StructureError):
            pp.EigStructure((0.0,), ((2, 0),))

    @pytest.mark.parametrize("bad", [2.7, True, "2", np.float64(np.nan)])
    def test_rejects_non_integer_block_order(self, bad):
        # int() would take the first three for the orders 2, 1 and 2
        with pytest.raises(pp.StructureError, match="is not an integer"):
            pp.EigStructure((0.0,), ((bad,),))

    @pytest.mark.parametrize(
        "eigs, orders", [((0.0,), (2,)), ((0.0, 1.0), ((1,), 2)), ((0.0,), 2)]
    )
    def test_rejects_orders_not_a_sequence(self, eigs, orders):
        # a bare int where a sequence of orders belongs
        with pytest.raises(pp.StructureError, match="one sequence of orders"):
            pp.EigStructure(eigs, orders)

    def test_integer_valued_orders_stored_as_int(self):
        spec = pp.EigStructure((0.0,), ((np.int64(2), 1.0),))
        assert spec.block_orders == ((2, 1),)
        assert all(type(p) is int for p in spec.block_orders[0])

    def test_rejects_duplicate_eigenvalues(self):
        with pytest.raises(pp.StructureError):
            pp.EigStructure((1.0, 1.0), ((1,), (1,)))

    def test_rejects_unmatched_conjugate(self):
        with pytest.raises(pp.StructureError):
            pp.EigStructure((1 + 1j,), ((1,),))

    def test_rejects_conjugate_block_mismatch(self):
        with pytest.raises(pp.StructureError):
            pp.EigStructure((1 + 1j, 1 - 1j), ((2,), (1, 1)))

    @pytest.mark.parametrize("bad", [
        complex(np.nan, 0.0), complex(np.inf, 0.0), complex(-np.inf, 0.0),
        complex(-1.0, np.nan), complex(-1.0, np.inf),
    ])
    def test_rejects_non_finite_eigenvalue(self, bad):
        # named as non-finite even where the partner check would also fail
        with pytest.raises(pp.StructureError, match="non-finite"):
            pp.EigStructure((bad, -1.0), ((1,), (1,)))
        with pytest.raises(pp.StructureError, match="non-finite"):
            pp.EigStructure((bad, bad.conjugate()), ((1,), (1,)))

    def test_sigma_counts_pairs(self):
        spec = pp.EigStructure((2 + 2j, 2 - 2j, 7.0), ((1,), (1,), (1,)))
        assert spec.sigma == 1


class TestNormalizeOrdering:
    def test_documented_example(self):
        raw = pp.EigStructure(
            (7.0, 2 + 2j, 10j, 2 - 2j, -10j),
            ((1,), (1,), (1,), (1,), (1,)),
        )
        ordered, perm = pp.normalize_ordering(raw)
        assert ordered.eigenvalues == (10j, -10j, 2 + 2j, 2 - 2j, 7.0)
        assert ordered.sigma == 2
        assert ordered.is_conformably_ordered()
        for i, lam in enumerate(raw.eigenvalues):
            assert ordered.eigenvalues[perm[i]] == lam

    def test_all_real_unchanged(self):
        raw = pp.EigStructure((-1.0, -2.0, -3.0), ((1,), (1,), (1,)))
        ordered, perm = pp.normalize_ordering(raw)
        assert ordered.sigma == 0
        assert ordered.eigenvalues == (-3.0, -2.0, -1.0)

    def test_idempotent(self):
        raw = pp.EigStructure(
            (7.0, 2 + 2j, 10j, 2 - 2j, -10j),
            ((2,), (1,), (1,), (1,), (1,)),
        )
        once, _ = pp.normalize_ordering(raw)
        twice, perm = pp.normalize_ordering(once)
        assert twice.eigenvalues == once.eigenvalues
        assert twice.block_orders == once.block_orders
        assert perm == tuple(range(once.nu))


class TestJordanMatrix:
    def test_mini_block_layout(self):
        spec = pp.EigStructure((2.0, 1j, -1j), ((2, 1), (1,), (1,)))
        ordered, _ = pp.normalize_ordering(spec)
        J = pp.jordan_matrix(ordered)
        assert J.shape == (5, 5)
        # pairs first: diag(j, -j), then the (2,1) blocks at 2.0
        assert J[0, 0] == 1j and J[1, 1] == -1j
        assert J[2, 2] == J[3, 3] == J[4, 4] == 2.0
        assert J[2, 3] == 1.0 and J[3, 4] == 0.0
        assert np.count_nonzero(J - np.diag(np.diag(J))) == 1


def _indices_via_rank_increments(A, B):
    """Independent oracle: conjugate partition of Krylov rank increments."""
    n = A.shape[0]
    ranks = []
    blocks = [B]
    for _ in range(n):
        ranks.append(np.linalg.matrix_rank(np.hstack(blocks)))
        blocks.append(A @ blocks[-1])
    increments = [ranks[0]] + [ranks[j] - ranks[j - 1] for j in range(1, n)]
    counts = []
    for i in range(B.shape[1]):
        counts.append(sum(1 for r in increments if r > i))
    return tuple(sorted(counts, reverse=True))


class TestControllabilityIndices:
    def test_single_input_chain(self):
        sys = pp.System(np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0], [1.0]]))
        assert pp.controllability_indices(sys) == (2,)

    def test_identity_input(self):
        sys = pp.System(np.zeros((3, 3)), np.eye(3))
        assert pp.controllability_indices(sys) == (1, 1, 1)

    def test_block_companion_two_chains(self):
        A = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        B = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        sys = pp.System(A, B)
        assert pp.controllability_indices(sys) == (2, 1)
        assert pp.controllability_indices(sys) == _indices_via_rank_increments(A, B)

    def test_unreachable_pair(self):
        A = np.diag([1.0, 2.0])
        B = np.array([[1.0], [0.0]])
        with pytest.raises(pp.NotReachableError):
            pp.controllability_indices(pp.System(A, B))

    def test_random_suite_against_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            n = int(rng.integers(2, 8))
            m = int(rng.integers(1, min(n, 4) + 1))
            sys = random_reachable(rng, n, m)
            c = pp.controllability_indices(sys)
            assert sum(c) == n
            assert c == _indices_via_rank_increments(sys.A, sys.B)
            # a large ||A|| must not swamp B: each Krylov prefix is judged
            # against its own largest singular value
            for s in (10.0, 100.0):
                scaled = pp.System(s * sys.A, sys.B)
                assert pp.controllability_indices(scaled) == c
                assert c == _indices_via_rank_increments(scaled.A, scaled.B)

    @pytest.mark.parametrize("n, m, s", [(16, 4, 10.0), (10, 2, 100.0), (8, 2, 100.0)])
    def test_scaled_draws_give_generic_indices(self, n, m, s):
        # B has full column rank, so no index can be 0; a generic pair has
        # indices as equal as n and m allow
        generic = tuple(n // m + (i < n % m) for i in range(m))
        rng = np.random.default_rng(99)
        for _ in range(40):
            A = rng.standard_normal((n, n)) * s / np.sqrt(n)
            sys = pp.System(A, rng.standard_normal((n, m)))
            c = pp.controllability_indices(sys)
            assert min(c) >= 1
            assert c == generic


def _indices_3_1_pair():
    """A pair with controllability indices (3, 1): b_1 = e_2 runs the chain
    e_2 -> e_1 -> e_0, and A e_3 = 0."""
    A = np.zeros((4, 4))
    A[0, 1] = A[1, 2] = 1.0
    return pp.System(A, np.eye(4)[:, 2:])


class TestCheckAdmissible:
    def test_single_input_two_blocks_inadmissible(self):
        sys = pp.System(np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0], [1.0]]))
        spec = pp.EigStructure((0.0,), ((2, 1),))
        # n mismatch guarded separately; use a 3-state chain
        sys3 = pp.System(
            np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]),
            np.array([[0.0], [0.0], [1.0]]),
        )
        report = pp.check_admissible(spec, sys3)
        assert not report.satisfied
        assert "mini-blocks" in report.message

    def test_equality_case_admissible(self):
        A = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        B = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        sys = pp.System(A, B)
        report = pp.check_admissible(pp.EigStructure((0.0,), ((2, 1),)), sys)
        assert report.controllability_indices == (2, 1)
        assert report.invariant_degrees == (2, 1)
        assert report.satisfied

    def test_partial_sum_failure(self):
        report = pp.check_admissible(
            pp.EigStructure((0.0,), ((2, 2),)), _indices_3_1_pair()
        )
        assert report.controllability_indices == (3, 1)
        assert report.invariant_degrees == (2, 2)
        assert not report.satisfied
        assert report.failing_index == 1
        assert report.message == "partial degree sum 2 < index sum 3 at k=1"

    def test_multiplicity_sum_mismatch(self):
        sys = pp.System(np.zeros((2, 2)), np.eye(2))
        with pytest.raises(pp.StructureError):
            pp.check_admissible(pp.EigStructure((0.0,), ((3,),)), sys)

    def _placement_succeeds(self, sys, spec, rng):
        placer = pp.Placer(sys, spec)
        for _ in range(8):
            K = pp.ParameterMatrix.random(spec, sys.m, rng)
            try:
                res = placer.place(K)
            except pp.SingularMatrixError:
                continue
            scale = 1.0 + pp.fro_norm(sys.A) + pp.fro_norm(sys.B) * pp.fro_norm(res.F)
            if res.residual <= 1e-8 * scale and weyr_ranks_ok(sys, res.F, spec):
                return True
        return False

    def test_brute_force_assignment_oracle(self):
        """Verdict agrees with actual placement success on small instances."""
        rng = np.random.default_rng(8)
        partitions4 = [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
        partitions2 = [(2,), (1, 1)]

        def systems():
            for _ in range(4):
                yield random_reachable(rng, 4, 2)
            # indices (3, 1), where verdicts fail on a partial sum as well
            yield _indices_3_1_pair()

        for sys in systems():
            candidates = [
                pp.EigStructure((0.0,), (part,)) for part in partitions4
            ]
            candidates += [
                pp.EigStructure((0.0, -1.0), (p1, p2))
                for p1 in partitions2
                for p2 in partitions2
            ]
            for spec in candidates:
                verdict = pp.check_admissible(spec, sys).satisfied
                achieved = self._placement_succeeds(sys, spec, rng)
                assert verdict == achieved, (
                    f"admissibility verdict {verdict} but placement "
                    f"success {achieved} for blocks {spec.block_orders}"
                )
