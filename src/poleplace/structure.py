"""System and closed-loop eigenstructure descriptions.

A target eigenstructure is the triple (eigenvalues, multiplicities, Jordan
mini-block orders).  This module canonicalizes its ordering (conjugate pairs
first and adjacent, reals after), builds the corresponding Jordan matrix,
computes controllability indices, and checks Rosenbrock admissibility.
"""

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import NotReachableError, StructureError
from .linalg import DEFAULT_TOL, two_norm


@dataclass(eq=False)
class System:
    """A reachable LTI pair: x' = A x + B u with B of full column rank."""

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
        self.B = np.atleast_2d(np.asarray(self.B, dtype=float))
        if self.A.shape[0] != self.A.shape[1]:
            raise StructureError("A must be square")
        if self.B.shape[0] != self.A.shape[0]:
            raise StructureError("B must have as many rows as A")
        if not (np.isfinite(self.A).all() and np.isfinite(self.B).all()):
            raise StructureError("system matrices must be finite")
        s = np.linalg.svd(self.B, compute_uv=False)
        if s[-1] <= DEFAULT_TOL.rank_threshold(self.B.shape, s[0] if s[0] > 0 else 1.0):
            raise StructureError("B must have full column rank")

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def m(self):
        return self.B.shape[1]

    def reachability_matrix(self):
        """Krylov matrix [B, AB, ..., A^(n-1) B], shape (n, n*m)."""
        blocks = [self.B]
        for _ in range(self.n - 1):
            blocks.append(self.A @ blocks[-1])
        return np.hstack(blocks)


@dataclass(frozen=True)
class EigStructure:
    """Desired closed-loop eigenstructure.

    eigenvalues : distinct finite complex numbers, self-conjugate as a set
    block_orders : per eigenvalue, the Jordan mini-block orders (stored
        nonincreasing); the algebraic multiplicity is their sum
    sigma : number of conjugate pairs (derived)

    Conjugate partners must carry bitwise-identical block orders.  The
    canonical ordering used by the placement pipeline (pairs first and
    adjacent, reals after) is produced by `normalize_ordering`.
    """

    eigenvalues: tuple
    block_orders: tuple
    sigma: int = field(init=False)

    def __post_init__(self):
        eigs = tuple(complex(z) for z in self.eigenvalues)
        blocks = tuple(
            tuple(sorted((int(p) for p in orders), reverse=True))
            for orders in self.block_orders
        )
        if len(eigs) == 0:
            raise StructureError("eigenstructure must contain at least one eigenvalue")
        if len(eigs) != len(blocks):
            raise StructureError("one block-order list required per eigenvalue")
        if not np.isfinite(eigs).all():
            raise StructureError("non-finite eigenvalue given")
        for lam, orders in zip(eigs, blocks):
            if len(orders) == 0 or any(p < 1 for p in orders):
                raise StructureError(f"block orders of {lam} must be positive")
        if len(set(eigs)) != len(eigs):
            raise StructureError("eigenvalues must be distinct")
        for i, lam in enumerate(eigs):
            if lam.imag == 0.0:
                continue
            partners = [j for j, mu in enumerate(eigs) if mu == lam.conjugate()]
            if not partners:
                raise StructureError(f"eigenvalue {lam} has no conjugate partner")
            if blocks[partners[0]] != blocks[i]:
                raise StructureError(
                    f"conjugate pair {lam} has mismatched block orders"
                )
        object.__setattr__(self, "eigenvalues", eigs)
        object.__setattr__(self, "block_orders", blocks)
        object.__setattr__(
            self, "sigma", sum(1 for z in eigs if z.imag != 0.0) // 2
        )

    @property
    def nu(self):
        return len(self.eigenvalues)

    @functools.cached_property
    def multiplicities(self):
        return tuple(sum(orders) for orders in self.block_orders)

    @functools.cached_property
    def n(self):
        return sum(self.multiplicities)

    @property
    def max_block_order(self):
        return max(max(orders) for orders in self.block_orders)

    def is_conformably_ordered(self):
        """True if complex pairs come first, adjacent, conjugate-ordered."""
        two_sigma = 2 * self.sigma
        for i, lam in enumerate(self.eigenvalues):
            if (lam.imag != 0.0) != (i < two_sigma):
                return False
        for i in range(0, two_sigma, 2):
            if self.eigenvalues[i + 1] != self.eigenvalues[i].conjugate():
                return False
        return True


def normalize_ordering(raw):
    """Reorder an eigenstructure into canonical conformable order.

    Pairs are sorted by (real, |imag|) with the positive-imaginary member
    first; real eigenvalues follow in ascending order.  Returns the ordered
    structure and the permutation `perm` with
    ``ordered.eigenvalues[perm[i]] == raw.eigenvalues[i]``.  Idempotent.
    """
    eigs = raw.eigenvalues
    pair_reps = [i for i, z in enumerate(eigs) if z.imag > 0.0]
    pair_reps.sort(key=lambda i: (eigs[i].real, eigs[i].imag))
    reals = [i for i, z in enumerate(eigs) if z.imag == 0.0]
    reals.sort(key=lambda i: eigs[i].real)

    order = []
    for i in pair_reps:
        j = eigs.index(eigs[i].conjugate())
        order.extend((i, j))
    order.extend(reals)

    ordered = EigStructure(
        tuple(eigs[i] for i in order),
        tuple(raw.block_orders[i] for i in order),
    )
    perm = tuple(order.index(i) for i in range(len(eigs)))
    return ordered, perm


def jordan_matrix(spec):
    """Assemble the complex block-diagonal Jordan matrix of the structure."""
    orders = [p for block in spec.block_orders for p in block]
    diagonal = np.repeat(np.asarray(spec.eigenvalues, dtype=complex),
                         spec.multiplicities)
    # ones on the superdiagonal but at the last column of each mini-block
    ones = np.ones(spec.n - 1)
    ones[np.cumsum(orders)[:-1] - 1] = 0.0
    return np.diag(diagonal) + np.diag(ones, 1)


def controllability_indices(sys, tol=DEFAULT_TOL):
    """Controllability indices of (A, B), sorted nonincreasing.

    Uses the standard staircase column selection over the Krylov matrix
    [B, AB, ..., A^(n-1) B]: the column A^j b_i is kept when it is
    numerically independent of all previously kept columns, and c_i counts
    the kept powers for input i.  Raises NotReachableError when the kept
    columns do not span the state space.
    """
    n, m = sys.n, sys.m
    R = sys.reachability_matrix()
    threshold = tol.rank_threshold(R.shape, two_norm(R))

    Q = np.zeros((n, 0))
    counts = [0] * m
    for j in range(n):
        for i in range(m):
            col = R[:, j * m + i]
            # skipped powers stay skipped: once dependent, always dependent
            if counts[i] < j:
                continue
            r = col - Q @ (Q.T @ col)
            r = r - Q @ (Q.T @ r)
            nrm = np.linalg.norm(r)
            if nrm > threshold:
                Q = np.hstack([Q, (r / nrm)[:, None]])
                counts[i] += 1
    if sum(counts) < n:
        raise NotReachableError(
            f"pair not reachable: reachability matrix has rank {sum(counts)} < {n}"
        )
    return tuple(sorted(counts, reverse=True))


@dataclass(frozen=True)
class AdmissibilityReport:
    """Outcome of the Rosenbrock admissibility test."""

    controllability_indices: tuple
    invariant_degrees: tuple
    satisfied: bool
    failing_index: int | None = None
    message: str = ""


def check_admissible(spec, sys, tol=DEFAULT_TOL):
    """Check a target structure against Rosenbrock's conditions.

    The requested invariant-factor degrees are d_q = sum_i p_{i,q} (q-th
    largest block order of eigenvalue i, zero when it has fewer than q
    blocks).  With controllability indices c_1 >= ... >= c_m, the structure
    is assignable iff

        sum_{q<=k} d_q >= sum_{q<=k} c_q   for k = 1..m,

    with equality at k = m.  Requesting more than m mini-blocks for one
    eigenvalue, or multiplicities not summing to n, is never assignable.
    """
    n, m = sys.n, sys.m
    if spec.n != n:
        raise StructureError(
            f"multiplicities sum to {spec.n}, expected state dimension {n}"
        )
    c = controllability_indices(sys, tol)
    d = tuple(
        sum(orders[q] if q < len(orders) else 0 for orders in spec.block_orders)
        for q in range(m)
    )

    over = [i for i, orders in enumerate(spec.block_orders) if len(orders) > m]
    if over:
        lam = spec.eigenvalues[over[0]]
        return AdmissibilityReport(
            c, d, False, m,
            f"eigenvalue {lam} requests {len(spec.block_orders[over[0]])} "
            f"mini-blocks but only {m} inputs are available",
        )

    run_c = run_d = 0
    for k in range(m):
        run_c += c[k]
        run_d += d[k]
        if run_d < run_c:
            return AdmissibilityReport(
                c, d, False, k + 1,
                f"partial degree sum {run_d} < index sum {run_c} at k={k + 1}",
            )
    if run_d != n:
        return AdmissibilityReport(
            c, d, False, m, f"invariant degrees sum to {run_d}, expected {n}"
        )
    return AdmissibilityReport(c, d, True)


def conformable_column_blocks(spec):
    """Column ranges of each eigenvalue's block inside the n-column layout."""
    edges = list(itertools.accumulate((0,) + spec.multiplicities))
    return [(edges[i], edges[i + 1]) for i in range(spec.nu)]
