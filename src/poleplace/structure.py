"""System and closed-loop eigenstructure descriptions.

A target eigenstructure is the triple (eigenvalues, multiplicities, Jordan
mini-block orders).  This module canonicalizes its ordering (conjugate pairs
first and adjacent, reals after), builds the corresponding Jordan matrix,
computes controllability indices, and checks Rosenbrock admissibility.  Its
rank decisions, the column rank of B and the ranks of the Krylov prefixes
that give the indices, take `linalg.numerical_rank`, the package's one
rank rule.
"""

import functools
import itertools
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import NotReachableError, StructureError
from .linalg import DEFAULT_TOL, numerical_rank


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
        if numerical_rank(self.B) < self.m:
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
        nonincreasing, as ints); the algebraic multiplicity is their sum.
        An order must be a number of integer value: a bool, a string or
        a non-integral number raises StructureError, as do orders of one
        eigenvalue that are not a sequence, such as a bare int
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
        try:
            given = [tuple(orders) for orders in self.block_orders]
        except TypeError:
            raise StructureError(
                "block orders must be one sequence of orders per eigenvalue"
            ) from None
        for p in itertools.chain.from_iterable(given):
            if isinstance(p, bool) or not isinstance(p, numbers.Real) or p % 1:
                raise StructureError(f"block order {p!r} is not an integer")
        blocks = tuple(
            tuple(sorted((int(p) for p in orders), reverse=True))
            for orders in given
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

    With r_j the numerical rank (`linalg.numerical_rank`, under tol) of the
    Krylov prefix [B, AB, ..., A^(j-1) B], and r_0 = 0, the indices are the
    conjugate partition of the rank increments:
    c_i = #{j : r_j - r_(j-1) >= i} for i = 1..m.  Each prefix is judged
    against its own largest singular value, so a large ||A|| cannot swamp
    B.  The ranks are taken until r_j = n; raises NotReachableError when
    the whole Krylov matrix has rank below n.
    """
    n, m = sys.n, sys.m
    R = sys.reachability_matrix()
    ranks = [0]
    for j in range(1, n + 1):
        ranks.append(numerical_rank(R[:, : j * m], tol))
        if ranks[-1] == n:
            break
    else:
        raise NotReachableError(
            f"pair not reachable: reachability matrix has rank {ranks[-1]} < {n}"
        )
    steps = np.diff(ranks)
    return tuple(int(np.sum(steps >= i)) for i in range(1, m + 1))


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
    # spec.n = sys.n and no eigenvalue has more than m blocks, so the
    # degrees and the indices both sum to n: equality at k = m holds
    return AdmissibilityReport(c, d, True)


def conformable_column_blocks(spec):
    """Column ranges of each eigenvalue's block inside the n-column layout."""
    edges = list(itertools.accumulate((0,) + spec.multiplicities))
    return [(edges[i], edges[i + 1]) for i in range(spec.nu)]
