"""Parametric pole placement via pencil-kernel Jordan chains.

Given a reachable pair (A, B) and an admissible target eigenstructure, every
feedback F assigning that structure is reached from an m x n-parameter block
matrix K: chains are built from the kernels and pseudoinverses of the pencils
[A - lambda_i I, B], assembled into a complex chain matrix, realified, and
closed with F = W V^{-1}.

K's m*n real coordinates x have one layout, which every step reads: the
eigenvalue whose chain columns are a:e (`conformable_column_blocks`) owns
x[m*a : m*e], its real m x (e - a) block row-major, except that a
conjugate pair's second member holds its first member's imaginary parts.
So x is K realified in V's column layout, and every eigenvalue's first
coordinate is m times its first chain column.

The whole construction is one linear map from x to the real [V; W], and a
`Placer` holds it once, in
`_PlacementMap`: column c of [V; W] reads only its own eigenvalue's
coordinates, so [V; W][:, c] = T[c]^T x[coords[c]], one gather and one
stacked product for all columns.  The map's blocks come from one run of the
chain recursion, `_chain_columns`, per representative eigenvalue (each
pair's first member, then the reals), on the unit blocks of that
eigenvalue's own parameters and with its own pencil.  `Placer._reps` is the
one walk of the conformable layout: one record per representative, holding
its index, first chain column and whether it is a pair, which every other
step reads.  `Placer.place` and
`Placer.build_chains` apply the map; the complex chain matrix H is an exact
gather of the real [V; W] (a pair's columns are V_1 +- i V_2).  `place`
decides V's singularity inverse first, by the optimizer's own rule
(`linalg.nonsingular_inverse`), and forms F from that inverse with one
step of iterative refinement, so it takes no SVD unless V is rejected.
Its products stay real: the closed-loop residual is taken on V
against the real Jordan form, and the complex chain top X is gathered
only when it is read.
`Placer.operator` scatters the same blocks into the dense matrix L the
optimizer multiplies by.  The map is exactly invertible, which
`recover_parameters` exploits: a chain column is
h(l) = Mdag pi_upper(h(l-1)) + N k(l), and since N^H Mdag = 0 (the range
of Mdag is orthogonal to ker S), every parameter column is one projection
k(l) = N^H h(l), taken for all representative columns at once.  The input
is checked by one per-column rule: each representative column's conjugate
mismatch, chain-relation residual and imaginary parameter must stay within
that column's own tolerance, and a non-finite chain set is rejected.
`chains_from_feedback` writes the chain matrix of an external feedback
with a simple spectrum directly, one [x; F x] column per eigenvalue, x
from the kernel of A + BF - lambda I at the requested lambda (its right
singular vector of least singular value), so that it asks the same
question as that check: does x solve the chain relation at lambda?
"""

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ChainConsistencyError, NotReachableError, StructureError
from .linalg import (
    DEFAULT_TOL,
    fro_norm,
    kernel_and_pseudo_inverse,
    nonsingular_inverse,
)
from .structure import conformable_column_blocks, jordan_matrix

# Unused here since build_pencil takes both from one SVD, but kept bound:
# perfbench/tracing.py wraps these two names on this module.
from .linalg import kernel_basis, pseudo_inverse  # noqa: F401

# the weight of a pair's residual columns: each stands for itself and its
# conjugate (see `Placer.place`)
_SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class PencilData:
    """Kernel basis and pseudoinverse of the pencil [A - lambda I, B]."""

    lam: complex
    N: np.ndarray
    Mdag: np.ndarray

    def conjugate(self):
        return PencilData(self.lam.conjugate(), self.N.conj(), self.Mdag.conj())


def build_pencil(sys, lam, tol=DEFAULT_TOL):
    """Pencil data at one shift.

    The kernel of the n x (n+m) pencil has dimension exactly m for every
    shift when (A, B) is reachable, including shifts equal to open-loop
    eigenvalues; any other dimension raises NotReachableError.
    """
    return _build_pencils(sys, [complex(lam)], tol)[0]


def _build_pencils(sys, lams, tol):
    """`build_pencil` at each of lams, from one stacked SVD.

    The shifts must be of one kind, all real or all nonreal, so that the
    pencils share a dtype and each takes the bits of its own call.  A shift
    whose kernel has the wrong dimension raises NotReachableError, the
    first such shift in the order given.
    """
    shifts = np.array([lam.real if lam.imag == 0.0 else lam for lam in lams])
    S = np.concatenate([
        sys.A - shifts[:, None, None] * np.eye(sys.n),
        np.broadcast_to(sys.B, (len(lams), *sys.B.shape)),
    ], axis=2)
    pencils = []
    for lam, (N, Mdag) in zip(lams, kernel_and_pseudo_inverse(S, tol)):
        if N.shape[1] != sys.m:
            raise NotReachableError(
                f"pair not reachable at lambda={lam}: kernel dimension "
                f"{N.shape[1]} != {sys.m}"
            )
        pencils.append(PencilData(lam, N, Mdag))
    return pencils


class ParameterMatrix:
    """Block parameter K = blkdiag(K_1, ..., K_nu), one m x m_i block per
    eigenvalue, held as its coordinate vector.

    Blocks of a conjugate pair are exact conjugates and blocks of real
    eigenvalues are real, so the free real content is exactly m*n numbers,
    the vector x, in the module's one layout: the eigenvalue whose chain
    columns are a:e owns x[m*a : m*e], its block's real parts row-major,
    except that a pair's second member holds the first member's imaginary
    parts.  x is the one state of K: `to_vector` returns a copy of it,
    and `blocks` derives the blocks from it on every access, read-only (the
    second member of a pair as the conjugate of the first).

    The constructor checks the blocks it is given (m rows each, finite
    entries, exact conjugate pairs, a real eigenvalue's block given as
    complex with zero imaginary part) and packs them into a new x, so K
    never shares memory with the caller's arrays.  `from_vector` (which
    checks the vector's size and finiteness), `random` and
    `Placer.recover_parameters` build K from a vector directly.
    """

    def __init__(self, blocks, sigma):
        blocks = [np.atleast_2d(np.asarray(b)) for b in blocks]
        sigma = int(sigma)
        if len(blocks) < max(1, 2 * sigma):
            raise StructureError(
                f"{len(blocks)} parameter blocks given, need at least one "
                f"and 2 * sigma = {2 * sigma} for the conjugate pairs"
            )
        m = blocks[0].shape[0]
        if any(b.shape[0] != m for b in blocks):
            raise StructureError("all parameter blocks must have m rows")
        if not all(np.isfinite(b).all() for b in blocks):
            raise StructureError("parameter blocks have non-finite entries")
        for i, blk in enumerate(blocks):
            if (i < 2 * sigma and i % 2
                    and not np.array_equal(blk, blocks[i - 1].conj())):
                raise StructureError(
                    f"parameter blocks {i - 1} and {i} are not conjugates"
                )
            if i >= 2 * sigma and np.iscomplexobj(blk) and blk.imag.any():
                raise StructureError(f"parameter block {i} must be real")
        self.sigma = sigma
        self._shapes = tuple(b.shape for b in blocks)
        # each eigenvalue's real block, a pair's second member's replaced
        # by its first member's imaginary parts
        self._x = np.concatenate([
            (blocks[i - 1].imag if i < 2 * sigma and i % 2 else blk.real).ravel()
            for i, blk in enumerate(blocks)
        ], dtype=float)

    @classmethod
    def _of_vector(cls, spec, m, x):
        """K from a coordinate vector the caller hands over (no copy, no
        checks)."""
        K = cls.__new__(cls)
        K.sigma = spec.sigma
        K._shapes = tuple((m, mult) for mult in spec.multiplicities)
        K._x = x
        return K

    @property
    def m(self):
        return self._shapes[0][0]

    @property
    def blocks(self):
        return _blocks_of_vector(
            self._x, self.sigma, self.m, [s[1] for s in self._shapes]
        )

    def to_vector(self):
        return self._x.copy()

    @classmethod
    def from_vector(cls, spec, m, vec):
        vec = np.array(vec, dtype=float)
        if vec.ndim != 1:
            raise StructureError(
                f"parameter vector must be one-dimensional, got shape {vec.shape}"
            )
        expected = m * spec.n
        if vec.size != expected:
            raise StructureError(
                f"parameter vector has {vec.size} entries, expected {expected}"
            )
        if not np.isfinite(vec).all():
            raise StructureError("parameter vector has non-finite entries")
        return cls._of_vector(spec, m, vec)

    @classmethod
    def random(cls, spec, m, rng):
        """Standard-normal entries on the free coordinates."""
        return cls._of_vector(spec, m, rng.standard_normal(m * spec.n))


def _blocks_of_vector(vec, sigma, m, mults):
    """The read-only blocks of a coordinate vector (layout: ParameterMatrix).

    The blocks are cut from a private copy of vec, so no block shares
    memory with the caller's vector.
    """
    parts = np.split(vec.copy(), m * np.cumsum(mults)[:-1])
    blocks = [part.reshape(m, -1) for part in parts]
    for i in range(0, 2 * sigma, 2):
        blocks[i] = blocks[i] + 1j * blocks[i + 1]
        blocks[i + 1] = blocks[i].conj()
    for blk in blocks:
        blk.flags.writeable = False
    return tuple(blocks)


class ChainSet:
    """Jordan-chain columns held as one chain matrix.

    H is the (n+m) x n chain matrix in conformable order: each eigenvalue's
    columns hold its mini-blocks [h(1) ... h(p)] in turn.  chains[i][k] is
    the (n+m) x p_{i,k} block of mini-block k of eigenvalue i, copied out of
    H on access (C-contiguous, in H's dtype).  `ChainSet(spec, chains)`
    assembles H from such blocks; `Placer.build_chains` gathers H from the
    placement map.
    """

    __slots__ = ("spec", "H")

    def __init__(self, spec, chains):
        self.spec = spec
        self.H = np.hstack([blk for group in chains for blk in group])

    @classmethod
    def _of_matrix(cls, spec, H):
        chain_set = cls.__new__(cls)
        chain_set.spec = spec
        chain_set.H = H
        return chain_set

    @property
    def chains(self):
        groups = []
        for (a, _), orders in zip(
            conformable_column_blocks(self.spec), self.spec.block_orders
        ):
            blocks = []
            for p in orders:
                blocks.append(np.ascontiguousarray(self.H[:, a : a + p]))
                a += p
            groups.append(tuple(blocks))
        return tuple(groups)

    @property
    def X(self):
        return self.H[: self.spec.n]


@dataclass(frozen=True, eq=False)
class PlacementResult:
    """Feedback and eigenvector data for one parameter choice.

    Results compare and hash by identity: their fields are arrays.
    `residual` is ||(A+BF)X - X Lambda||_F, taken in real form by
    `Placer.place`.  Two values are computed on first read and then kept,
    so a placement that never reads them does not pay for them: X, the
    top of the chain matrix `Placer.build_chains` returns (complex with
    conjugate pairs), gathered exactly from V by the placement map; and
    `cond_V`, the spectral condition number sigma_max / sigma_min of V from
    its singular values, by one SVD.
    """

    V: np.ndarray
    W: np.ndarray
    F: np.ndarray
    residual: float
    _map: "_PlacementMap" = field(repr=False)

    @functools.cached_property
    def X(self):
        return self._map.chains(self.V)

    @functools.cached_property
    def cond_V(self):
        s = np.linalg.svd(self.V, compute_uv=False)
        return float(s[0] / s[-1])


class Placer:
    """Placement engine with pencil data cached per eigenvalue.

    The cache is what makes repeated evaluation (optimization, finite
    differences) cheap: pencils depend only on (A, B, spec), and the pencil
    of the second member of a conjugate pair is the conjugate of the first.
    They are built here, from one stacked SVD for the pairs' first members
    and one for the real eigenvalues, each pencil with the bits of its own
    `build_pencil` call.
    The rest is built on first use, as cached properties held in the
    instance's `__dict__`: the records of the representative eigenvalues
    (`_reps`), the placement map (`_map`, the one run of the chain
    recursion per record) that `place` and `build_chains` apply, the real
    Jordan form `place` takes its residual against, the dense operator L
    scattered from the map, and the recovery's column data.
    """

    def __init__(self, sys, spec, tol=DEFAULT_TOL):
        if spec.n != sys.n:
            raise StructureError(
                f"multiplicities sum to {spec.n}, expected {sys.n}"
            )
        if not spec.is_conformably_ordered():
            raise StructureError(
                "eigenstructure must be conformably ordered; "
                "apply normalize_ordering first"
            )
        self.sys = sys
        self.spec = spec
        self.tol = tol
        self.Lambda = jordan_matrix(spec)
        self._param_layout = (
            spec.sigma, tuple((sys.m, mult) for mult in spec.multiplicities)
        )
        # one stacked SVD for the pairs' first members, one for the reals;
        # a pair's second member takes the conjugate of its first's pencil
        eigs, pairs = spec.eigenvalues, 2 * spec.sigma
        self.pencils = []
        for first in _build_pencils(sys, eigs[:pairs:2], tol) if pairs else ():
            self.pencils += [first, first.conjugate()]
        if pairs < len(eigs):
            self.pencils += _build_pencils(sys, eigs[pairs:], tol)

    def _check_param(self, K):
        if (K.sigma, K._shapes) != self._param_layout:
            raise StructureError(
                f"parameter matrix (sigma, block shapes) {(K.sigma, K._shapes)} "
                f"!= {self._param_layout} of the structure"
            )

    @functools.cached_property
    def _reps(self):
        """One `_Rep` per representative eigenvalue, built on first use; the
        one walk of the conformable layout.

        The representatives are each pair's first member, then the reals,
        in conformable order; every other step reads their records.
        """
        spec = self.spec
        return tuple(
            _Rep(i, col, i < 2 * spec.sigma)
            for i, (col, _) in enumerate(conformable_column_blocks(spec))
            if not (i % 2 == 1 and i < 2 * spec.sigma)
        )

    @functools.cached_property
    def _map(self):
        """The placement map as its stored blocks, built on first use.

        The chain recursion and realification are linear in the m*n free
        coordinates x = K.to_vector(), and column c of the real [V; W]
        reads only its own eigenvalue's coordinates (see `_PlacementMap`).
        Each representative eigenvalue (`_reps`) runs `_chain_columns`
        once, on the unit blocks of its own coordinates (batch
        b = m * mult), and its chains H(E) are stored as computed: as the
        blocks of a real eigenvalue's columns, and, since a conjugate
        pair's imaginary coordinates have chains i H(E), as (Re H, -Im H)
        in a pair's first columns (Re h) and (Im H, Re H) in its second
        ones (Im h), over its (real, imaginary) coordinates.  A pair's
        second columns follow its first, and its imaginary coordinates its
        real ones, so each record writes one slice of columns.
        """
        n, m, spec = self.sys.n, self.sys.m, self.spec
        width = m * max((1 + rep.pair) * spec.multiplicities[rep.i]
                        for rep in self._reps)
        T = np.zeros((n, width, n + m))
        start = np.empty(n, int)
        gather = (
            (np.arange(n), np.arange(n), np.zeros(n, complex)) if spec.sigma else None
        )
        for rep in self._reps:
            pencil, mult = self.pencils[rep.i], spec.multiplicities[rep.i]
            E = np.eye(m * mult, dtype=pencil.N.dtype).reshape(m, mult, -1)
            H = np.array(_chain_columns(pencil, spec.block_orders[rep.i], E))
            # the columns rep.col:mid are the eigenvalue's (a pair's first
            # member's), mid:end a pair's second member's
            mid = end = rep.col + mult
            if rep.pair:
                end += mult
                re, im, isign = gather
                re[mid:end], im[rep.col : mid] = re[rep.col : mid], im[mid:end]
                isign[rep.col : mid], isign[mid:end] = 1j, -1j
                # over the (real, imaginary) coordinates, the first
                # columns' blocks are Re [H, i H], the second's Im [H, i H]
                H = np.concatenate([H, 1j * H], axis=2)
                H = np.concatenate([H.real, H.imag])
            # each column gets its (coordinates, n+m) block
            T[rep.col : end, : H.shape[2]] = H.transpose(0, 2, 1)
            start[rep.col : end] = m * rep.col
        coords = (start[:, None] + np.arange(width)) % (m * n)
        return _PlacementMap(T, coords, gather)

    @functools.cached_property
    def _real_jordan(self):
        """(Lambda_R, P): the real Jordan form in V's column layout, and the
        number P of pair columns, which come first; built on first use.

        A pair lambda = a + ib holds Re h on its first columns and Im h on
        its second, and (A+BF)(V_1 + i V_2) = (V_1 + i V_2)(lambda I + S)
        splits into real and imaginary parts as (A+BF) [V_1, V_2] =
        [V_1, V_2] [[aI+S, bI], [-bI, aI+S]], S the chain superdiagonal.
        So Lambda_R is Lambda's real part (a, and S's ones, on both
        members' diagonal blocks) with b and -b copied in, and a structure
        without pairs has Lambda_R = Re Lambda, P = 0.
        """
        LR = self.Lambda.real.copy()
        # b on a pair's first columns, -b on its second ones
        b = self.Lambda.diagonal().imag
        P = np.count_nonzero(b)
        if P:
            # a pair column c's complex column reads c and its partner
            # (`_PlacementMap`), which is re[c] + im[c] - c
            re, im, _ = self._map.gather
            cols = np.arange(P)
            LR[cols, re[:P] + im[:P] - cols] = b[:P]
        return LR, P

    def build_chains(self, K):
        """The complex chain matrix H of K, in conformable order.

        [V; W] comes from the stored map (`_map`) in one gather and one
        stacked product, and H is gathered from it exactly: a conjugate
        pair's first columns are V_1 + i V_2, its second columns the
        conjugates, so conjugate symmetry is exact.  Real eigenvalues'
        columns are [V; W]'s own, and H is real when the structure has no
        pairs.
        """
        self._check_param(K)
        pmap = self._map
        return ChainSet._of_matrix(self.spec, pmap.chains(pmap.vw(K._x)))

    def operator(self):
        """The placement map as one dense real matrix L, built on first use.

        np.vstack([V, W]).ravel() = L @ x with L of shape ((n+m)*n, m*n),
        for x = K.to_vector().  L is one scatter of the blocks the map
        stores (`_map`), so its entries are the chain recursion's own.  The
        optimizer's evaluator multiplies by L: at the sizes it runs, one
        dense product beats a gather plus a stacked product.
        """
        return self._operator

    @functools.cached_property
    def _operator(self):
        n, m = self.sys.n, self.sys.m
        pmap = self._map
        L = np.zeros((n + m, n, m * n))
        L[:, np.arange(n)[:, None], pmap.coords] = pmap.T.transpose(2, 0, 1)
        return L.reshape((n + m) * n, m * n)

    def place(self, K):
        """Place one parameter matrix: F = W V^{-1}.

        [V; W] comes from the stored map (`_map`) in one gather and one
        stacked product, and every product `place` takes is real.  V's
        singularity is decided as the optimizer's evaluator decides it,
        inverse first (`linalg.nonsingular_inverse`), and F is formed from
        that inverse with one step of iterative refinement,
        F = F0 + (W - F0 V) V^{-1} for F0 = W V^{-1} (Higham, Accuracy and
        Stability of Numerical Algorithms, sec. 12), which brings F's error down to that of
        Gaussian elimination on F V = W.  A rejected V raises
        SingularMatrixError with the condition number its singular values
        read, or cond=inf when they pass and the inverse is not finite (an
        exact zero pivot, or an overflow).

        The residual ||(A+BF)X - X Lambda||_F is taken as
        ||((A+BF)V - V Lambda_R) w||_F, against the real Jordan form
        Lambda_R (`_real_jordan`), with w = sqrt(2) on the pair columns and
        1 on the others.  X = V G for the map's exact gather G (`_map`), and
        Lambda_R G = G Lambda, so the residual matrix is R G for the real
        R = (A+BF)V - V Lambda_R; G sends a pair's columns (R_1, R_2) to
        (R_1 + i R_2, R_1 - i R_2), of squared norm 2 (|R_1|^2 + |R_2|^2).
        The two forms agree in exact arithmetic and are the same
        computation without pairs, where G = I.  X itself is gathered from
        V on first read (`PlacementResult.X`).
        """
        self._check_param(K)
        pmap = self._map
        n = self.sys.n
        VW = pmap.vw(K._x)
        V, W = VW[:n], VW[n:]
        Vi = nonsingular_inverse(V, self.tol)
        F = W @ Vi
        F += (W - F @ V) @ Vi
        LR, P = self._real_jordan
        R = (self.sys.A + self.sys.B @ F) @ V - V @ LR
        R[:, :P] *= _SQRT2
        # the norm of R as a complex array sums its squares in the order
        # the complex definition does, so that without pairs the residual
        # keeps its bits
        return PlacementResult(V, W, F, fro_norm(R.astype(complex)), pmap)

    def residual_scale(self, F):
        # kept as a method for callers outside the package (the perfbench
        # workloads check residuals through it); the formula lives in the
        # module function
        return residual_scale(self.sys, F)

    @functools.cached_property
    def _recovery(self):
        """The column data of `recover_parameters`, built on first use.

        Only the representative eigenvalues carry parameters.  Their chain
        columns are read from their records (`_reps`), laid end to end in
        conformable order (pairs first), so that one pass over the columns
        serves every eigenvalue; the eigenvalues and pencil data are stacked
        to match.  Each representative column c, and the partner column of
        a pair's first member, takes its coordinates from the layout of x
        (`ParameterMatrix`) by one formula: in the eigenvalue with columns
        a:e, entry (i, c - a) of the block is x[m*a + i*(e - a) + (c - a)].
        """
        sys, spec, m = self.sys, self.spec, self.sys.m
        mults = spec.multiplicities
        cols = np.concatenate([rep.col + np.arange(mults[rep.i]) for rep in self._reps])
        # per column of H: the first column a and the width e - a of its
        # eigenvalue's columns a:e
        a = np.repeat([col for col, _ in conformable_column_blocks(spec)], mults)
        width = np.repeat(mults, mults)
        # the pair first members' columns come first; a second member's
        # columns follow its first's
        p = sum(mults[: 2 * spec.sigma : 2])
        pair_cols = cols[:p] + width[cols[:p]]
        # row i of column c reads x[m a + i (e - a) + (c - a)]
        c = np.concatenate([cols, pair_cols])
        coords = m * a[c] + np.arange(m)[:, None] * width[c] + (c - a[c])
        lam = np.repeat(spec.eigenvalues, mults)[cols]
        NH = np.repeat(
            np.array([pencil.N.conj().T for pencil in self.pencils]), mults, axis=0
        )[cols]
        return _Recovery(
            cols=cols,
            pair_cols=pair_cols,
            lam=lam,
            # the tolerance of a column h is scale * max(1, |h|)
            scale=self.tol.residual_tol * (
                1.0 + fro_norm(sys.A) + np.abs(lam) * np.sqrt(sys.n)
                + fro_norm(sys.B)
            ),
            # complex when NH is, so the products need no cast per call
            SH=np.hstack([sys.A, sys.B]).astype(NH.dtype),
            Lambda=self.Lambda[np.ix_(cols, cols)],
            NH=NH,
            # coords is a permutation of x's positions, so x is one gather
            order=np.argsort(coords.ravel()),
        )

    def recover_parameters(self, chain_set):
        """Invert the chain construction: k(l) = N^H h(l) for every column.

        A chain column is h(l) = Mdag pi_upper(h(l-1)) + N k(l).  The range
        of Mdag is the orthogonal complement of ker S, so N^H Mdag = 0, and
        one projection by the orthonormal kernel basis N recovers each
        column of K; the Mdag term would contribute only roundoff.

        Every representative column h is checked by one rule: each of its
        deviations d must meet |d|_2 <= scale * max(1, |h|_2), scale the
        column's tolerance (`_Recovery`).  The deviations are the
        conjugate mismatch of a pair's second-member column, the chain
        relation residual (A - lambda I) x(l) + B y(l) - x(l-1), taken for
        all columns at once as A X + B Y - X Lambda, and Im N^H h on a real
        eigenvalue's column.  A violation, or a non-finite entry anywhere
        in H, raises ChainConsistencyError; a chain set of another
        structure, or an H that is not (n+m) x n, raises StructureError.
        """
        rec = self._recovery
        # the first p representative columns are the pairs' first members'
        n, m, p = self.sys.n, self.sys.m, rec.pair_cols.size
        H = chain_set.H
        # identity first: the chain sets of `build_chains` share the
        # placer's structure, and comparing two equal structures of 32
        # eigenvalues costs ~0.8 us against ~0.03 us
        if (chain_set.spec is not self.spec and chain_set.spec != self.spec
                or H.shape != (n + m, n)):
            raise StructureError(
                "chain set does not match the placer's structure (H has "
                f"shape {H.shape}, expected {(n + m, n)})")
        if not np.isfinite(H).all():
            raise ChainConsistencyError(
                "not a valid chain set: the chain set has non-finite entries")
        Hr = H[:, rec.cols]
        tol = rec.scale * np.maximum(1.0, _column_norms(Hr))
        # the chain sets the package builds have exact conjugates and real
        # parameters, which skips two checks (count_nonzero is quicker than
        # any here)
        dev = Hr[:, :p].conj() - H[:, rec.pair_cols]
        if np.count_nonzero(dev):
            _check_columns(_column_norms(dev), tol[:p], rec.lam[:p],
                           "conjugate pair columns differ by {dev:.3e} "
                           "at lambda={lam}")
        _check_columns(_column_norms(rec.SH @ Hr - Hr[:n] @ rec.Lambda),
                       tol, rec.lam, "relation residual {dev:.3e} at lambda={lam}")
        # k_j = N_j^H h_j, one batched product over the columns
        Kc = (rec.NH @ Hr.T[:, :, None])[:, :, 0].T
        dev = Kc[:, p:].imag
        if np.count_nonzero(dev):
            _check_columns(_column_norms(dev), tol[p:], rec.lam[p:],
                           "complex chain for real eigenvalue {lam.real} "
                           "(residue {dev:.3e})")
        x = np.concatenate([Kc.real, Kc[:, :p].imag], axis=1).ravel()[rec.order]
        return ParameterMatrix._of_vector(self.spec, m, x)


@dataclass(frozen=True)
class _Recovery:
    """Index and pencil data of `Placer.recover_parameters`.

    The representative columns are those of `Placer._reps` in conformable
    order: the pair first members' columns, then the real eigenvalues'
    columns, each eigenvalue's columns adjacent and in chain order.
    """

    cols: np.ndarray  # representative chain columns of H
    pair_cols: np.ndarray  # the second-member column mirroring each pair column
    lam: np.ndarray  # eigenvalue per representative column
    scale: np.ndarray  # chain tolerance per column, before max(1, |h|)
    SH: np.ndarray  # [A, B]
    Lambda: np.ndarray  # the Jordan matrix on the representative columns
    NH: np.ndarray  # N^H of each representative column's pencil
    # x = [Re K, Im K on the pair columns], flattened row by row, [order]
    order: np.ndarray


def _column_norms(a):
    """The 2-norm of each column of a: np.linalg.norm(a, axis=0) bit for
    bit, without its argument handling, which is a visible share of a
    `recover_parameters` call at n <= 32."""
    return np.sqrt((a.conj() * a).real.sum(axis=0))


def _check_columns(dev, tol, lam, message):
    """Raise ChainConsistencyError unless dev[j] <= tol[j] for every
    representative column j (eigenvalue lam[j]); NaN fails the rule."""
    j = np.argmin(dev <= tol)  # the first column that fails, if any does
    if not dev[j] <= tol[j]:
        raise ChainConsistencyError(
            "not a valid chain set: " + message.format(lam=lam[j], dev=dev[j]))


class _Rep(NamedTuple):
    """The record of one representative eigenvalue (see `Placer._reps`).

    Its chain columns of H are col:e, and by the layout of x (see
    `ParameterMatrix`) its parameter block's coordinates are
    x[m * col : m * e], m * (e - col) entries row-major; a pair's
    imaginary parts follow them, at its second member's columns.
    """

    i: int  # index in the structure's eigenvalues
    col: int  # first chain column
    pair: bool  # the first member of a conjugate pair


@dataclass(frozen=True)
class _PlacementMap:
    """The placement map x -> [V; W] as one block per chain column.

    Column c of [V; W] is T[c]^T x[coords[c]].  A column's own coordinates
    are one contiguous range of x; past them, up to the common width,
    coords runs on through the next coordinates, wrapping round the end
    of x, where T is zero.  So every row of coords holds distinct
    positions, and `Placer.operator` scatters T into L with no collision.
    With conjugate pairs, gather = (re, im, isign) gives the complex chain
    matrix H = VW[:, re] + isign * VW[:, im]: (c, partner, i) on a pair's
    first columns, (partner, c, -i) on its second ones and (c, c, 0) on
    real columns; every entry is exact.
    """

    T: np.ndarray  # (n, width, n+m)
    coords: np.ndarray  # (n, width)
    gather: tuple | None  # (re, im, isign), each (n,); None without pairs

    def vw(self, x):
        """[V; W] at coordinate vector x: one gather, one stacked product."""
        return (x[self.coords][:, None] @ self.T)[:, 0].T

    def chains(self, rows):
        """The chain matrix rows matching the given rows of [V; W]: complex
        with pairs, else a copy."""
        if self.gather is None:
            return rows.copy()
        re, im, isign = self.gather
        return rows[:, re] + isign * rows[:, im]


def _chain_columns(pencil, orders, K):
    """The chain recursion of one eigenvalue over a batch of parameters.

    K has shape (m, mult, b): b parameter blocks whose columns run over
    the mini-blocks of the eigenvalue's block orders.  Returns the mult
    chain columns in that order, each an (n+m, b) array, from
    h(1) = N k(1) and h(l) = Mdag pi_upper(h(l-1)) + N k(l) within each
    mini-block.
    """
    n = pencil.Mdag.shape[1]
    cols = []
    off = 0
    for p in orders:
        for ell in range(p):
            h = pencil.N @ K[:, off + ell]
            if ell > 0:
                h = h + pencil.Mdag @ cols[-1][:n]
            cols.append(h)
        off += p
    return cols


def build_chains(sys, spec, K, tol=DEFAULT_TOL):
    """One-shot chain construction (see Placer.build_chains)."""
    return Placer(sys, spec, tol).build_chains(K)


def place(sys, spec, K, tol=DEFAULT_TOL):
    """Compute the feedback for one parameter matrix.

    Returns a PlacementResult with real F, V and W, the closed-loop
    residual ||(A+BF)X - X Lambda||_F (taken in real form), and the complex
    chain-top matrix X and cond(V), both computed on first read.  Raises
    SingularMatrixError when cond(V) exceeds the configured limit or V is
    exactly singular, which callers may treat as a resample signal (see
    `Placer.place`).
    """
    return Placer(sys, spec, tol).place(K)


def recover_parameters(sys, spec, chain_set, tol=DEFAULT_TOL):
    """One-shot parameter recovery (see Placer.recover_parameters)."""
    return Placer(sys, spec, tol).recover_parameters(chain_set)


def residual_scale(sys, F):
    """1 + ||A||_F + ||B||_F ||F||_F, the scale residual_tol is relative to."""
    return 1.0 + fro_norm(sys.A) + fro_norm(sys.B) * fro_norm(F)


def residual_ok(sys, res, tol):
    """Whether a placement is accepted: residual <= residual_tol * scale."""
    return res.residual <= tol.residual_tol * residual_scale(sys, res.F)


def residual(sys, F, X, spec):
    """Closed-loop residual ||(A + B F) X - X Lambda||_F."""
    return fro_norm((sys.A + sys.B @ F) @ X - X @ jordan_matrix(spec))


def chains_from_feedback(sys, spec, F):
    """Chain set of an externally supplied feedback with simple spectrum.

    Each chain is one column [x; F x] of the chain matrix H, x taken from
    the kernel of A + BF - lambda I at the requested eigenvalue lambda: the
    right singular vector of its smallest singular value, which is the
    unit vector minimising the chain relation residual
    ||(A + BF - lambda I) x||_2 that `Placer.recover_parameters` checks.
    Only each pair's first member and the real eigenvalues take an SVD; a
    real lambda gives a real shift, so its x is real, and a pair's second
    column is the conjugate of its first.  Only length-1 chains are
    constructed, so every requested multiplicity must be 1 (extracting
    Jordan chains of longer blocks from a computed matrix is ill-posed).
    H is complex when the structure has conjugate pairs, and real
    otherwise.  An F that is not a finite m x n matrix raises
    StructureError before any SVD is taken.
    """
    if any(mult != 1 for mult in spec.multiplicities):
        raise StructureError(
            "chains_from_feedback requires a simple spectrum "
            "(all multiplicities equal to 1)"
        )
    F = np.atleast_2d(np.asarray(F, dtype=float))
    if F.shape != (sys.m, sys.n):
        raise StructureError(
            f"feedback has shape {F.shape}, expected ({sys.m}, {sys.n})"
        )
    if not np.isfinite(F).all():
        raise StructureError("feedback has non-finite entries")
    closed = sys.A + sys.B @ F
    H = np.empty((sys.n + sys.m, sys.n), complex if spec.sigma else float)
    for i, lam in enumerate(spec.eigenvalues):
        if i % 2 == 1 and i < 2 * spec.sigma:
            H[:, i] = H[:, i - 1].conj()
            continue
        shift = lam.real if lam.imag == 0.0 else lam
        x = np.linalg.svd(closed - shift * np.eye(sys.n))[2][-1].conj()
        H[: sys.n, i], H[sys.n :, i] = x, F @ x
    return ChainSet._of_matrix(spec, H)
