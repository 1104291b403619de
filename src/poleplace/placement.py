"""Parametric pole placement via pencil-kernel Jordan chains.

Given a reachable pair (A, B) and an admissible target eigenstructure, every
feedback F assigning that structure is reached from an m x n-parameter block
matrix K: chains are built from the kernels and pseudoinverses of the pencils
[A - lambda_i I, B], assembled into a complex chain matrix, realified, and
closed with F = W V^{-1}.  One recursion, `_chain_columns`, builds the
chains of one eigenvalue for a batch of parameter blocks: `build_chains`
runs it on one K, `Placer.operator` on the unit blocks of every coordinate
of the eigenvalue at once.  The map is linear in the free coordinates of K,
which `Placer.operator` exploits, and exactly invertible, which
`recover_parameters` exploits: a chain column is
h(l) = Mdag pi_upper(h(l-1)) + N k(l), and since N^H Mdag = 0 (the range
of Mdag is orthogonal to ker S), every parameter column is one projection
k(l) = N^H h(l), taken for all columns at once.  `Placer.place` reads the
real (V, W) off the conjugate-symmetric chain matrix by one column gather
instead of through `realify`.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ChainConsistencyError, NotReachableError, StructureError
from .linalg import (
    DEFAULT_TOL,
    checked_svals,
    fro_norm,
    kernel_and_pseudo_inverse,
)
from .structure import conformable_column_blocks, jordan_matrix

# Unused here since build_pencil takes both from one SVD, but kept bound:
# perfbench/tracing.py wraps these two names on this module.
from .linalg import kernel_basis, pseudo_inverse  # noqa: F401


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
    lam = complex(lam)
    shift = lam.real if lam.imag == 0.0 else lam
    S = np.hstack([sys.A - shift * np.eye(sys.n), sys.B])
    N, Mdag = kernel_and_pseudo_inverse(S, tol)
    if N.shape[1] != sys.m:
        raise NotReachableError(
            f"pair not reachable at lambda={lam}: kernel dimension "
            f"{N.shape[1]} != {sys.m}"
        )
    return PencilData(lam, N, Mdag)


class ParameterMatrix:
    """Block parameter K = blkdiag(K_1, ..., K_nu), one m x m_i block per
    eigenvalue.

    Blocks of a conjugate pair are exact conjugates (the second member is
    stored as computed from the first), blocks of real eigenvalues are real.
    The free real content is exactly m*n numbers, exposed through
    `to_vector` / `from_vector` in a fixed layout: for each pair
    representative the real then imaginary parts (row-major), for each real
    eigenvalue the entries themselves.
    """

    def __init__(self, blocks, sigma):
        self.blocks = tuple(np.atleast_2d(np.asarray(b)) for b in blocks)
        self.sigma = int(sigma)
        m = self.blocks[0].shape[0]
        if any(b.shape[0] != m for b in self.blocks):
            raise StructureError("all parameter blocks must have m rows")
        for i in range(0, 2 * self.sigma, 2):
            if not np.array_equal(self.blocks[i + 1], self.blocks[i].conj()):
                raise StructureError(
                    f"parameter blocks {i} and {i + 1} are not conjugates"
                )
        for i in range(2 * self.sigma, len(self.blocks)):
            if np.iscomplexobj(self.blocks[i]) and self.blocks[i].imag.any():
                raise StructureError(f"parameter block {i} must be real")

    @property
    def m(self):
        return self.blocks[0].shape[0]

    def to_vector(self):
        parts = []
        for i in range(0, 2 * self.sigma, 2):
            parts.append(self.blocks[i].real.ravel())
            parts.append(self.blocks[i].imag.ravel())
        for i in range(2 * self.sigma, len(self.blocks)):
            parts.append(np.asarray(self.blocks[i], dtype=float).ravel())
        return np.concatenate(parts)

    @classmethod
    def from_vector(cls, spec, m, vec):
        vec = np.asarray(vec, dtype=float)
        mults = spec.multiplicities
        expected = m * spec.n
        if vec.size != expected:
            raise StructureError(
                f"parameter vector has {vec.size} entries, expected {expected}"
            )
        blocks = [None] * spec.nu
        pos = 0
        for i in range(0, 2 * spec.sigma, 2):
            size = m * mults[i]
            re = vec[pos : pos + size].reshape(m, mults[i])
            im = vec[pos + size : pos + 2 * size].reshape(m, mults[i])
            blocks[i] = re + 1j * im
            blocks[i + 1] = blocks[i].conj()
            pos += 2 * size
        for i in range(2 * spec.sigma, spec.nu):
            size = m * mults[i]
            blocks[i] = vec[pos : pos + size].reshape(m, mults[i]).copy()
            pos += size
        return cls(blocks, spec.sigma)

    @classmethod
    def random(cls, spec, m, rng):
        """Standard-normal entries on the free coordinates."""
        return cls.from_vector(spec, m, rng.standard_normal(m * spec.n))


@dataclass(frozen=True)
class ChainSet:
    """Jordan-chain columns, grouped per eigenvalue and mini-block.

    chains[i][k] is the (n+m) x p_{i,k} matrix [h(1) ... h(p)].  The
    assembled chain matrix H is (n+m) x n in conformable order.
    """

    spec: object
    chains: tuple

    @property
    def H(self):
        return np.hstack([blk for group in self.chains for blk in group])

    @property
    def X(self):
        H = self.H
        n = self.spec.n
        return H[:n, :]


@dataclass(frozen=True)
class PlacementResult:
    """Feedback and eigenvector data for one parameter choice."""

    V: np.ndarray
    W: np.ndarray
    X: np.ndarray
    F: np.ndarray
    residual: float
    cond_V: float


class Placer:
    """Placement engine with pencil data cached per eigenvalue.

    The cache is what makes repeated evaluation (optimization, finite
    differences) cheap: pencils depend only on (A, B, spec), and the pencil
    of the second member of a conjugate pair is the conjugate of the first.
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
        self._operator = None
        self._recovery_data = None
        # column j of the real [V; W] is column _vw_cols[j] of the chain
        # matrix viewed as floats (Re h_0, Im h_0, Re h_1, ...): a pair's
        # first block takes the real parts of its columns, the second block
        # the imaginary parts of the first block's columns
        col_blocks = conformable_column_blocks(spec)
        self._vw_cols = 2 * np.arange(spec.n)
        for i in range(0, 2 * spec.sigma, 2):
            a, b = col_blocks[i]
            c, d = col_blocks[i + 1]
            self._vw_cols[c:d] = 2 * np.arange(a, b) + 1
        self.pencils = []
        for i, lam in enumerate(spec.eigenvalues):
            if i % 2 == 1 and i < 2 * spec.sigma:
                self.pencils.append(self.pencils[i - 1].conjugate())
            else:
                self.pencils.append(build_pencil(sys, lam, tol))

    def _check_param(self, K):
        if len(K.blocks) != self.spec.nu or K.sigma != self.spec.sigma:
            raise StructureError("parameter matrix does not match the structure")
        for blk, mult in zip(K.blocks, self.spec.multiplicities):
            if blk.shape != (self.sys.m, mult):
                raise StructureError(
                    f"parameter block shape {blk.shape} != ({self.sys.m}, {mult})"
                )

    def build_chains(self, K):
        """Run the chain recursion for every mini-block.

        The b = 1 case of `_chain_columns`: h(1) = N k(1) and
        h(l) = Mdag pi_upper(h(l-1)) + N k(l); chains of the second member of
        a conjugate pair are conjugated, not recomputed, so conjugate
        symmetry is exact.
        """
        self._check_param(K)
        groups = [None] * self.spec.nu
        for i in range(self.spec.nu):
            if i % 2 == 1 and i < 2 * self.spec.sigma:
                groups[i] = tuple(blk.conj() for blk in groups[i - 1])
                continue
            orders = self.spec.block_orders[i]
            cols = _chain_columns(self.pencils[i], orders, K.blocks[i][:, :, None])
            blocks = []
            off = 0
            for p in orders:
                blocks.append(np.hstack(cols[off : off + p]))
                off += p
            groups[i] = tuple(blocks)
        return ChainSet(self.spec, tuple(groups))

    def operator(self):
        """The placement map as one real matrix L, built on first use.

        The chain recursion and realification are linear in the m*n free
        coordinates x = K.to_vector(), so np.vstack([V, W]).ravel() = L @ x
        with L of shape ((n+m)*n, m*n).  L is block structured: the columns
        of eigenvalue i's coordinates are nonzero only in its own chain
        columns.  Each representative eigenvalue's block comes from one run
        of `_chain_columns` on the unit tensor (batch b = m * mult_i), whose
        chains H(E) fill the columns of the real coordinates; a conjugate
        pair's imaginary coordinates have chains i H(E), so their columns
        hold (-Im H, Re H) in the (real, imaginary) column blocks.
        """
        if self._operator is None:
            n, m = self.sys.n, self.sys.m
            L = np.zeros((n + m, n, m * n))
            col_blocks = conformable_column_blocks(self.spec)
            pos = 0
            for i in range(self.spec.nu):
                if i % 2 == 1 and i < 2 * self.spec.sigma:
                    continue
                size = m * self.spec.multiplicities[i]
                E = np.eye(size).reshape(m, -1, size)
                H = np.stack(
                    _chain_columns(self.pencils[i], self.spec.block_orders[i], E),
                    axis=1,
                )
                a, b = col_blocks[i]
                if i < 2 * self.spec.sigma:
                    c, d = col_blocks[i + 1]
                    L[:, a:b, pos : pos + size] = H.real
                    L[:, c:d, pos : pos + size] = H.imag
                    L[:, a:b, pos + size : pos + 2 * size] = -H.imag
                    L[:, c:d, pos + size : pos + 2 * size] = H.real
                    pos += 2 * size
                else:
                    L[:, a:b, pos : pos + size] = H
                    pos += size
            self._operator = L.reshape((n + m) * n, m * n)
        return self._operator

    def place(self, K):
        """Place one parameter matrix: F = W V^{-1} from its chains.

        build_chains makes the chain matrix H conjugate-symmetric, so the
        real (V, W) that `realify` would return are gathered from H directly
        (see `_vw_cols`), and X is the top of the same H.
        """
        H = self.build_chains(K).H
        VW = H.view(float)[:, self._vw_cols] if np.iscomplexobj(H) else H.copy()
        n = self.sys.n
        V, W, X = VW[:n], VW[n:], H[:n]
        s = checked_svals(V, self.tol)
        F = np.linalg.solve(V.T, W.T).T
        res = _residual(self.sys, F, X, self.Lambda)
        return PlacementResult(V, W, X, F, res, float(s[0] / s[-1]))

    def residual_scale(self, F):
        # kept as a method for callers outside the package (the perfbench
        # workloads check residuals through it); the formula lives in the
        # module function
        return residual_scale(self.sys, F)

    def _recovery(self):
        """The column data of `recover_parameters`, built on first use.

        Only the representative eigenvalues (each pair's first member, then
        the reals) carry parameters; `cols` are their chain columns in H.
        """
        if self._recovery_data is None:
            sys, spec, sigma = self.sys, self.spec, self.spec.sigma
            reps = [*range(0, 2 * sigma, 2), *range(2 * sigma, spec.nu)]
            col_blocks = conformable_column_blocks(spec)
            mults = np.array([spec.multiplicities[i] for i in reps])
            cols = np.concatenate([np.arange(*col_blocks[i]) for i in reps])
            lam = np.repeat([spec.eigenvalues[i] for i in reps], mults)
            n_pair = int(mults[:sigma].sum())
            ends = np.cumsum(mults)
            pair_orders = [p for i in reps[:sigma] for p in spec.block_orders[i]]
            NH = np.stack([self.pencils[i].N.conj().T for i in reps])
            self._recovery_data = _Recovery(
                cols=cols,
                # a pair's second block sits mult columns after its first
                pair_cols=cols[:n_pair] + np.repeat(mults[:sigma], mults[:sigma]),
                lam=lam,
                # the tolerance of a column h is scale * max(1, |h|)
                scale=self.tol.residual_tol * (
                    1.0 + fro_norm(sys.A) + np.abs(lam) * np.sqrt(sys.n)
                    + fro_norm(sys.B)
                ),
                # complex when NH is, so the products need no cast per call
                SH=np.hstack([sys.A, sys.B]).astype(NH.dtype),
                Lambda=self.Lambda[np.ix_(cols, cols)],
                NH=np.repeat(NH, mults, axis=0),
                n_pair=n_pair,
                starts=ends - mults,
                spans=tuple(zip((ends - mults).tolist(), ends.tolist())),
                pair_starts=np.cumsum([0, *pair_orders])[:-1],
            )
        return self._recovery_data

    def recover_parameters(self, chain_set):
        """Invert the chain construction: k(l) = N^H h(l) for every column.

        A chain column is h(l) = Mdag pi_upper(h(l-1)) + N k(l).  The range
        of Mdag is the orthogonal complement of ker S, so N^H Mdag = 0, and
        one projection by the orthonormal kernel basis N recovers each
        column of K; the Mdag term would contribute only roundoff.  First
        the conjugate symmetry of pair blocks and the chain relations
        (A - lambda I) x(l) + B y(l) = x(l-1), for all representative
        columns at once as A X + B Y - X Lambda, are verified; violations
        raise ChainConsistencyError.
        """
        rec = self._recovery()
        n, sigma = self.sys.n, self.spec.sigma
        H = chain_set.H
        Hr = H[:, rec.cols]
        first = Hr[:, : rec.n_pair]
        rec.check_blocks(first.conj() - H[:, rec.pair_cols], first, rec.pair_starts,
                         "conjugate pair blocks differ by {dev:.3e}")
        err = np.linalg.norm(rec.SH @ Hr - Hr[:n] @ rec.Lambda, axis=0)
        j = _first_beyond(err, rec.scale * np.maximum(1.0, np.linalg.norm(Hr, axis=0)))
        if j is not None:
            raise ChainConsistencyError(
                f"not a valid chain set: relation residual {err[j]:.3e} "
                f"at lambda={rec.lam[j]}"
            )
        # k_j = N_j^H h_j, one batched product over the columns
        Kc = (rec.NH @ Hr.T[:, :, None])[:, :, 0].T
        reals = Kc[:, rec.n_pair :]
        rec.check_blocks(reals.imag, reals, rec.starts[sigma:],
                         "complex chain for real eigenvalue {lam.real} "
                         "(residue {dev:.3e})")
        parts = [Kc[:, a:b] for a, b in rec.spans]
        blocks = [blk for Ki in parts[:sigma] for blk in (Ki, Ki.conj())]
        blocks += [Ki.real for Ki in parts[sigma:]]
        return ParameterMatrix(blocks, sigma)


@dataclass(frozen=True)
class _Recovery:
    """Index and pencil data of `Placer.recover_parameters`.

    Representative columns list the pair first members' n_pair columns,
    then the real eigenvalues' columns.
    """

    cols: np.ndarray  # representative chain columns of H
    pair_cols: np.ndarray  # the second-member columns mirroring cols[:n_pair]
    lam: np.ndarray  # eigenvalue per representative column
    scale: np.ndarray  # chain tolerance per column, before max(1, |h|)
    SH: np.ndarray  # [A, B]
    Lambda: np.ndarray  # the Jordan matrix on the representative columns
    NH: np.ndarray  # N^H of each representative column's pencil
    n_pair: int
    starts: np.ndarray  # first representative column of each eigenvalue
    spans: tuple  # (first, end) representative columns of each eigenvalue
    pair_starts: np.ndarray  # first column of each pair mini-block

    def check_blocks(self, dev, size, starts, message):
        """Raise ChainConsistencyError when, in a block of representative
        columns, the largest |dev| exceeds scale * max(1, largest |size|).

        The blocks begin at the columns `starts`; dev and size hold the
        columns from the first block on.
        """
        if not dev.any():  # exact, as build_chains makes chains
            return
        rel = starts - starts[0]
        dev = _block_max(dev, rel)
        j = _first_beyond(
            dev, self.scale[starts] * np.maximum(1.0, _block_max(size, rel))
        )
        if j is not None:
            raise ChainConsistencyError(
                "not a valid chain set: "
                + message.format(lam=self.lam[starts[j]], dev=dev[j])
            )


def _block_max(a, starts):
    """Largest modulus in each column block of a, the blocks starting at
    the given columns."""
    return np.maximum.reduceat(np.abs(a).max(axis=0), starts)


def _first_beyond(values, bound):
    """Index of the first value above its bound, or None."""
    bad = np.flatnonzero(values > bound)
    return bad[0] if bad.size else None


def _chain_columns(pencil, orders, Ki):
    """The chain recursion of one eigenvalue over a batch of parameters.

    Ki has shape (m, mult, b): b parameter blocks of the eigenvalue, whose
    columns run over its mini-blocks of the given orders.  Returns the mult
    chain columns in that order, each an (n+m, b) array over the batch, from
    h(1) = N k(1) and h(l) = Mdag pi_upper(h(l-1)) + N k(l) within each
    mini-block.
    """
    n = pencil.Mdag.shape[1]
    cols = []
    off = 0
    for p in orders:
        for ell in range(p):
            h = pencil.N @ Ki[:, off + ell]
            if ell > 0:
                h = h + pencil.Mdag @ cols[-1][:n]
            cols.append(h)
        off += p
    return cols


def realify(chain_set):
    """Split a conformably ordered chain matrix into its real (V, W).

    Pair column blocks (i, i+1) become the elementwise real and imaginary
    parts of block i; real blocks pass through.  V and W are the first n and
    last m rows.  A conjugate-symmetry violation beyond 1e-12 * ||H|| raises
    ChainConsistencyError.
    """
    spec = chain_set.spec
    H = chain_set.H
    n = spec.n
    out = np.empty_like(H)
    col_blocks = conformable_column_blocks(spec)
    for i in range(0, 2 * spec.sigma, 2):
        a, b = col_blocks[i]
        c, d = col_blocks[i + 1]
        out[:, a:b] = 0.5 * (H[:, a:b] + H[:, c:d])
        out[:, c:d] = (H[:, a:b] - H[:, c:d]) / 2j
    for i in range(2 * spec.sigma, spec.nu):
        a, b = col_blocks[i]
        out[:, a:b] = H[:, a:b]
    if np.iscomplexobj(out):
        residue = np.abs(out.imag).max() if out.size else 0.0
        if residue > 1e-12 * max(1.0, fro_norm(H)):
            raise ChainConsistencyError(
                f"conjugate-symmetry violation: imaginary residue {residue:.3e}"
            )
        out = out.real
    return out[:n, :].copy(), out[n:, :].copy()


def build_chains(sys, spec, K, tol=DEFAULT_TOL):
    """One-shot chain construction (see Placer.build_chains)."""
    return Placer(sys, spec, tol).build_chains(K)


def place(sys, spec, K, tol=DEFAULT_TOL):
    """Compute the feedback for one parameter matrix.

    Returns a PlacementResult with real F, the complex chain-top matrix X,
    the closed-loop residual ||(A+BF)X - X Lambda||_F and cond(V).  Raises
    SingularMatrixError when cond(V) exceeds the configured limit, which
    callers may treat as a resample signal.
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
    return _residual(sys, F, X, jordan_matrix(spec))


def _residual(sys, F, X, Lam):
    return fro_norm((sys.A + sys.B @ F) @ X - X @ Lam)


def chains_from_feedback(sys, spec, F, tol=DEFAULT_TOL):
    """Chain set of an externally supplied feedback with simple spectrum.

    Eigenvectors of A + BF are matched greedily to the requested
    eigenvalues; each chain is [x; Fx].  Only length-1 chains are
    constructed, so every requested multiplicity must be 1 (extracting
    Jordan chains of longer blocks from a computed matrix is ill-posed).
    """
    if any(mult != 1 for mult in spec.multiplicities):
        raise StructureError(
            "chains_from_feedback requires a simple spectrum "
            "(all multiplicities equal to 1)"
        )
    F = np.atleast_2d(np.asarray(F, dtype=float))
    Acl = sys.A + sys.B @ F
    w, vecs = np.linalg.eig(Acl)
    used = np.zeros(len(w), dtype=bool)
    groups = [None] * spec.nu
    for i, lam in enumerate(spec.eigenvalues):
        if i % 2 == 1 and i < 2 * spec.sigma:
            groups[i] = tuple(blk.conj() for blk in groups[i - 1])
            continue
        dist = np.where(used, np.inf, np.abs(w - lam))
        j = int(np.argmin(dist))
        used[j] = True
        if lam.imag != 0.0:
            # retire the computed conjugate partner as well
            dist_c = np.where(used, np.inf, np.abs(w - w[j].conjugate()))
            used[int(np.argmin(dist_c))] = True
        x = vecs[:, j]
        if lam.imag == 0.0:
            x = x.real / np.linalg.norm(x.real)
        groups[i] = (np.concatenate([x, F @ x])[:, None],)
    return ChainSet(spec, tuple(groups))
