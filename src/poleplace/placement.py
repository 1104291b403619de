"""Parametric pole placement via pencil-kernel Jordan chains.

Given a reachable pair (A, B) and an admissible target eigenstructure, every
feedback F assigning that structure is reached from an m x n-parameter block
matrix K: chains are built from the kernels and pseudoinverses of the pencils
[A - lambda_i I, B], assembled into a complex chain matrix, realified, and
closed with F = W V^{-1}.  The map K -> chains is exactly invertible, which
`recover_parameters` exploits, and linear in the free coordinates of K, which
`Placer.operator` exploits.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ChainConsistencyError, NotReachableError, StructureError
from .linalg import DEFAULT_TOL, checked_svals, fro_norm, kernel_basis, pseudo_inverse
from .structure import conformable_column_blocks, jordan_matrix


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
    N = kernel_basis(S, tol)
    if N.shape[1] != sys.m:
        raise NotReachableError(
            f"pair not reachable at lambda={lam}: kernel dimension "
            f"{N.shape[1]} != {sys.m}"
        )
    return PencilData(lam, N, pseudo_inverse(S, tol))


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

        h(1) = N k(1) and h(l) = Mdag pi_upper(h(l-1)) + N k(l); chains of
        the second member of a conjugate pair are conjugated, not recomputed,
        so conjugate symmetry is exact.
        """
        self._check_param(K)
        n = self.sys.n
        groups = [None] * self.spec.nu
        for i in range(self.spec.nu):
            if i % 2 == 1 and i < 2 * self.spec.sigma:
                groups[i] = tuple(blk.conj() for blk in groups[i - 1])
                continue
            pencil = self.pencils[i]
            Ki = K.blocks[i]
            blocks = []
            off = 0
            for p in self.spec.block_orders[i]:
                cols = []
                for ell in range(p):
                    h = pencil.N @ Ki[:, off + ell]
                    if ell > 0:
                        h = h + pencil.Mdag @ cols[-1][:n]
                    cols.append(h)
                blocks.append(np.column_stack(cols))
                off += p
            groups[i] = tuple(blocks)
        return ChainSet(self.spec, tuple(groups))

    def operator(self):
        """The placement map as one real matrix L, built on first use.

        The chain recursion and realification are linear in the m*n free
        coordinates x = K.to_vector(), so np.vstack([V, W]).ravel() = L @ x
        with L of shape ((n+m)*n, m*n); column j is the image of the j-th
        unit vector.
        """
        if self._operator is None:
            cols = []
            for e in np.eye(self.sys.m * self.sys.n):
                K = ParameterMatrix.from_vector(self.spec, self.sys.m, e)
                cols.append(np.vstack(realify(self.build_chains(K))).ravel())
            self._operator = np.column_stack(cols)
        return self._operator

    def place(self, K):
        chain_set = self.build_chains(K)
        V, W = realify(chain_set)
        s = checked_svals(V, self.tol)
        F = np.linalg.solve(V.T, W.T).T
        X = chain_set.X
        res = _residual(self.sys, F, X, self.Lambda)
        return PlacementResult(V, W, X, F, res, float(s[0] / s[-1]))

    def residual_scale(self, F):
        # kept as a method for callers outside the package (the perfbench
        # workloads check residuals through it); the formula lives in the
        # module function
        return residual_scale(self.sys, F)

    def _chain_tolerance(self, lam, column_norm):
        scale = (
            1.0
            + fro_norm(self.sys.A)
            + abs(lam) * np.sqrt(self.sys.n)
            + fro_norm(self.sys.B)
        )
        return self.tol.residual_tol * scale * max(1.0, column_norm)

    def recover_parameters(self, chain_set):
        """Invert the chain construction: K(l) = N^H (h(l) - Mdag pi(h(l-1))).

        Valid chains keep h(l) - Mdag pi_upper(h(l-1)) inside ker(S), where
        N^H acts as an exact left inverse; the chain relations and conjugate
        symmetry are verified first and violations raise
        ChainConsistencyError.
        """
        n = self.sys.n
        A, B = self.sys.A, self.sys.B
        for i in range(0, 2 * self.spec.sigma, 2):
            for blk, blk_c in zip(chain_set.chains[i], chain_set.chains[i + 1]):
                dev = np.abs(blk.conj() - blk_c).max()
                if dev > self._chain_tolerance(
                    self.spec.eigenvalues[i], np.abs(blk).max()
                ):
                    raise ChainConsistencyError(
                        "not a valid chain set: conjugate pair blocks differ "
                        f"by {dev:.3e}"
                    )
        blocks = [None] * self.spec.nu
        for i in range(self.spec.nu):
            if i % 2 == 1 and i < 2 * self.spec.sigma:
                blocks[i] = blocks[i - 1].conj()
                continue
            lam = self.spec.eigenvalues[i]
            pencil = self.pencils[i]
            cols = []
            for blk in chain_set.chains[i]:
                prev = None
                for ell in range(blk.shape[1]):
                    h = blk[:, ell]
                    lhs = (A - lam * np.eye(n)) @ h[:n] + B @ h[n:]
                    rhs = np.zeros(n) if prev is None else prev[:n]
                    err = np.linalg.norm(lhs - rhs)
                    if err > self._chain_tolerance(lam, np.linalg.norm(h)):
                        raise ChainConsistencyError(
                            f"not a valid chain set: relation residual "
                            f"{err:.3e} at lambda={lam}"
                        )
                    k = h if prev is None else h - pencil.Mdag @ prev[:n]
                    cols.append(pencil.N.conj().T @ k)
                    prev = h
            Ki = np.column_stack(cols)
            if i >= 2 * self.spec.sigma:
                if np.iscomplexobj(Ki):
                    residue = np.abs(Ki.imag).max()
                    if residue > self._chain_tolerance(lam, np.abs(Ki).max()):
                        raise ChainConsistencyError(
                            "not a valid chain set: complex chain for real "
                            f"eigenvalue {lam.real} (residue {residue:.3e})"
                        )
                    Ki = Ki.real
                blocks[i] = Ki
            else:
                blocks[i] = Ki
        return ParameterMatrix(blocks, self.spec.sigma)


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
