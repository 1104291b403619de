"""Shared generators and checkers for the test suite.

Random reachable pairs are plain Gaussian draws (reachability holds almost
surely and is verified); random admissible structures are rejection-sampled
against the admissibility checker, whose own correctness is established by
the brute-force oracle test in test_structure.py.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import poleplace as pp
from poleplace.structure import conformable_column_blocks

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name):
    """The module perfbench/<name>.py, imported as perfbench_<name>."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def random_reachable(rng, n, m):
    for _ in range(50):
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, m))
        try:
            sys = pp.System(A, B)
            pp.controllability_indices(sys)
            return sys
        except pp.PolePlaceError:
            continue
    raise RuntimeError(f"could not draw a reachable ({n},{m}) pair")


def realify(chain_set):
    """The real (V, W) of a conformably ordered, conjugate-symmetric chain
    set, column by column: a pair's first block gives the real parts of its
    columns, the second block their imaginary parts, and real blocks pass
    through.  The reference the placement map's real [V; W] is held to."""
    spec, H = chain_set.spec, chain_set.H
    out = H.real.copy()
    col_blocks = conformable_column_blocks(spec)
    for i in range(0, 2 * spec.sigma, 2):
        (a, b), (c, d) = col_blocks[i], col_blocks[i + 1]
        out[:, c:d] = H[:, a:b].imag
    return out[: spec.n], out[spec.n :]


def _random_partition(rng, total, max_parts, max_block):
    if total > max_parts * max_block:
        return None
    parts = []
    rem = total
    while rem > 0:
        if len(parts) == max_parts:
            return None
        p = int(rng.integers(1, min(rem, max_block) + 1))
        parts.append(p)
        rem -= p
    return tuple(sorted(parts, reverse=True))


_MIN_EIG_SEPARATION = 0.25


def _random_structure(rng, n, m, max_block, allow_complex):
    eigs, blocks = [], []
    remaining = n
    guard = 0

    def separated(lam):
        return all(
            abs(lam - mu) >= _MIN_EIG_SEPARATION
            and abs(lam.conjugate() - mu) >= _MIN_EIG_SEPARATION
            for mu in eigs
        )

    while remaining > 0:
        guard += 1
        if guard > 50:
            return None
        pair = allow_complex and remaining >= 2 and rng.random() < 0.4
        if pair:
            mult = int(rng.integers(1, remaining // 2 + 1))
        else:
            mult = int(rng.integers(1, remaining + 1))
        part = _random_partition(rng, mult, m, max_block)
        if part is None:
            continue
        re = round(float(rng.uniform(-3.0, 1.0)), 2)
        if pair:
            lam = complex(re, round(float(rng.uniform(0.3, 2.5)), 2))
            if not separated(lam):
                continue
            eigs += [lam, lam.conjugate()]
            blocks += [part, part]
            remaining -= 2 * mult
        else:
            lam = complex(re, 0.0)
            if not separated(lam):
                continue
            eigs.append(lam)
            blocks.append(part)
            remaining -= mult
    spec = pp.EigStructure(tuple(eigs), tuple(blocks))
    return pp.normalize_ordering(spec)[0]


def random_admissible_spec(rng, sys, max_block=4, allow_complex=True):
    """Rejection-sample an admissible structure; falls back to the
    always-admissible single zero eigenvalue with index-sized blocks."""
    for _ in range(300):
        spec = _random_structure(rng, sys.n, sys.m, max_block, allow_complex)
        if spec is not None and pp.check_admissible(spec, sys).satisfied:
            return spec
    c = pp.controllability_indices(sys)
    return pp.EigStructure((0.0,), (c,))


def place_random(rng, sys, spec, tries=25, tol=None, best_of=1):
    """Place with random draws; with best_of > 1 keep the draw with the
    smallest cond(V) among that many successes."""
    placer = pp.Placer(sys, spec, tol or pp.ToleranceConfig())
    best = None
    successes = 0
    for _ in range(tries):
        K = pp.ParameterMatrix.random(spec, sys.m, rng)
        try:
            res = placer.place(K)
        except pp.SingularMatrixError:
            continue
        successes += 1
        if best is None or res.cond_V < best[1].cond_V:
            best = (K, res)
        if successes >= best_of:
            return best
    if best is None:
        raise RuntimeError("no nonsingular draw found")
    return best


def zero_column_draw(placer, rng, i):
    """A random parameter matrix whose i-th eigenvalue has its first
    parameter column zero (with its conjugate's, for a pair), so that V has
    an exact zero column: exactly singular, although V's SVD may still read
    sigma_min > 0 and pass an infinite singular_cond_limit."""
    spec = placer.spec
    K = pp.ParameterMatrix.random(spec, placer.sys.m, rng)
    blocks = [b.copy() for b in K.blocks]
    for j in {i, i ^ 1} if i < 2 * spec.sigma else {i}:
        blocks[j][:, 0] = 0.0
    return pp.ParameterMatrix(blocks, spec.sigma)


def start_conds(placer, seed, restarts):
    """cond(V) of the first start draw of each `minimize` restart.

    Mirrors minimize's draws: one SeedSequence(seed) child stream per
    restart, standard-normal free coordinates.
    """
    m, spec = placer.sys.m, placer.spec
    conds = []
    for stream in np.random.SeedSequence(seed).spawn(restarts):
        x = np.random.default_rng(stream).standard_normal(m * placer.sys.n)
        K = pp.ParameterMatrix.from_vector(spec, m, x)
        conds.append(placer.place(K).cond_V)
    return conds


def split_limit(conds):
    """A singular_cond_limit between the lower and upper half of conds."""
    c = sorted(conds)
    k = len(c) // 2
    return float(np.sqrt(c[k - 1] * c[k]))


def weyr_ranks_ok(sys, F, spec, noise_factor=1e6, gap_factor=1e4):
    """Verify the requested block orders through the rank pattern of
    (A + BF - lambda I)^q: expected rank is n - sum_k min(q, p_k).

    Noise in the computed q-th power scales like ||M||_2^q (a sigma_max
    relative threshold misjudges nilpotent powers, whose sigma_max is
    itself noise), and legitimate nonzero singular values can sit orders of
    magnitude below ||M||^q on ill-conditioned chains.  So the rank is
    accepted when the values beyond the expected rank sit under a generous
    noise cap AND the spectrum jumps by gap_factor exactly there.
    """
    Acl = sys.A + sys.B @ F
    n = sys.n
    eps = np.finfo(float).eps
    for lam, orders in zip(spec.eigenvalues, spec.block_orders):
        M = Acl - lam * np.eye(n)
        scale = max(np.linalg.norm(M, 2), 1.0)
        for q in range(1, max(orders) + 1):
            Mq = np.linalg.matrix_power(M, q)
            s = np.linalg.svd(Mq, compute_uv=False)
            cap = noise_factor * n * eps * scale**q
            r = n - sum(min(q, p) for p in orders)
            if r < n and s[r] > cap:
                return False
            if r > 0 and s[r - 1] < max(
                gap_factor * (s[r] if r < n else 0.0), n * eps * scale**q
            ):
                return False
    return True


def eigenvalue_match_errors(sys, F, spec):
    """Greedy optimal matching of the closed-loop spectrum to the request.

    Returns (per-eigenvalue distances, per-cluster mean errors), both
    normalized by 1 + |lambda|.
    """
    ev = list(np.linalg.eigvals(sys.A + sys.B @ F))
    per_eig, cluster = [], []
    for lam, orders in zip(spec.eigenvalues, spec.block_orders):
        mult = sum(orders)
        picked = []
        for _ in range(mult):
            j = int(np.argmin([abs(e - lam) for e in ev]))
            picked.append(ev.pop(j))
        scale = 1.0 + abs(lam)
        per_eig.append(max(abs(e - lam) for e in picked) / scale)
        cluster.append(abs(np.mean(picked) - lam) / scale)
    return per_eig, cluster


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
