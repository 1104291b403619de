"""Objectives and multi-start quasi-Newton search over the parameter space.

The placement parameter K has exactly m*n free real coordinates, so
robustness and gain objectives become unconstrained (nonconvex) functions on
R^(mn).  Each restart runs BFGS with Armijo backtracking, so accepted steps
never increase the objective.  The backtracking probes t = 1, 1/2, ... of a
step are checked in stacked chunks of up to _MAX_STACK rows, one numpy call
per chunk instead of one per probe (see `_backtrack`); the search accepts
the probe, and counts the evaluations, that one probe at a time would.  A
restart ends "grad_tol" when the gradient is below tol_grad, "max_iters" at
the iteration cap, "line_search" when all _MAX_BACKTRACKS probes are
singular or rejected, "zero_slope" when the steepest-descent fallback has
zero slope, and "roundoff" when the full step is rejected and the Armijo
threshold of the next shorter step rounds to the current value: no shorter
step can certify a decrease in floating point, so the restart sits at the
objective's roundoff floor.  A restart whose _RESAMPLE_LIMIT start draws
are all singular is reported as "singular_start" with an empty trace and
value +inf.

The chains are linear in K, so [V; W] = L x for one operator L built once
per placer (`Placer.operator`, a scatter of the placer's stored placement
map); values come from L x and F = W V^-1, and gradients are exact, pulled
back through L.  The evaluator keeps L dense: at n <= 6 one dense product
is cheaper than the map's gather plus stacked product.  [V; W] is linear in
x, so k probes are k columns of one stacked product with L, and their
inverses and values come from one stacked call each.  Only the condition
term at alpha > 0 reads V's singular values, so only it takes a stacked
SVD of every probe; elsewhere the inverse certifies the well-conditioned
probes nonsingular (`linalg.certified_rows`), and the SVD singularity test
runs only on the rest, accepting the same probes.
Every placement assigns the requested spectrum, so the normality objective
needs no Schur form:
delta_fro^2 = ||A + B F||_F^2 - sum mult |lambda|^2 (Henrici's identity)
gives its value and its gradient alike.
Central finite differences remain as the oracle behind `gradient`.
Parameter draws that make V singular are a measure-zero set and are treated
as resample or step-rejection signals, never as fatal errors.

F-only objectives (normality at any alpha, condition at alpha = 0) see K
only through F = W V^-1.  On an F-unique structure, where every eigenvalue
has exactly m Jordan blocks, all of one order, the whole family holds a
single feedback: dim C(Lambda) = sum_lambda sum_{j,k} min(p_j, p_k) = m*n.
There the objective is evaluated once, at the well-conditioned parameter K*
of `unique_parameter`, instead of from each draw's own (possibly
ill-conditioned) V, so every nonsingular draw returns the same value and
`minimize` returns the placement at K* without searching.
"""

import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import SingularMatrixError
from .linalg import (
    DEFAULT_TOL,
    checked_svals,
    fro_norm,
    nonsingular_inverses,
    nonsingular_rows,
)
# kappa_2 is unused here but stays a module attribute: perfbench's tracer
# wraps optimize.kappa_fro and optimize.kappa_2 by name
from .metrics import (  # noqa: F401
    assigned_departure_sq,
    departure_from_normality,
    kappa_2,
    kappa_fro,
    spectrum_mass,
)
from .placement import ParameterMatrix, Placer, residual_ok

_ARMIJO_C1 = 1e-4
_MAX_BACKTRACKS = 60
# the most backtracking probes one stacked evaluation checks
_MAX_STACK = 8
_RESAMPLE_LIMIT = 100


@dataclass(frozen=True)
class ObjectiveSpec:
    """Which robustness measure to blend with the gain term.

    method "condition" weights ||V||_F^2 + ||V^-1||_F^2 (the smooth
    surrogate of the Frobenius condition number); method "normality" weights
    the squared departure from normality of the closed loop.  alpha = 0 is
    pure minimum gain, alpha = 1 pure robustness.
    """

    method: str = "condition"
    alpha: float = 1.0

    def __post_init__(self):
        if self.method not in ("condition", "normality"):
            raise ValueError("method must be 'condition' or 'normality'")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")


@dataclass(frozen=True)
class OptOptions:
    restarts: int = 10
    max_iters: int = 500
    tol_grad: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        # numpy integers are Integral; bool is an int, but not a count
        for name in ("restarts", "max_iters", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.restarts < 1 or self.max_iters < 1:
            raise ValueError("restarts and max_iters must be positive")
        if not (self.tol_grad > 0 and math.isfinite(self.tol_grad)):
            raise ValueError("tol_grad must be positive and finite")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


@dataclass(frozen=True)
class OptResult:
    best_K: ParameterMatrix
    best_value: float
    # per restart, the accepted values from the start draw on; empty for a
    # "singular_start" restart, which has no start value
    traces: tuple
    restart_values: tuple
    placement: object
    metrics: dict = field(default_factory=dict)
    # per restart, aligned with traces: why it stopped ("grad_tol",
    # "max_iters", "line_search", "zero_slope", "roundoff", the floating-
    # point floor of the objective, or "singular_start"; see the module
    # docstring) and how many objective values it computed, start draws
    # included; a line search counts its probes up to the one that ended
    # it, not the rows its last stacked chunk held after that probe
    terminations: tuple = ()
    evaluations: tuple = ()


def is_f_unique(spec, m):
    """True when the parameter family holds exactly one feedback.

    That is the case iff every eigenvalue (a conjugate pair counted once)
    has exactly m Jordan blocks, all of the same order; equivalently the
    commutant of Lambda has dimension m*n, so K -> K C with C commuting
    with Lambda sweeps the whole parameter space without changing F.
    """
    return all(
        len(orders) == m and len(set(orders)) == 1 for orders in spec.block_orders
    )


def unique_parameter(spec, m):
    """The parameter K* used on F-unique structures.

    In each block, the level-1 column of the j-th Jordan block is e_j and
    every other column is zero; a pair's first member gets a complex block,
    its partner the conjugate.  Chains are equivariant, H(K C) = H(K) C,
    and on an F-unique structure K* C reaches every K, so V(K*) is
    nonsingular whenever any V(K) is.
    """
    blocks = []
    for i, orders in enumerate(spec.block_orders):
        if i % 2 == 1 and i < 2 * spec.sigma:
            blocks.append(blocks[-1].conj())
            continue
        dtype = complex if i < 2 * spec.sigma else float
        blk = np.zeros((m, sum(orders)), dtype=dtype)
        off = 0
        for j, p in enumerate(orders):
            blk[j, off] = 1.0
            off += p
        blocks.append(blk)
    return ParameterMatrix(blocks, spec.sigma)


class _Point(NamedTuple):
    """One nonsingular evaluation: V, its inverse, the feedback and value."""

    V: np.ndarray
    Vi: np.ndarray
    F: np.ndarray
    value: float


class _Points(NamedTuple):
    """The evaluations at the rows of one stacked call (`_Evaluator.points`).

    rows lists the rows of X whose V is nonsingular, in order; values (a
    list of floats), V, Vi and F hold one entry per such row.
    """

    rows: list
    values: list
    V: np.ndarray
    Vi: np.ndarray
    F: np.ndarray

    def at(self, j):
        """The `_Point` of the j-th nonsingular row."""
        return _Point(self.V[j], self.Vi[j], self.F[j], self.values[j])


class _Evaluator:
    """Objective and its exact gradient over the free coordinate vector.

    Evaluations form [V; W] = L x through the placer's linear operator (see
    `Placer.operator`), then F = W V^-1.  `points` evaluates the rows of a
    matrix X in one stacked call, and `point` is its one-row case, so a
    line search checks several probes for the numpy call overhead of one;
    every stacked step (the product with L, `svd`, `inv`, the matrix
    products and the squared norms) gives each row the bits of a one-row
    call.  The normality value and gradient both use Henrici's identity
    with the assigned spectrum, whose mass sum mult |lambda|^2 is computed
    once here.  Calling the evaluator returns (value, ok); singular
    placements yield (+inf, False) so line searches reject the step and
    move on.  For an F-only objective on an F-unique structure the value is
    computed once at K* (see `unique_parameter`), from the Schur form, and
    returned for every nonsingular x; x is still checked first, so a
    singular draw remains a resample signal.
    """

    def __init__(self, obj, placer):
        self.obj = obj
        self.placer = placer
        self.L = placer.operator()
        self.sys = placer.sys
        self.spec = placer.spec
        self.m = placer.sys.m
        self.mass = spectrum_mass(self.spec)
        # only the condition term at alpha > 0 reads V's singular values
        self.reads_svals = obj.method == "condition" and obj.alpha > 0.0
        self.K_star = self.placement_star = self.fixed = None
        f_only = obj.method == "normality" or obj.alpha == 0.0
        if f_only and is_f_unique(self.spec, self.m):
            K_star = unique_parameter(self.spec, self.m)
            try:
                self.placement_star = placer.place(K_star)
            except SingularMatrixError:
                # only under a singular_cond_limit near cond V(K*): keep
                # evaluating per draw, where better-conditioned draws pass
                return
            self.K_star = K_star
            # once per evaluator, off the search path: the Schur form; an
            # F-only condition objective has alpha = 0, the gain alone
            robust = 0.0
            if obj.method == "normality":
                Acl = self.sys.A + self.sys.B @ self.placement_star.F
                robust = departure_from_normality(Acl) ** 2
            self.fixed = self._blend(robust, self.placement_star.F)

    def _blend(self, robust, F):
        """alpha robust + (1 - alpha) ||F||_F^2 for one row, in float order."""
        alpha = self.obj.alpha
        if alpha == 1.0:
            # the gain term is +0.0 here, so skip its norm
            return robust
        return alpha * robust + (1.0 - alpha) * fro_norm(F) ** 2

    def points(self, X):
        """The evaluations at the rows of X, as `_Points`.

        Values are formed only on the rows whose V passes the one
        singularity test, `linalg.nonsingular_rows`.  The condition term at
        alpha > 0 is sum s^2 + sum s^-2 of V's singular values, so there one
        stacked `svd` decides every row before the stacked `inv`.  Every
        other objective reads only V^-1 and F: the stacked `inv` comes
        first, and a row whose Frobenius condition number, read from that
        inverse, is well within the limit is accepted without an SVD
        (`linalg.nonsingular_inverses`); only the rows left over take one.
        Both orders accept the same rows, with the same bits.  The
        normality term is Henrici's identity on the stacked A + B F
        (`assigned_departure_sq`, which falls back to the Schur form row by
        row on a nearly normal loop), the same identity `grad`
        differentiates.  The gain term is added row by row, as
        alpha robust + (1 - alpha) ||F||_F^2 in the float order of one row.
        """
        n, k, tol = self.sys.n, len(X), self.placer.tol
        VW = np.matmul(self.L, X[:, :, None]).reshape(k, n + self.m, n)
        V, W = VW[:, :n], VW[:, n:]
        if self.reads_svals:
            s = np.linalg.svd(V, compute_uv=False)
            rows = nonsingular_rows(s, tol)
            if len(rows) < k:
                V, W, s = V[rows], W[rows], s[rows]
            Vi = np.linalg.inv(V)
        else:
            rows, Vi = nonsingular_inverses(V, tol)
            if len(rows) < k:
                V, W = V[rows], W[rows]
        F = W @ Vi
        if self.fixed is not None:
            values = [self.fixed] * len(rows)
        elif self.reads_svals:
            values = (np.sum(s**2, axis=1) + np.sum(s**-2, axis=1)).tolist()
        elif self.obj.method == "normality":
            values = assigned_departure_sq(self.sys.A + self.sys.B @ F, self.mass)
        else:
            # condition at alpha = 0 is the gain alone: alpha * robust is
            # +0.0 for every finite robust term, so none is formed
            values = [0.0] * len(rows)
        if self.fixed is None and self.obj.alpha != 1.0:
            values = [self._blend(r, f) for r, f in zip(values, F)]
        return _Points(rows, values, V, Vi, F)

    def point(self, x):
        """The evaluation at x, or None when V is singular: `points` on
        the one row x."""
        pts = self.points(x[None])
        return pts.at(0) if pts.rows else None

    def grad(self, pt):
        """Exact gradient at an evaluated point.

        With F = W V^-1 and G = df/dF, the chain rule gives df/dW = G V^-T
        and df/dV = -F^T G V^-T, plus the explicit 2 alpha (V - V^-T V^-1
        V^-T) of ||V||_F^2 + ||V^-1||_F^2 for the condition method.  For the
        normality method it is the identity `points` evaluates:
        delta_fro^2 = ||A + B F||_F^2 - mass, so G = 2 alpha B^T (A + B F)
        + 2 (1 - alpha) F.  Both partials are pulled back through L.
        Not defined for an evaluator with a value fixed at K*: `minimize`
        does not search there.
        """
        alpha, V, Vi, F = self.obj.alpha, pt.V, pt.Vi, pt.F
        G = 2.0 * (1.0 - alpha) * F
        if self.obj.method == "normality":
            G += 2.0 * alpha * self.sys.B.T @ (self.sys.A + self.sys.B @ F)
        dW = G @ Vi.T
        dV = -F.T @ dW
        if self.obj.method == "condition":
            dV += 2.0 * alpha * (V - Vi.T @ Vi @ Vi.T)
        return np.concatenate((dV, dW)).ravel() @ self.L

    def __call__(self, x):
        pt = self.point(x)
        return (float("inf"), False) if pt is None else (pt.value, True)


def _objective(method, K, sys, spec, alpha, tol):
    evaluate = _Evaluator(ObjectiveSpec(method, alpha), Placer(sys, spec, tol))
    value, ok = evaluate(K.to_vector())
    if not ok:
        raise SingularMatrixError("parameter matrix yields singular V_K")
    return value


def objective_f1(K, sys, spec, alpha, tol=DEFAULT_TOL):
    """alpha (||V||_F^2 + ||V^-1||_F^2) + (1 - alpha) ||F||_F^2.

    Evaluated as `minimize` evaluates it: at alpha = 0 on an F-unique
    structure the value is the one at K* (see `unique_parameter`).
    """
    return _objective("condition", K, sys, spec, alpha, tol)


def objective_f2(K, sys, spec, alpha, tol=DEFAULT_TOL):
    """alpha delta_fro^2(A + B F) + (1 - alpha) ||F||_F^2.

    A function of F alone; on an F-unique structure it is evaluated at K*
    (see `unique_parameter`), as `minimize` evaluates it.
    """
    return _objective("normality", K, sys, spec, alpha, tol)


# relative central-difference step of `gradient`, eps^(1/3)
_FD_STEP = float(np.finfo(float).eps ** (1.0 / 3.0))


def _fd_gradient(evaluate, x, step):
    """Central differences with one-sided fallback at singular probes.

    The one-sided differences go through f(x), which is evaluated first
    and must be nonsingular; a coordinate whose two probes are both
    singular gets 0.  Returns the gradient and the flags of the
    coordinates that fell back.
    """
    f0, ok = evaluate(x)
    if not ok:
        raise SingularMatrixError("objective singular at the evaluation point")
    g = np.zeros_like(x)
    flags = np.zeros(x.size, dtype=bool)
    for j in range(x.size):
        h = step * (1.0 + abs(x[j]))
        xp = x.copy()
        xp[j] += h
        xm = x.copy()
        xm[j] -= h
        fp, okp = evaluate(xp)
        fm, okm = evaluate(xm)
        flags[j] = not (okp and okm)
        if okp and okm:
            g[j] = (fp - fm) / (2.0 * h)
        elif okp:
            g[j] = (fp - f0) / h
        elif okm:
            g[j] = (f0 - fm) / h
    return g, flags


def gradient(obj, K, sys, spec, tol=DEFAULT_TOL):
    """Numerical gradient of the objective over the mn free coordinates.

    The finite-difference oracle for the exact gradient `minimize` uses.
    Central differences with relative step eps^(1/3) * (1 + |coordinate|);
    a probe that lands on a singular placement falls back to a one-sided
    difference.  Values come from the same evaluation as `minimize`, so an
    F-only objective on an F-unique structure has gradient exactly zero.
    """
    evaluate = _Evaluator(obj, Placer(sys, spec, tol))
    return _fd_gradient(evaluate, K.to_vector(), _FD_STEP)[0]


def _backtrack(evaluate, x, p, fx, slope, size):
    """Armijo backtracking along p from x, probes t = 1, 1/2, 1/4, ...

    The probes are checked in stacked chunks (`_Evaluator.points`), the
    first one size probes long and each later one _MAX_STACK.  A chunk
    stops at _MAX_BACKTRACKS probes in all, and at the first probe after
    which the search would stop for roundoff: the Armijo threshold of the
    next, halved step rounds to fx, so no shorter step can certify a
    decrease in floating point.  The first row in order that passes Armijo,
    with the thresholds fx + c1 t slope of one probe at a time, is
    accepted, so the search ends where a one-probe-at-a-time search ends.

    Returns (t, point, probes, stop): the accepted step and its `_Point`,
    or None for both and stop "roundoff" or "line_search"; probes counts
    the probes up to the one that ended the search, not the rows of its
    chunk after that probe.
    """
    t, done = 1.0, 0
    while True:
        steps, bounds, stop = [], [], None
        while stop is None and len(steps) < size:
            steps.append(t)
            bounds.append(fx + _ARMIJO_C1 * t * slope)
            t *= 0.5
            if not fx + _ARMIJO_C1 * t * slope < fx:
                stop = "roundoff"
            elif done + len(steps) == _MAX_BACKTRACKS:
                stop = "line_search"
        pts = evaluate.points(x + np.multiply.outer(steps, p))
        for j, (i, value) in enumerate(zip(pts.rows, pts.values)):
            if value <= bounds[i]:
                return steps[i], pts.at(j), done + i + 1, None
        done += len(steps)
        if stop is not None:
            return None, None, done, stop
        size = _MAX_STACK


def _bfgs_restart(evaluate, x0, pt0, opts):
    """One monotone quasi-Newton descent from the evaluated start pt0.

    Returns (x, value, trace, termination, probes).  Line-search probes are
    value-only; the gradient is formed only at accepted points.  A step's
    first chunk of probes (`_backtrack`) is as long as the previous step's
    search, capped at _MAX_STACK: after a step whose full step passed, the
    full step is probed alone.  A restart's first step, taken with the
    inverse Hessian still I, starts with a whole chunk of _MAX_STACK.
    """
    dim = x0.size
    eye = np.eye(dim)
    Hinv = eye.copy()
    x = x0.copy()
    probes = 0
    # the previous step's probe count
    last = _MAX_STACK
    fx, g = pt0.value, evaluate.grad(pt0)
    trace = [fx]
    termination = "max_iters"
    for _ in range(opts.max_iters):
        if np.abs(g).max() <= opts.tol_grad:
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
        t, accepted, last, stop = _backtrack(
            evaluate, x, p, fx, slope, min(last, _MAX_STACK)
        )
        probes += last
        if accepted is None:
            termination = stop
            break
        s = t * p
        x_new = x + s
        g_new = evaluate.grad(accepted)
        y = g_new - g
        sy = float(s @ y)
        if sy > 1e-10 * math.sqrt(s @ s) * math.sqrt(y @ y):
            rho = 1.0 / sy
            left = eye - rho * np.multiply.outer(s, y)
            Hinv = left @ Hinv @ left.T + rho * np.multiply.outer(s, s)
        x, fx, g = x_new, accepted.value, g_new
        trace.append(fx)
    else:
        if np.abs(g).max() <= opts.tol_grad:
            termination = "grad_tol"
    return x, fx, trace, termination, probes


def minimize(obj, sys, spec, opts=OptOptions(), tol=DEFAULT_TOL):
    """Multi-start minimization of the chosen objective.

    Each restart draws standard-normal free coordinates (resampling the
    rare singular starts), runs BFGS with backtracking, and the best
    restart wins.  Deterministic for a fixed seed.

    For an F-only objective on an F-unique structure every nonsingular
    point has the value at K*, so there is nothing to search: best_K is K*
    and the placement the one at K*, and each restart reports the single
    trace (value,) with termination "grad_tol" and no evaluations.
    """
    placer = Placer(sys, spec, tol)
    evaluate = _Evaluator(obj, placer)
    # (trace, final value, termination, evaluations) per restart
    if evaluate.K_star is not None:
        best_K, best_val, res = evaluate.K_star, evaluate.fixed, evaluate.placement_star
        runs = [((best_val,), best_val, "grad_tol", 0)] * opts.restarts
    else:
        runs = []
        best_x, best_val = None, float("inf")
        for stream in np.random.SeedSequence(opts.seed).spawn(opts.restarts):
            rng = np.random.default_rng(stream)
            for draws in range(1, _RESAMPLE_LIMIT + 1):
                x0 = rng.standard_normal(sys.m * sys.n)
                pt0 = evaluate.point(x0)
                if pt0 is not None:
                    break
            else:
                runs.append(((), float("inf"), "singular_start", _RESAMPLE_LIMIT))
                continue
            x, val, trace, termination, probes = _bfgs_restart(
                evaluate, x0, pt0, opts
            )
            runs.append((tuple(trace), val, termination, draws + probes))
            if val < best_val:
                best_x, best_val = x, val
        if best_x is None:
            raise SingularMatrixError(
                "all restarts produced singular placements at initialization"
            )
        best_K = ParameterMatrix.from_vector(spec, sys.m, best_x)
        res = placer.place(best_K)
    traces, finals, terminations, evaluations = zip(*runs)
    return OptResult(best_K, best_val, traces, finals, res,
                     placement_metrics(sys, spec, res, tol), terminations,
                     evaluations)


def placement_metrics(sys, spec, res, tol):
    """The robustness and gain figures reported for a placement.

    delta_fro uses Henrici's identity with the assigned spectrum of spec
    (`assigned_departure_sq`); a placement that fails `residual_ok` need
    not carry that spectrum, so there the Schur form decides.
    """
    Acl = sys.A + sys.B @ res.F
    if residual_ok(sys, res, tol):
        delta = float(np.sqrt(assigned_departure_sq(Acl, spectrum_mass(spec))))
    else:
        delta = departure_from_normality(Acl)
    # both condition numbers of V from one SVD, as `kappa_fro` and `kappa_2`
    # form them
    s = checked_svals(res.V, tol)
    return {
        "kappa_fro": float(np.sqrt(np.sum(s**2) * np.sum(s**-2))),
        "kappa_2": float(s[0] / s[-1]),
        "kappa_fro_X": kappa_fro(res.X, tol),
        "delta_fro": delta,
        "gain_fro": fro_norm(res.F),
    }
