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
map), and gradients are exact, pulled back through L.  The chains satisfy
A V + B W = V Lambda_R, Lambda_R the real Jordan form in V's column layout
(`Placer._real_jordan`), so every placed loop is A + B F = V Lambda_R V^-1
and both robustness measures are functions of V alone.  At alpha = 1 the
probes of either objective apply only the V block of L (its first n^2
rows) and form no W or F, and the gradient is pulled back through that
block; below it F = W V^-1 is formed for the gain term only.  The
evaluator keeps L dense: at n <= 6 one dense product is cheaper than the
map's gather plus stacked product.  [V; W] is linear in x, so k probes are
k columns of one stacked product with L, and their inverses and values
come from one stacked call each.  Every objective takes the same
singularity path, inverse first (`linalg.nonsingular_inverses`): the
squared norms of V and of its inverse certify the well-conditioned probes
nonsingular, a probe whose inverse is not finite (an exact zero pivot
reads NaN there) is rejected, never raised, and the SVD test runs only on
the finite rest.  The condition term ||V||_F^2 + ||V^-1||_F^2 is the sum
of those two squared norms, with no SVD and no second pass.  Every
placement assigns the requested spectrum, so the normality term needs no
Schur form: delta_fro^2 = ||M||_F^2 - sum mult |lambda|^2 (Henrici's
identity) for the loop M = V Lambda_R V^-1 gives its value and its
gradient alike.  M differs from A + B F formed from F by rounding only,
at most n eps cond(V) ||A + B F||_F.  The floating-point error state is
entered once per restart, not once per probe (`_Evaluator`).
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

import functools
import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import SingularMatrixError
from .linalg import (
    DEFAULT_TOL,
    _nonsingular_inverses,
    checked_svals,
    fro_norm,
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
    every other column is zero.  The block is real, so it is its own
    conjugate and serves both members of a pair.  Chains are equivariant,
    H(K C) = H(K) C, and on an F-unique structure K* C reaches every K, so
    V(K*) is nonsingular whenever any V(K) is.
    """
    blocks = []
    for orders in spec.block_orders:
        blk = np.zeros((m, sum(orders)))
        blk[range(len(orders)), np.cumsum((0, *orders[:-1]))] = 1.0
        blocks.append(blk)
    return ParameterMatrix(blocks, spec.sigma)


class _Point(NamedTuple):
    """One nonsingular evaluation: V, its inverse, the feedback (None where
    the objective reads V alone), value and, for the normality objective,
    the loop M = V Lambda_R V^-1 its value was read from (else None)."""

    V: np.ndarray
    Vi: np.ndarray
    F: np.ndarray
    value: float
    M: np.ndarray = None


class _Points(NamedTuple):
    """The evaluations at the rows of one stacked call (`_Evaluator.points`).

    rows lists the rows of X whose V is nonsingular, in order; values (a
    list of floats), V, Vi, F and M hold one entry per such row.  F is None
    where the objective reads V alone (`_Evaluator.v_only`), and M unless
    the value is the normality objective's own (see `_Point`).
    """

    rows: list
    values: list
    V: np.ndarray
    Vi: np.ndarray
    F: np.ndarray
    M: np.ndarray = None

    def at(self, j):
        """The `_Point` of the j-th nonsingular row."""
        F = None if self.F is None else self.F[j]
        M = None if self.M is None else self.M[j]
        return _Point(self.V[j], self.Vi[j], F, self.values[j], M)


class _Evaluator:
    """Objective and its exact gradient over the free coordinate vector.

    Evaluations form [V; W] = L x through the placer's linear operator (see
    `Placer.operator`).  Every placed loop is A + B F = V Lambda_R V^-1,
    Lambda_R the real Jordan form in V's column layout
    (`Placer._real_jordan`), so both robustness terms read V alone: the
    condition term from V and V^-1, the normality term from
    M = V Lambda_R V^-1.  At alpha = 1 (`v_only`) an evaluation forms
    V = L_V x alone, from the V block of L, and no W or F, so its points
    carry F = None; at alpha < 1 F = W V^-1 is formed for the gain term
    only.  `points` evaluates the rows of a matrix X in one stacked call,
    and `point` is its one-row case, so a line search checks several
    probes for the numpy call overhead of one; every stacked step (the
    product with L, `inv`, the matrix products and the squared norms)
    gives each row the bits of a one-row call.  The normality value and
    gradient both use Henrici's identity with the assigned spectrum, whose
    mass sum mult |lambda|^2 is computed once here.  Calling the evaluator
    returns (value, ok); singular placements yield (+inf, False) so line
    searches reject the step and move on.  For an F-only objective on an
    F-unique structure the value is computed once at K* (see
    `unique_parameter`), from the Schur form of A + B F*, and returned for
    every nonsingular x; x is still checked first, so a singular draw
    remains a resample signal.

    `points`, `point` and calling the evaluator each run under
    np.errstate(all="ignore"), so they raise no floating-point warning;
    `minimize` enters that state once per restart and calls their cores,
    `_points` and `_point`, inside it.
    """

    def __init__(self, obj, placer):
        self.obj = obj
        self.placer = placer
        self.sys = placer.sys
        self.spec = placer.spec
        self.m = placer.sys.m
        self.mass = spectrum_mass(self.spec)
        # at alpha = 1 both robustness terms read V alone
        self.v_only = obj.alpha == 1.0
        self.K_star = self.placement_star = self.fixed = None
        f_only = obj.method == "normality" or obj.alpha == 0.0
        if f_only and is_f_unique(self.spec, self.m):
            K_star = unique_parameter(self.spec, self.m)
            try:
                self.placement_star = placer.place(K_star)
            except SingularMatrixError:
                # only under a singular_cond_limit near cond V(K*): keep
                # evaluating per draw, where better-conditioned draws pass
                pass
            else:
                self.K_star = K_star
                # once per evaluator, off the search path: the Schur form;
                # an F-only condition objective has alpha = 0, the gain alone
                robust = 0.0
                if obj.method == "normality":
                    Acl = self.sys.A + self.sys.B @ self.placement_star.F
                    robust = departure_from_normality(Acl) ** 2
                self.fixed = self._blend(robust, self.placement_star.F)

    @functools.cached_property
    def L(self):
        """The placer's dense operator (`Placer.operator`), built on the
        first evaluation; an evaluator with a value fixed at K*, which
        `minimize` never searches, builds it only when a point is checked."""
        return self.placer.operator()

    @functools.cached_property
    def L_V(self):
        """The V block of L, its first n^2 rows: V.ravel() = L_V x."""
        return self.L[: self.sys.n ** 2]

    def _blend(self, robust, F):
        """alpha robust + (1 - alpha) ||F||_F^2 for one row, in float order."""
        alpha = self.obj.alpha
        if alpha == 1.0:
            # the gain term is +0.0 here, so skip its norm
            return robust
        return alpha * robust + (1.0 - alpha) * fro_norm(F) ** 2

    def points(self, X):
        """The evaluations at the rows of X, as `_Points`.

        Values are formed only on the rows whose V is not singular, by one
        path for every objective (`linalg.nonsingular_inverses`): the
        stacked `inv` comes first, a row whose Frobenius condition number,
        read from the squared norms of V and of that inverse, is well
        within the limit is accepted without an SVD, a row whose inverse
        is not finite (an exact zero pivot) is dropped, and only the
        finite rows left over take one.  The condition term is
        ||V||_F^2 + ||V^-1||_F^2, the sum of those two squared norms.  The
        normality term is Henrici's identity on the stacked loop
        M = V Lambda_R V^-1 (`assigned_departure_sq`, which falls back to
        the Schur form of M row by row on a nearly normal loop), the same
        identity `grad` differentiates.  At alpha = 1 the robustness term
        is the whole value: only the V block of L is applied, and no W or F
        is formed (F is None).  Below it, F = W V^-1 gives the gain term,
        added row by row as alpha robust + (1 - alpha) ||F||_F^2 in the
        float order of one row.
        """
        with np.errstate(all="ignore"):
            return self._points(X)

    def _points(self, X):
        """`points` without its error state."""
        n, k = self.sys.n, len(X)
        # at alpha = 1 only the V block is applied, and W is empty
        L = self.L_V if self.v_only else self.L
        VW = np.matmul(L, X[:, :, None]).reshape(k, len(L) // n, n)
        V, W = VW[:, :n], VW[:, n:]
        rows, Vi, sq_V, sq_Vi = _nonsingular_inverses(V, self.placer.tol)
        if len(rows) < k:
            V, W = V[rows], W[rows]
        F = None if self.v_only else W @ Vi
        if self.fixed is not None:
            return _Points(rows, [self.fixed] * len(rows), V, Vi, F)
        M = None
        if self.obj.method == "normality":
            M = V @ self.placer._real_jordan[0] @ Vi
            values = assigned_departure_sq(M, self.mass)
        elif self.obj.alpha > 0.0:
            values = (sq_V + sq_Vi).tolist()
        else:
            # condition at alpha = 0 is the gain alone: alpha * robust is
            # +0.0 for every finite robust term, so none is formed
            values = [0.0] * len(rows)
        if F is not None:
            values = [self._blend(r, f) for r, f in zip(values, F)]
        return _Points(rows, values, V, Vi, F, M)

    def point(self, x):
        """The evaluation at x, or None when V is singular: `points` on
        the one row x."""
        with np.errstate(all="ignore"):
            return self._point(x)

    def _point(self, x):
        """`point` without its error state."""
        pts = self._points(x[None])
        return pts.at(0) if pts.rows else None

    def grad(self, pt):
        """Exact gradient at an evaluated point.

        The robustness term's partial in V: for the condition method
        2 (V - V^-T V^-1 V^-T), the derivative of ||V||_F^2 + ||V^-1||_F^2;
        for the normality method, the identity `points` evaluates,
        delta_fro^2 = ||M||_F^2 - mass with M = V Lambda_R V^-1, whose
        differential 2 <M, (dV Lambda_R - M dV) V^-1> gives
        2 (P Lambda_R^T - M^T P) with P = M V^-T, M the point's own loop.
        At alpha = 1 that is the whole gradient, pulled back through the V
        block of L alone.  Below it, the gain term (1 - alpha) ||F||_F^2
        with F = W V^-1 and G = 2 (1 - alpha) F adds df/dW = G V^-T and
        df/dV = -F^T G V^-T, and both partials are pulled back through L.
        Not defined for an evaluator with a value fixed at K*: `minimize`
        does not search there.
        """
        alpha, V, Vi, F, M = self.obj.alpha, pt.V, pt.Vi, pt.F, pt.M
        if self.obj.method == "condition":
            dV = 2.0 * (V - Vi.T @ Vi @ Vi.T)
        else:
            P = M @ Vi.T
            dV = 2.0 * (P @ self.placer._real_jordan[0].T - M.T @ P)
        if self.v_only:
            return dV.ravel() @ self.L_V
        dW = 2.0 * (1.0 - alpha) * F @ Vi.T
        dV = alpha * dV - F.T @ dW
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
    (see `unique_parameter`), from the Schur form of A + B F*, as
    `minimize` evaluates it.  Elsewhere delta_fro^2 is evaluated as
    `minimize` evaluates it, by Henrici's identity on the loop
    V Lambda_R V^-1, which equals A + B F up to rounding.
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

    The probes are checked in stacked chunks (`_Evaluator._points`, in
    the restart's error state), the first one size probes long and each
    later one _MAX_STACK.  A chunk stops at _MAX_BACKTRACKS probes in all,
    and at the first probe after which the search would stop for
    roundoff: the Armijo threshold of the
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
        pts = evaluate._points(x + np.multiply.outer(steps, p))
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
            # one error state per restart; the evaluator's cores run in it
            with np.errstate(all="ignore"):
                for draws in range(1, _RESAMPLE_LIMIT + 1):
                    x0 = rng.standard_normal(sys.m * sys.n)
                    pt0 = evaluate._point(x0)
                    if pt0 is not None:
                        break
                else:
                    runs.append(
                        ((), float("inf"), "singular_start", _RESAMPLE_LIMIT))
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
