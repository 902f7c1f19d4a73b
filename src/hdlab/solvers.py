"""Sparse linear-model solvers sharing one result type.

Loss convention throughout: ||y - X b||^2 / (2n) plus the solver's own
regularizer. Penalized solvers (coordinate descent, proximal gradient, the
reweighted scheme) require standardized columns so one lambda means the same
thing for every coordinate; constraint-based and refit solvers do not.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .data import Dataset, is_int, standardize
from .errors import (
    ConfigurationError,
    DegenerateColumnError,
    SingularityError,
    SizeLimitError,
    SolverError,
    StepSizeError,
    ValidationError,
)
from .penalties import PenaltySpec, penalty_derivative, penalty_value, prox
from .simplex import linprog_simplex

BEST_SUBSET_MAX_D = 15
# dantzig_selector's dual tableau has 2d rows and 4d + 1 float64 columns,
# 64 d^2 + 16 d bytes: 64 MB at this cap, 256 MB at d = 2000. Its
# certificate's bounds follow (see dantzig_selector).
DANTZIG_MAX_D = 1000
_DANTZIG_DUAL_TOL = 1e-9
_DANTZIG_GAP_RTOL = 1e-9

# lasso_path: the bound on every returned point's KKT violation, relative
# to max(1, ||y||/sqrt(n)) (see lasso_path); the coordinate-descent
# tolerance for polished points, and the rounds of sweeps between their
# certificate checks; the smallest q / G_jj (see _homotopy) at which the
# active Gram matrix still counts as nonsingular.
PATH_KKT_TOL = 1e-9
_POLISH_TOL = 1e-12
_POLISH_SWEEPS = 100
_POLISH_ROUNDS = 200
_GRAM_PIVOT_FLOOR = 1e-14
# lla: the bound on an exact round's weighted KKT violation, on the same
# max(1, ||y||/sqrt(n)) scale (see _support_start).
_EXACT_KKT_TOL = 1e-12


@dataclass
class FitResult:
    """Outcome of one solve.

    beta_hat : (d,) coefficient vector.
    active_set : sorted indices of the nonzero coefficients.
    residuals : y - X beta_hat.
    objective : solver-specific objective at beta_hat (see each solver).
    iterations : sweeps / iterations / pivots, depending on the solver, or
        for best_subset_l0 the supports scanned (2^d).
    converged : whether the stopping rule fired before the iteration cap.
    objective_trace : per-iteration objective values where the solver tracks
        them (proximal gradient and the reweighted scheme), else None.
    """

    beta_hat: np.ndarray
    active_set: np.ndarray
    residuals: np.ndarray
    objective: float
    iterations: int
    converged: bool
    objective_trace: np.ndarray = None


def _finish(data, beta, objective, iterations, converged, trace=None):
    beta = np.asarray(beta, dtype=np.float64)
    residuals = data.y - data.X @ beta
    active = np.flatnonzero(beta)
    if trace is not None:
        trace = np.asarray(trace, dtype=np.float64)
    return FitResult(beta, active, residuals, float(objective), int(iterations),
                     bool(converged), trace)


def _quadratic_loss(data, beta):
    r = data.y - data.X @ beta
    return float(r @ r) / (2.0 * data.n)


def penalized_objective(data, beta, penalty):
    """||y - X b||^2/(2n) + sum_j P(|b_j|)."""
    return _quadratic_loss(data, beta) + float(np.sum(penalty_value(penalty, beta)))


def l0_objective(data, beta, lam):
    """||y - X b||^2/(2n) + lam * (number of nonzeros)."""
    return _quadratic_loss(data, beta) + lam * int(np.count_nonzero(beta))


def coord_descent_weighted_l1(data, weights, beta_init=None, tol=1e-10, max_iter=20000):
    """Cyclic coordinate descent for per-coordinate weighted L1.

    Minimizes ||y - X b||^2/(2n) + sum_j weights[j] |b_j| on standardized
    data. The `objective` field reports that weighted value.
    """
    y = data.require_y()
    data.require_standardized("penalized solvers")
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    if weights.shape != (data.d,):
        raise ValidationError("weights must have shape (%d,)" % data.d)
    if not np.all(np.isfinite(weights)) or np.any(weights < 0):
        raise ValidationError("weights must be finite and >= 0")
    if not (np.isfinite(tol) and tol > 0):
        raise ConfigurationError("tol must be positive")
    if max_iter < 1:
        raise ConfigurationError("max_iter must be >= 1")
    if beta_init is None:
        beta = np.zeros(data.d)
    else:
        beta = np.array(beta_init, dtype=np.float64, copy=True)
        if beta.shape != (data.d,) or not np.all(np.isfinite(beta)):
            raise ValidationError("beta_init must be a finite vector of length d")
    X_f = np.asfortranarray(data.X)
    y_c = np.ascontiguousarray(y)
    iters, converged = kernels.cd_weighted_l1(X_f, y_c, weights, beta, tol, max_iter)
    obj = _quadratic_loss(data, beta) + float(weights @ np.abs(beta))
    return _finish(data, beta, obj, iters, converged)


def coord_descent_l1(data, lam, beta_init=None, tol=1e-10, max_iter=20000):
    """Lasso by coordinate descent: all coordinates share the weight lam."""
    if not (np.isfinite(lam) and lam >= 0):
        raise ValidationError("lam must be finite and >= 0")
    return coord_descent_weighted_l1(
        data, np.full(data.d, float(lam)), beta_init=beta_init, tol=tol, max_iter=max_iter
    )


def kkt_violation(data, beta, weights):
    """Largest violation of the weighted-L1 stationarity conditions.

    For g = X'(y - X beta)/n the optimum satisfies |g_j| <= w_j on inactive
    coordinates and g_j = sign(beta_j) w_j on active ones; returns the max
    excess over both sets (0 at an exact optimum). A non-finite g, beta or
    weight gives inf, never NaN, so that `viol <= bound` fails on it.
    """
    beta = np.asarray(beta, dtype=np.float64)
    return float(_kkt_rows(data, beta[None, :], weights)[0])


def _kkt_rows(data, betas, weights):
    """kkt_violation() of each row of the (m, d) betas, with weights that
    broadcast against them: one X b and one X'r per row, so that each g has
    the bits of a single call, then one pass over the stack. A row with a
    non-finite entry reads inf without forming X b, where inf - inf would
    raise a floating-point warning."""
    y = data.require_y()
    g = np.full(betas.shape, math.inf)
    for i in np.flatnonzero(np.isfinite(betas).all(axis=1)):
        g[i] = data.X.T @ (y - data.X @ betas[i]) / data.n
    w = np.asarray(weights, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        viol = np.where(betas != 0, np.abs(g - np.sign(betas) * w), np.abs(g) - w)
    out = np.max(viol, axis=1, initial=0.0)
    out[~np.isfinite(viol).all(axis=1)] = math.inf
    return out


def largest_gram_eigenvalue(X, max_iter=500, tol=1e-12):
    """Top eigenvalue of X'X/n by power iteration (fixed internal seed)."""
    n, d = X.shape
    v = np.random.default_rng(0).standard_normal(d)
    nv = np.linalg.norm(v)
    if nv == 0.0:
        return 0.0
    v /= nv
    est = 0.0
    for _ in range(max_iter):
        w = X.T @ (X @ v) / n
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
        if abs(nw - est) <= tol * max(1.0, nw):
            return float(nw)
        est = nw
    return float(est)


def ista(data, penalty, step=None, tol=1e-10, max_iter=5000):
    """Proximal gradient for quadratic loss plus any supported penalty.

    The step must satisfy step <= 1/L with L the top eigenvalue of X'X/n
    (estimated internally; the default step is exactly 1/L). With an exact
    prox this makes the objective nonincreasing for every family, which is
    also tracked in objective_trace. A rising objective on the convex
    penalty raises StepSizeError.
    """
    y = data.require_y()
    data.require_standardized("penalized solvers")
    if not isinstance(penalty, PenaltySpec):
        raise ConfigurationError("penalty must be a PenaltySpec")
    if not (np.isfinite(tol) and tol > 0):
        raise ConfigurationError("tol must be positive")
    X = data.X
    n = data.n
    L = largest_gram_eigenvalue(X)
    if L == 0.0:
        obj = penalized_objective(data, np.zeros(data.d), penalty)
        return _finish(data, np.zeros(data.d), obj, 0, True, trace=[obj])
    if step is None:
        step = 1.0 / L
    else:
        if not (np.isfinite(step) and step > 0):
            raise StepSizeError("step must be finite and > 0")
        if step > (1.0 + 1e-6) / L:
            raise StepSizeError(
                "step %.3e exceeds 1/L = %.3e for this design" % (step, 1.0 / L)
            )

    beta = np.zeros(data.d)
    r = y.copy()
    obj = penalized_objective(data, beta, penalty)
    trace = [obj]
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        grad = -(X.T @ r) / n
        beta_new = prox(penalty, beta - step * grad, step)
        r = y - X @ beta_new
        new_obj = float(r @ r) / (2.0 * n) + float(np.sum(penalty_value(penalty, beta_new)))
        trace.append(new_obj)
        if penalty.family == "soft" and new_obj > obj + 1e-8 * (1.0 + abs(obj)):
            raise StepSizeError(
                "objective rose from %.6e to %.6e; step %.3e too large" % (obj, new_obj, step)
            )
        delta = float(np.max(np.abs(beta_new - beta)))
        beta = beta_new
        obj = new_obj
        if delta < tol * (1.0 + float(np.max(np.abs(beta)))):
            converged = True
            break
    return _finish(data, beta, obj, it, converged, trace=trace)


def _support_start(data, weights, beta, bound):
    """The weighted-L1 minimizer on the support and signs of beta, as a
    _homotopy start (active, signs, XA, F), or None.

    With A the support of beta and s_A its signs, solves
    G b_A = X_A'y/n - w_A * s_A, G = X_A'X_A/n, through one Cholesky
    factorization G = L L', which gives F = L^-T with F F' = G^-1. The
    solution is the minimizer only if its signs are s_A and it meets the
    weighted KKT conditions everywhere, so None unless sign(b_A) = s_A and
    kkt_violation(data, b, weights) <= bound. None also when the support
    has n or more columns (standardized columns are centered, so n of them
    have a singular Gram matrix), or when the factorization fails.
    """
    (n, d), A = data.X.shape, np.flatnonzero(beta)
    if A.size >= n:
        return None
    signs = np.sign(beta[A])
    XA = np.empty((n, min(n, d)), order="F")
    XA[:, :A.size] = data.X[:, A]
    try:
        L = np.linalg.cholesky(XA[:, :A.size].T @ XA[:, :A.size] / n)
    except np.linalg.LinAlgError:
        return None
    F = np.zeros((XA.shape[1],) * 2)
    Fk = F[:A.size, :A.size] = np.linalg.inv(L).T
    exact = np.zeros(d)
    exact[A] = Fk @ (Fk.T @ (XA[:, :A.size].T @ data.y / n - weights[A] * signs))
    if not (np.array_equal(np.sign(exact[A]), signs)
            and kkt_violation(data, exact, weights) <= bound):
        return None
    return A.tolist(), signs.tolist(), XA, F


def lla(data, penalty, init=None, tol=1e-8, max_outer=1000, inner_tol=1e-10,
        inner_max_iter=20000):
    """Local linear approximation for the folded-concave penalties.

    Each outer round freezes weights w_j = P'(|b_j|) and minimizes the
    weighted L1 problem, so the true penalized objective (tracked in
    objective_trace) never increases (Zou & Li 2008). The first round is
    coordinate descent from init, so from a zero start it is exactly the
    Lasso at the penalty's lam. A later round walks the exact solution from
    the previous round's weights to its own by _homotopy (Asif & Romberg
    2013), from where the previous walk ended, or after a round by
    coordinate descent from the exact solution on that round's support
    (_support_start). The round is coordinate descent warm-started from the
    current iterate instead when that start is refused, the walk stops
    early, or its end point's weighted KKT violation exceeds
    _EXACT_KKT_TOL * max(1, ||y||/sqrt(n)). Stops when the weight vector
    moves less than tol in sup norm, or after max_outer rounds. The fit
    counts as converged only when the weights settled and the last round
    was exact or its coordinate descent converged.
    """
    if penalty.family not in ("scad", "mcp"):
        raise ConfigurationError("the reweighted scheme needs a scad or mcp penalty")
    y = data.require_y()
    data.require_standardized("penalized solvers")
    if max_outer < 1:
        raise ConfigurationError("max_outer must be >= 1")
    # Checked here, since an exact round does not reach the inner solver.
    for name, value in (("tol", tol), ("inner_tol", inner_tol)):
        if not (np.isfinite(value) and value > 0):
            raise ConfigurationError("%s must be positive" % name)
    if inner_max_iter < 1:
        raise ConfigurationError("inner_max_iter must be >= 1")
    if init is None:
        beta = np.zeros(data.d)
    else:
        beta = np.array(init, dtype=np.float64, copy=True)
        if beta.shape != (data.d,) or not np.all(np.isfinite(beta)):
            raise ValidationError("init must be a finite vector of length d")
    bound = _EXACT_KKT_TOL * max(1.0, float(np.linalg.norm(y)) / np.sqrt(data.n))
    weights = penalty_derivative(penalty, np.abs(beta))
    trace = [penalized_objective(data, beta, penalty)]
    converged = False
    start = previous = None  # the exact solution at the previous weights
    outer = 0
    for outer in range(1, max_outer + 1):
        if outer > 1 and start is None:
            start = _support_start(data, previous, beta, bound)
        if start is not None:
            ends, count, _, _ = _homotopy(data.X, y, np.zeros(1), weights,
                                          previous - weights, start)
            if not (count and kkt_violation(data, ends[0], weights) <= bound):
                start = None
        if start is None:
            fit = coord_descent_weighted_l1(
                data, weights, beta_init=beta, tol=inner_tol, max_iter=inner_max_iter
            )
            beta, inner_converged = fit.beta_hat, fit.converged
        else:
            beta, inner_converged = ends[0], True
        trace.append(penalized_objective(data, beta, penalty))
        new_weights = penalty_derivative(penalty, np.abs(beta))
        if float(np.max(np.abs(new_weights - weights))) < tol:
            weights = new_weights
            converged = inner_converged
            break
        previous, weights = weights, new_weights
    return _finish(data, beta, trace[-1], outer, converged, trace=trace)


def _subset_forms(X, y, sizes):
    """Quadratic forms of y on the column subsets of X, by batched solves.

    Yields chunks of the subsets of each size in `sizes`, in
    itertools.combinations order, as (supports, G_S, q): the (k, size)
    indices, the Gram matrices X_S'X_S and q = g_S' G_S^-1 g_S for g = X'y.
    """
    G, g = X.T @ X, X.T @ y
    for size in sizes:
        combos = itertools.combinations(range(X.shape[1]), size)
        for _ in range(0, math.comb(X.shape[1], size), 65536):
            idx = np.array(list(itertools.islice(combos, 65536)), dtype=np.int64)
            Gs = G[idx[:, :, None], idx[:, None, :]]
            yield idx, Gs, _quadratic_forms(X, y, idx, Gs, g[idx])


def _quadratic_forms(X, y, idx, Gs, gs):
    """q = g_S' G_S^-1 g_S for each support of the batch, by one batched solve.

    When some G_S is singular the solve fails for the whole batch, so its
    halves are solved again; a support whose own G_S is singular takes
    q = ||X_S b||^2 by lstsq. The batched solve factors each G_S on its own,
    so a support keeps its bits in whichever batch it is solved.
    """
    try:
        return np.einsum("km,km->k", gs, np.linalg.solve(Gs, gs[:, :, None])[:, :, 0])
    except np.linalg.LinAlgError:
        if idx.shape[0] == 1:
            fit = X[:, idx[0]] @ np.linalg.lstsq(X[:, idx[0]], y, rcond=None)[0]
            return np.array([fit @ fit])
        h = idx.shape[0] // 2
        return np.concatenate([_quadratic_forms(X, y, idx[:h], Gs[:h], gs[:h]),
                               _quadratic_forms(X, y, idx[h:], Gs[h:], gs[h:])])


def best_subset_l0(data, lam):
    """Exact L0-penalized fit by exhausting supports (d <= 15).

    Minimizes ||y - X b||^2/(2n) + lam * |support| with an OLS refit on each
    support; supports are scanned by size then lexicographic order, and ties
    keep the first minimizer, so smaller supports win exact ties. Supports
    are ranked by (y'y - q)/(2n) + lam |S| from _subset_forms; the lstsq
    refit runs, in scan order, only on those ranked within 1e-8 y'y/(2n) of
    the best refit objective so far, and on those whose G_S has eigenvalues
    min <= 1e-8 max, where the ranking is not trusted.
    """
    y = data.require_y()
    if data.d > BEST_SUBSET_MAX_D:
        raise SizeLimitError(
            "best_subset_l0 enumerates 2^d supports; d=%d exceeds the cap %d"
            % (data.d, BEST_SUBSET_MAX_D)
        )
    if not (np.isfinite(lam) and lam >= 0):
        raise ValidationError("lam must be finite and >= 0")
    X, n = data.X, data.n
    yy = float(y @ y)
    best_obj = yy / (2.0 * n)
    slack = 1e-8 * best_obj
    best_support = best_coef = np.zeros(0, dtype=np.int64)
    for idx, Gs, q in _subset_forms(X, y, range(1, data.d + 1)):
        size = idx.shape[1]
        eig = np.linalg.eigvalsh(Gs)
        untrusted = eig[:, 0] <= 1e-8 * eig[:, -1]
        ranked = (yy - q) / (2.0 * n) + lam * size
        for k in np.flatnonzero(untrusted | (ranked <= best_obj + slack)):
            if untrusted[k] or ranked[k] <= best_obj + slack:
                cols = X[:, idx[k]]
                coef, _, _, _ = np.linalg.lstsq(cols, y, rcond=None)
                r = y - cols @ coef
                obj = float(r @ r) / (2.0 * n) + lam * size
                if obj < best_obj:
                    best_obj, best_support, best_coef = obj, idx[k], coef
    beta = np.zeros(data.d)
    beta[best_support] = best_coef
    return _finish(data, beta, best_obj, 2 ** data.d, True)


@dataclass(frozen=True)
class HighConfidenceSetSpec:
    """Constraint set {b : ||X'(y - X b)||_inf <= gamma_n} over a dataset."""

    dataset: Dataset
    gamma_n: float

    def __post_init__(self):
        self.dataset.require_y()
        if not (np.isfinite(self.gamma_n) and self.gamma_n >= 0):
            raise ValidationError("gamma_n must be finite and >= 0")


def default_gamma_n(data, scale=1.0):
    """Pilot constraint radius: scale * sd(y) * sqrt(2 n log(d)).

    HighConfidenceSetSpec bounds ||X'(y - X b)||_inf without dividing by n,
    so the usual sd * sqrt(2 log(d) / n) bound on X'r/n is taken times n.
    """
    y = data.require_y()
    if not (np.isfinite(scale) and scale > 0):
        raise ConfigurationError("scale must be positive")
    if data.n < 2:
        raise ValidationError("default gamma_n needs at least 2 rows")
    sigma = float(np.std(y, ddof=1))
    return scale * sigma * math.sqrt(2.0 * data.n * math.log(data.d))


def hcs_membership(spec, beta, rtol=1e-9):
    """Whether beta satisfies ||X'(y - X beta)||_inf <= gamma_n.

    A small relative tolerance absorbs round-off so the solver's own optimum
    always passes; assumes O(1) data scale.
    """
    data = spec.dataset
    beta = np.asarray(beta, dtype=np.float64)
    if beta.shape != (data.d,):
        raise ValidationError("beta must have shape (%d,)" % data.d)
    val = float(np.max(np.abs(data.X.T @ (data.y - data.X @ beta))))
    return val <= spec.gamma_n * (1.0 + rtol) + rtol


def dantzig_selector(spec):
    """Minimum-L1 point of the constraint set, via the dual simplex LP.

    In x = (beta+, beta-) >= 0 the Dantzig LP is min 1'x s.t. A x <= b, with
    G = X'X, g = X'y, A = [[G, -G], [-G, G]], b = [gamma + g; gamma - g]; any
    gamma < |g_j| makes some b_i < 0, where the slack basis is infeasible and
    the one-phase linprog_simplex refuses the LP. A is symmetric, so the dual
    is min b'lam s.t. -A lam <= 1, lam >= 0: its right-hand side is all
    ones, so the slack basis starts it. x is read from the dual's row
    multipliers; iterations counts the dual's pivots (5-10 on perfbench's
    screen_fit LPs at d = 66, which Bland's rule alone took 45-95), and
    objective is ||beta||_1.

    beta is returned only with a certificate, else SolverError is raised:
    primal feasibility within 1e-8 (1 + gamma); dual feasibility, lam >= 0
    and ||G (lam+ - lam-)||_inf <= 1, within _DANTZIG_DUAL_TOL; and a gap
    |b'lam + ||beta||_1| <= _DANTZIG_GAP_RTOL (||beta||_1 + |b|'lam).
    Raises SizeLimitError, before any allocation, when d > DANTZIG_MAX_D.
    """
    data = spec.dataset
    X, y = data.X, data.y
    d = data.d
    if d > DANTZIG_MAX_D:
        raise SizeLimitError(
            "dantzig_selector builds a 2d x (4d+1) simplex tableau; d=%d exceeds "
            "the cap %d: screen the columns first (hdlab screen, sis_select)"
            % (d, DANTZIG_MAX_D)
        )
    G = X.T @ X
    g = X.T @ y
    gamma = spec.gamma_n
    b = np.concatenate([gamma + g, gamma - g])
    try:
        lam, dual_obj, pivots, x = linprog_simplex(b, np.block([[-G, G], [G, -G]]),
                                                   np.ones(2 * d))
    except SolverError as exc:
        raise SolverError("dantzig LP failed: %s" % exc)
    beta = x[:d] - x[d:]
    slack = float(np.max(np.abs(X.T @ (y - X @ beta)))) - gamma
    if slack > 1e-8 * (1.0 + gamma):
        raise SolverError(
            "simplex returned an infeasible point: constraint excess %.3e" % slack
        )
    dual_excess = max(-float(np.min(lam)),
                      float(np.max(np.abs(G @ (lam[:d] - lam[d:])))) - 1.0)
    if dual_excess > _DANTZIG_DUAL_TOL:
        raise SolverError(
            "simplex returned an infeasible dual point: constraint excess %.3e"
            % dual_excess
        )
    obj = float(np.sum(np.abs(beta)))
    gap = abs(dual_obj + obj)
    if gap > _DANTZIG_GAP_RTOL * (obj + float(np.abs(b) @ lam)):
        raise SolverError(
            "dantzig duality gap %.3e exceeds its bound (||beta||_1 = %.6g)" % (gap, obj)
        )
    return _finish(data, beta, obj, pivots, True)


def _support_indices(support, d, what="support"):
    """Sorted unique column indices from `support`, each in [0, d).

    Any sequence of integers is accepted, the empty one included. A boolean
    mask or a float array raises ValidationError instead of being cast to
    indices (a mask would turn into columns 0 and 1, 2.9 into column 2).
    """
    arr = np.asarray(support)
    if arr.size == 0:
        return np.empty(0, dtype=np.int64)
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValidationError("%s indices must be integers, not %s" % (what, arr.dtype))
    idx = np.unique(arr.astype(np.int64))
    if idx[0] < 0 or idx[-1] >= d:
        raise ValidationError("%s indices outside [0, %d)" % (what, d))
    return idx


def _support_lstsq(X, y, support):
    """Least squares of y on the columns X[:, support], for checked indices.

    Returns (those columns, their coefficients). Raises SingularityError
    when the support has more columns than X has rows, or when the columns
    are not of full rank.
    """
    if support.size > X.shape[0]:
        raise SingularityError(
            "support of size %d cannot be refit on %d rows" % (support.size, X.shape[0])
        )
    cols = X[:, support]
    coef, _, rank, _ = np.linalg.lstsq(cols, y, rcond=None)
    if rank < support.size:
        raise SingularityError("design restricted to the support is rank deficient")
    return cols, coef


def ols_refit(data, support):
    """Least squares on the given support, zeros elsewhere.

    Requires X restricted to the support to have full column rank; raises
    SingularityError otherwise. objective is the quadratic loss.
    """
    y = data.require_y()
    support = _support_indices(support, data.d)
    _, coef = _support_lstsq(data.X, y, support)
    beta = np.zeros(data.d)
    beta[support] = coef
    return _finish(data, beta, _quadratic_loss(data, beta), 1, True)


@dataclass
class LassoPath:
    """Lasso solutions along a lambda grid, each with its certificate.

    betas : (m, d) solution at each grid point, in the order the grid was
        given.
    kkt_violation : (m,) kkt_violation() of each row; every entry is at most
        PATH_KKT_TOL * max(1, ||y||/sqrt(n)).
    kinks : breakpoints the homotopy crossed (a column entering or leaving).
    polished : distinct grid values solved by coordinate descent, either
        because the homotopy point failed its certificate or because the
        homotopy stopped above them.
    """

    betas: np.ndarray
    kkt_violation: np.ndarray
    kinks: int
    polished: int


def _check_grid(lambda_grid):
    grid = np.asarray(lambda_grid, dtype=np.float64)
    if grid.ndim != 1 or grid.size == 0 or not np.all(np.isfinite(grid)) or np.any(grid < 0):
        raise ConfigurationError("lambda_grid must be a nonempty vector of finite values >= 0")
    return grid


def _homotopy(X, y, levels, base=None, slope=None, start=None):
    """Follow the exact weighted-Lasso path down through the descending `levels`.

    The weights at level s are w(s) = base + s * slope; the defaults, 0 and
    1, give the Lasso path in s = lambda. Between kinks the active
    coefficients are affine in s: beta_A(s) = u - s * delta with
    G u = X_A'y/n - s_A * base_A and G delta = s_A * slope_A, where
    G = X_A'X_A/n is the active Gram matrix and s_A the active signs. The
    correlations follow c(s) = c0 + s * a with c0 = X'(y - X_A u)/n and
    a = X'X_A delta/n, so the next kink is the largest s below the current
    one at which an active coefficient reaches zero or an inactive c_j
    reaches sigma w_j(s), at (c0_j - sigma base_j) / (sigma slope_j - a_j).

    G^-1 is carried as a factor F with F F' = G^-1, with X_A and the
    right-hand sides [X_A'y/n - s_A * base_A, s_A * slope_A], so u and
    delta are F (F' rhs). When a column enters, F gains one row of zeros and
    one column, O(k) writes; when one leaves, F loses its row and one
    Householder reflection folds that row into a last column, which is
    dropped, O(k^2). So a kink costs O(nk + k^2) on top of the O(nd)
    correlation update, with no O(k^3) solve and no k x k update on a join.
    Round-off in F shows up in the callers' certificates.

    The walk begins at the empty set at lam_max = max|X'y|/n, or at s = 1
    from start = (active, signs, XA, F), the exact solution at w(1) as
    _support_start builds it; start is then left where the walk ended.

    Returns (betas, count, kinks, beta): rows [0, count) of betas hold the
    path at levels[:count]. When count is short of levels.size the walk
    stopped early, and beta is the solution where it stopped.
    """
    n, d = X.shape
    m = min(n, d)
    betas = np.zeros((levels.size, d))
    c = X.T @ y / n
    beta = np.zeros(d)
    # (c0 - sbase) / (sslope - a) holds both roots of c0 + s a = +-w(s); on
    # the Lasso path, with no base, they are c0 / (signs - a).
    signs = np.array([[1.0], [-1.0]])
    if base is None:
        base, slope, sbase, sslope = np.zeros(d), np.ones(d), None, signs
    else:
        sbase, sslope = signs * base, signs * slope
    if start is None:
        lam = float(np.max(np.abs(c)))
        count = int(np.count_nonzero(levels >= lam))
        if count == levels.size:
            return betas, count, 0, beta
        j = int(np.argmax(np.abs(c)))
        active, sgn = [j], [float(np.sign(c[j]))]
        XA = np.empty((n, m), order="F")
        XA[:, 0] = X[:, j]
        F = np.zeros((m, m))
        F[0, 0] = math.sqrt(n / (X[:, j] @ X[:, j]))
        changed = j
    else:
        active, sgn, XA, F = start
        lam, count, changed = 1.0, 0, None
    in_model = np.zeros(d, dtype=bool)
    in_model[active] = True
    # Columns [0, k) of XA are the active columns in the order of `active`,
    # rows [0, k) of rhs their right-hand sides, and F[:k, :k] the factor;
    # row k of F is zero up to column k.
    rhs = np.empty((m, 2))
    rhs[:len(active), 0] = c[active] - np.multiply(sgn, base[active])
    rhs[:len(active), 1] = np.multiply(sgn, slope[active])
    fitted = np.empty((n, 2))
    kinks = 0
    # Round-off at a tie can put an event just above the current level; up
    # to this slack it is taken at the current level. The column that
    # changed last is never a candidate, so a step cannot undo the previous
    # one (a column that entered last is last in `active`), and a missed
    # event shows up in the certificate. An event at or below 0 may stay a
    # candidate: nxt then reads 0, which ends the walk.
    slack = 1e-12 * lam
    max_kinks = 10 * m + 10
    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            k = len(active)
            XAk, Fk = XA[:, :k], F[:k, :k]
            coef = Fk @ (Fk.T @ rhs[:k])
            u, delta = coef.T
            # fitted = [y - X_A u, X_A delta], so X'fitted/n = [c0, a].
            np.dot(XAk, coef, out=fitted)
            np.subtract(y, fitted[:, 0], out=fitted[:, 0])
            c0, a = fitted.T @ X / n

            roots = (c0 if sbase is None else c0 - sbase) / (sslope - a)
            join = np.where(roots <= lam + slack, roots, -np.inf).max(axis=0)
            join[in_model] = -np.inf
            leave = u / delta
            leave = np.where(leave <= lam + slack, leave, -np.inf)
            if changed is not None:
                join[changed] = -np.inf
                if in_model[changed]:
                    leave[-1] = -np.inf
            j_in = int(join.argmax())
            i_out = int(leave.argmax()) if k else 0
            out = float(leave[i_out]) if k else -math.inf
            nxt = min(max(float(join[j_in]), out, 0.0), lam)

            while count < levels.size and levels[count] >= nxt:
                betas[count, active] = u - levels[count] * delta
                count += 1
            if count == levels.size:
                break
            lam = nxt
            if kinks == max_kinks:
                break
            if out >= join[j_in]:
                # Without row and column i of G the inverse is
                # F_i (I - t t'/t't) F_i', F_i being F less its row i and t
                # that row. The reflection H = I - 2 v v'/v'v with
                # v = t + sign(t_k) |t| e_k takes t onto e_k, so the new
                # factor is F_i H less its last column.
                i = i_out
                v = F[i, :k].copy()
                F[i:k - 1, :k] = F[i + 1:k, :k]
                F[k - 1, :k] = 0.0
                v[-1] += math.copysign(math.sqrt(v @ v), v[-1])
                Fk = F[:k - 1, :k]
                Fk -= np.multiply.outer(Fk @ v, v * (2.0 / (v @ v)))
                XA[:, i:k - 1] = XA[:, i + 1:k]
                rhs[i:k - 1] = rhs[i + 1:k]
                del sgn[i]
                changed = active.pop(i)
                in_model[changed] = False
                kinks += 1
                continue
            if k + 1 >= n:
                break
            # Bordering: with w = G^-1 X_A'x_j/n, the part of x_j outside the
            # span of the active columns is x_j - X_A w, and q, its squared
            # norm over n, is the Schur complement of G in the grown Gram
            # matrix. q is taken from that vector, not as G_jj - b'w: through
            # G alone q drowns in round-off as it nears 0, and a
            # near-duplicate column would enter with a huge coefficient. A
            # q below the floor means the grown G is numerically singular.
            xj = X[:, j_in]
            w = Fk @ (Fk.T @ (XAk.T @ xj)) / n
            outside = xj - XAk @ w
            q = outside @ outside / n
            kinks += 1
            if not q >= _GRAM_PIVOT_FLOOR * (xj @ xj) / n:
                break
            # The grown inverse is G^-1 + w w'/q bordered by -w/q and 1/q,
            # which is F bordered by a row of zeros and [-w; 1]/sqrt(q).
            root = math.sqrt(q)
            F[:k, k] = w / -root
            F[k, k] = 1.0 / root
            XA[:, k] = xj
            sigma = math.copysign(1.0, c0[j_in] + lam * a[j_in])
            rhs[k] = c[j_in] - sigma * base[j_in], sigma * slope[j_in]
            sgn.append(sigma)
            active.append(j_in)
            in_model[j_in] = True
            changed = j_in
    if count < levels.size:
        beta[active] = u - lam * delta
    return betas, count, kinks, beta


def _polish(data, lam, beta, bound):
    """Warm-started coordinate descent at lam until it converges or beta
    meets the KKT bound, checked every _POLISH_SWEEPS sweeps.

    On near-duplicate columns coordinate descent drifts for thousands of
    sweeps along a direction in which the objective hardly changes, long
    after the certificate holds; the check ends that drift.
    """
    for _ in range(_POLISH_ROUNDS):
        fit = coord_descent_l1(data, lam, beta_init=beta, tol=_POLISH_TOL,
                               max_iter=_POLISH_SWEEPS)
        beta = fit.beta_hat
        if fit.converged or kkt_violation(data, beta, lam) <= bound:
            break
    return beta


def lasso_path(data, lambda_grid):
    """Exact Lasso solutions on a lambda grid by the homotopy (LARS-Lasso).

    Follows the solution of ||y - X b||^2/(2n) + lam ||b||_1 down from
    lam_max = max|X'y|/n, updating the inverse of the active Gram matrix at
    every kink where a column enters or leaves (Efron, Hastie, Johnstone &
    Tibshirani 2004; Osborne, Presnell & Turlach 2000). The inverse is
    carried as a factor F F' (see _homotopy): O(k) to grow by a column, one
    Householder step to drop one. Works from X and that factor only, so
    memory stays O(nd) on wide data. The path is the weight walk of
    _homotopy with all weights equal to lambda, the engine lla's rounds use.

    Each grid point is certified by kkt_violation() against the bound
    PATH_KKT_TOL * max(1, ||y||/sqrt(n)). Round-off in X'(y - X b)/n grows
    with the size of y, so the bound follows the root mean square of y once
    it exceeds 1 (a response in raw units, or with a large mean, would
    otherwise fail at every point). A point above the bound is polished by
    warm-started coordinate descent, which stops once it converges or the
    point meets the bound (at most 20,000 sweeps). The homotopy stops when
    the active set would reach n columns, when the active Gram matrix is
    numerically singular, or after 10 * min(n, d) + 10 kinks; the grid
    points below are then solved the same way, warm-started down the grid.
    A polished point that still fails its certificate, or a non-finite
    point, raises SolverError.
    Duplicate and unsorted grids are accepted; rows follow the given order.
    """
    y = data.require_y()
    data.require_standardized("penalized solvers")
    grid = _check_grid(lambda_grid)
    levels, where = np.unique(-grid, return_inverse=True)
    levels = -levels
    bound = PATH_KKT_TOL * max(1.0, float(np.linalg.norm(y)) / np.sqrt(data.n))
    betas, count, kinks, beta = _homotopy(data.X, y, levels)
    if count < levels.size and not np.all(np.isfinite(beta)):
        # The points below are polished from this one: no start for them.
        raise SolverError("lasso_path: the homotopy stopped at a non-finite point "
                          "above lambda=%.6g" % levels[count])
    viol = np.empty(levels.size)
    viol[:count] = _kkt_rows(data, betas[:count], levels[:count, None])
    polished = 0
    for i, lam in enumerate(levels):
        if i < count:
            # A non-finite point (viol inf) is no start for coordinate
            # descent; it is left for the check below to refuse.
            if viol[i] <= bound or viol[i] == math.inf:
                continue
            betas[i] = _polish(data, lam, betas[i], bound)
        else:
            beta = betas[i] = _polish(data, lam, beta, bound)
        viol[i] = kkt_violation(data, betas[i], lam)
        polished += 1
    if np.any(viol > bound):
        i = int(np.argmax(viol))
        raise SolverError(
            "lasso_path: KKT violation %.3e above %.3e at lambda=%.6g after "
            "coordinate descent" % (viol[i], bound, levels[i])
        )
    return LassoPath(betas[where], viol[where], kinks, polished)


def cross_validate(data, lambda_grid, folds, seed, solver=None):
    """K-fold cross-validation over a lambda grid.

    Folds come from a seeded permutation split (np.array_split order). Each
    training fold goes through standardize(), so the solvers' contract holds
    within it; the held-out rows are mapped with the fold's transform and
    predicted as the training mean of y plus X beta. Returns (lambda_star,
    cv_curve) where cv_curve is the pooled held-out mean squared error
    aligned with lambda_grid, and lambda_star is the largest lambda
    attaining the minimum.

    With solver=None each fold runs one exact Lasso path (lasso_path) over
    the whole grid. Otherwise `solver` is a handle taking (train_dataset,
    lam, beta_init) and returning a FitResult; the grid is then traversed
    from largest to smallest lambda with beta_init the previous fit (None
    first), a warm start the handle may ignore (the CLI's do: for lla it
    would change the estimate). A fit reporting converged=False raises
    SolverError.
    """
    y = data.require_y()
    grid = _check_grid(lambda_grid)
    if not is_int(folds) or folds < 2:
        raise ConfigurationError("folds must be an integer >= 2")
    if folds > data.n:
        raise ConfigurationError("more folds than rows")

    perm = np.random.default_rng(seed).permutation(data.n)
    chunks = np.array_split(perm, folds)
    if min(len(ch) for ch in chunks) < 2:
        raise ConfigurationError("every fold needs at least 2 rows")
    order = np.argsort(-grid, kind="stable")
    sq_err = np.zeros(grid.size)
    for i, test_idx in enumerate(chunks):
        train_idx = np.concatenate([chunks[k] for k in range(folds) if k != i])
        try:  # a row subset of a checked Dataset: X is not rescanned
            train = standardize(Dataset._from_finite(data.X[train_idx], y[train_idx],
                                                     data.column_names))
        except DegenerateColumnError as exc:
            raise ConfigurationError("%s within a training fold" % exc) from None
        x_mean, x_sd, y_mean = train.transform
        Xte = (data.X[test_idx] - x_mean) / x_sd
        yte = y[test_idx] - y_mean
        if solver is None:
            path = lasso_path(train, grid).betas
        beta = None
        for idx in order:
            if solver is None:
                beta = path[idx]
            else:
                fit = solver(train, float(grid[idx]), beta)
                if not fit.converged:
                    raise SolverError(
                        "cross_validate: the fit at lambda=%.6g in fold %d of %d "
                        "did not converge" % (grid[idx], i + 1, folds)
                    )
                beta = fit.beta_hat
            resid = yte - Xte @ beta
            sq_err[idx] += float(resid @ resid)
    cv_curve = sq_err / data.n
    at_min = np.flatnonzero(cv_curve == cv_curve.min())
    lambda_star = float(grid[at_min].max())
    return lambda_star, cv_curve
