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


@dataclass
class FitResult:
    """Outcome of one solve.

    beta_hat : (d,) coefficient vector.
    active_set : sorted indices of the nonzero coefficients.
    residuals : y - X beta_hat.
    objective : solver-specific objective at beta_hat (see each solver).
    iterations : sweeps / iterations / pivots, depending on the solver.
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
    excess over both sets (0 at an exact optimum).
    """
    beta = np.asarray(beta, dtype=np.float64)
    w = np.broadcast_to(np.asarray(weights, dtype=np.float64), (data.d,))
    g = data.X.T @ (data.require_y() - data.X @ beta) / data.n
    active = beta != 0
    viol = 0.0
    if np.any(~active):
        viol = max(viol, float(np.max(np.abs(g[~active]) - w[~active], initial=-np.inf)))
    if np.any(active):
        viol = max(viol, float(np.max(np.abs(g[active] - np.sign(beta[active]) * w[active]))))
    return max(viol, 0.0)


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


def lla(data, penalty, init=None, tol=1e-8, max_outer=100, inner_tol=1e-10,
        inner_max_iter=20000):
    """Local linear approximation for the folded-concave penalties.

    Each outer round freezes weights w_j = P'(|b_j|) and solves the weighted
    L1 problem by coordinate descent, warm-started from the current iterate
    so the true penalized objective (tracked in objective_trace) never
    increases. From a zero start the first round is exactly the Lasso at the
    penalty's lam. Stops when the weight vector moves less than tol in sup
    norm, or after max_outer rounds. The fit counts as converged only when
    the weights settled and the last inner solve converged.
    """
    if penalty.family not in ("scad", "mcp"):
        raise ConfigurationError("the reweighted scheme needs a scad or mcp penalty")
    data.require_y()
    data.require_standardized("penalized solvers")
    if max_outer < 1:
        raise ConfigurationError("max_outer must be >= 1")
    if init is None:
        beta = np.zeros(data.d)
    else:
        beta = np.array(init, dtype=np.float64, copy=True)
        if beta.shape != (data.d,) or not np.all(np.isfinite(beta)):
            raise ValidationError("init must be a finite vector of length d")
    weights = penalty_derivative(penalty, np.abs(beta))
    trace = [penalized_objective(data, beta, penalty)]
    converged = False
    outer = 0
    for outer in range(1, max_outer + 1):
        fit = coord_descent_weighted_l1(
            data, weights, beta_init=beta, tol=inner_tol, max_iter=inner_max_iter
        )
        beta = fit.beta_hat
        trace.append(penalized_objective(data, beta, penalty))
        new_weights = penalty_derivative(penalty, np.abs(beta))
        if float(np.max(np.abs(new_weights - weights))) < tol:
            weights = new_weights
            converged = fit.converged
            break
        weights = new_weights
    return _finish(data, beta, trace[-1], outer, converged, trace=trace)


def best_subset_l0(data, lam):
    """Exact L0-penalized fit by exhausting supports (d <= 15).

    Minimizes ||y - X b||^2/(2n) + lam * |support| with an OLS refit on each
    support; supports are scanned by size then lexicographic order, and ties
    keep the first minimizer, so smaller supports win exact ties.
    """
    y = data.require_y()
    if data.d > BEST_SUBSET_MAX_D:
        raise SizeLimitError(
            "best_subset_l0 enumerates 2^d supports; d=%d exceeds the cap %d"
            % (data.d, BEST_SUBSET_MAX_D)
        )
    if not (np.isfinite(lam) and lam >= 0):
        raise ValidationError("lam must be finite and >= 0")
    X = data.X
    n = data.n
    best_obj = float(y @ y) / (2.0 * n)
    best_support = ()
    best_coef = np.zeros(0)
    count = 1
    for size in range(1, data.d + 1):
        for support in itertools.combinations(range(data.d), size):
            cols = X[:, support]
            coef, _, _, _ = np.linalg.lstsq(cols, y, rcond=None)
            r = y - cols @ coef
            obj = float(r @ r) / (2.0 * n) + lam * size
            count += 1
            if obj < best_obj:
                best_obj = obj
                best_support = support
                best_coef = coef
    beta = np.zeros(data.d)
    if best_support:
        beta[list(best_support)] = best_coef
    return _finish(data, beta, best_obj, count, True)


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
    gamma < |g_j| makes some b_i < 0, so the primal needs a phase 1. A is
    symmetric, so the dual is min b'lam s.t. -A lam <= 1, lam >= 0: its
    right-hand side is all ones and phase 1 never runs. x is read from the
    dual's row multipliers; iterations counts the dual's pivots, and
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


def _homotopy(X, y, levels):
    """Follow the exact Lasso path down through the descending `levels`.

    Between kinks the active coefficients are affine in lambda:
    beta_A(lam) = u - lam * delta with G u = X_A'y/n and G delta = s_A, where
    G = X_A'X_A/n is the active Gram matrix and s_A the active signs. The
    correlations follow c(lam) = c0 + lam * a with c0 = X'(y - X_A u)/n and
    a = X'X_A delta/n, so the next kink is the largest lambda below the
    current one at which an inactive |c_j| reaches lam or an active
    coefficient reaches zero.

    G^-1 is carried from kink to kink, with X_A and the right-hand sides
    [X_A'y/n, s_A]: it is bordered when a column enters and downdated by
    its Schur complement when one leaves, so a kink costs O(nk + k^2) on
    top of the O(nd) correlation update, with no O(k^3) solve. Round-off in
    the updated inverse shows up in lasso_path's certificate.

    Returns (betas, count, kinks, beta): rows [0, count) of betas hold the
    path at levels[:count]. When count is short of levels.size the walk
    stopped early, and beta is the solution where it stopped.
    """
    n, d = X.shape
    betas = np.zeros((levels.size, d))
    c = X.T @ y / n
    lam = float(np.max(np.abs(c)))
    count = int(np.count_nonzero(levels >= lam))
    beta = np.zeros(d)
    if count == levels.size:
        return betas, count, 0, beta
    j = int(np.argmax(np.abs(c)))
    active = [j]
    in_model = np.zeros(d, dtype=bool)
    in_model[j] = True
    # Columns [0, k) of XA are the active columns in the order of `active`,
    # rows [0, k) of rhs their [X_A'y/n, s_A], and Ginv is k x k.
    XA = np.empty((n, min(n, d)), order="F")
    XA[:, 0] = X[:, j]
    rhs = np.empty((min(n, d), 2))
    rhs[0] = c[j], np.sign(c[j])
    Ginv = np.array([[n / (X[:, j] @ X[:, j])]])
    fitted = np.empty((n, 2))
    roots = np.empty((2, d))
    changed = j
    kinks = 0
    # Round-off at a tie can put an event just above the current lambda; up
    # to this slack it is taken at the current lambda. The column that
    # changed last is never a candidate, so a step cannot undo the previous
    # one, and a missed event shows up in the certificate.
    slack = 1e-12 * lam
    max_kinks = 10 * min(n, d) + 10
    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            k = len(active)
            XAk = XA[:, :k]
            coef = Ginv @ rhs[:k]
            u, delta = coef.T
            # fitted = [y - X_A u, X_A delta], so X'fitted/n = [c0, a].
            np.dot(XAk, coef, out=fitted)
            np.subtract(y, fitted[:, 0], out=fitted[:, 0])
            c0, a = (X.T @ fitted).T / n

            np.divide(c0, 1.0 - a, out=roots[0])
            np.divide(-c0, 1.0 + a, out=roots[1])
            roots[~((roots > 0.0) & (roots <= lam + slack))] = -np.inf
            join = roots.max(axis=0)
            join[in_model] = -np.inf
            join[changed] = -np.inf
            leave = u / delta
            leave[~((leave > 0.0) & (leave <= lam + slack))] = -np.inf
            if in_model[changed]:
                leave[active.index(changed)] = -np.inf
            j_in = int(join.argmax())
            i_out = int(leave.argmax())
            nxt = min(max(float(join[j_in]), float(leave[i_out]), 0.0), lam)

            while count < levels.size and levels[count] >= nxt:
                betas[count, active] = u - levels[count] * delta
                count += 1
            if count == levels.size:
                break
            lam = nxt
            if kinks == max_kinks:
                break
            if leave[i_out] >= join[j_in]:
                # Without row and column i of G, the inverse is the rest of
                # Ginv less e e' / Ginv[i, i], e being column i of Ginv.
                i = i_out
                keep = np.arange(k) != i
                e = Ginv[keep, i]
                Ginv = Ginv[np.ix_(keep, keep)] - np.multiply.outer(e, e) / Ginv[i, i]
                XA[:, i:k - 1] = XA[:, i + 1:k]
                rhs[i:k - 1] = rhs[i + 1:k]
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
            w = Ginv @ (XAk.T @ xj) / n
            outside = xj - XAk @ w
            q = outside @ outside / n
            kinks += 1
            if not q >= _GRAM_PIVOT_FLOOR * (xj @ xj) / n:
                break
            grown = np.empty((k + 1, k + 1))
            ws = w / np.sqrt(q)
            np.multiply.outer(ws, ws, out=grown[:k, :k])
            grown[:k, :k] += Ginv
            grown[:k, k] = grown[k, :k] = -w / q
            grown[k, k] = 1.0 / q
            Ginv = grown
            XA[:, k] = xj
            rhs[k] = c[j_in], np.sign(c0[j_in] + lam * a[j_in])
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
    Tibshirani 2004; Osborne, Presnell & Turlach 2000). Works from X and
    that inverse only, so memory stays O(nd) on wide data.

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
    A polished point that still fails its certificate raises SolverError.
    Duplicate and unsorted grids are accepted; rows follow the given order.
    """
    y = data.require_y()
    data.require_standardized("penalized solvers")
    grid = _check_grid(lambda_grid)
    levels, where = np.unique(-grid, return_inverse=True)
    levels = -levels
    bound = PATH_KKT_TOL * max(1.0, float(np.linalg.norm(y)) / np.sqrt(data.n))
    betas, count, kinks, beta = _homotopy(data.X, y, levels)
    viol = np.empty(levels.size)
    polished = 0
    for i, lam in enumerate(levels):
        if i < count:
            viol[i] = kkt_violation(data, betas[i], lam)
            if viol[i] <= bound:
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
        try:
            train = standardize(Dataset(data.X[train_idx], y[train_idx], data.column_names))
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
