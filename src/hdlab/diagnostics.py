"""Diagnostics for wide data: spurious correlation, variance estimation,
and residual-based exogeneity checks.

The spurious-correlation tools quantify how strongly pure noise columns can
mimic signal: the best single correlate of a target column, and the best
multiple correlation achievable by a small subset. These, the endogeneity
null and the overid moments all use the one correlation routine of data, so
the subset-size-1 multiple correlation equals the single-column statistic.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, _centered, _corr_columns, is_int
from .errors import (
    ConfigurationError,
    SelectionTooLargeError,
    SizeLimitError,
    UndefinedCorrelationError,
    ValidationError,
)
from .solvers import _support_indices, _support_lstsq

EXACT_SUBSET_CAP = 1_000_000

# Candidate columns whose residual norm (after projection on the already
# selected ones) falls below this relative floor are treated as collinear
# and skipped by greedy selection.
_COLLINEAR_EPS = 1e-12

# Greedy selection recomputes a candidate from its column once its updated
# squared residual norm is at most this fraction of its original one.
_GREEDY_GUARD = 1e-4


@dataclass(frozen=True)
class SpuriousCorrelationReport:
    """r_hat: best |single-column correlation| with the target;
    R_hat: best multiple correlation over subsets of the given size;
    subset: 0-based column indices realizing R_hat; method: greedy|exact."""

    r_hat: float
    R_hat: float
    subset: np.ndarray
    method: str


@dataclass(frozen=True)
class VarianceEstimate:
    sigma2_hat: float
    method: str
    support_size: int


@dataclass(frozen=True)
class EndogeneityReport:
    """raw_correlations: per-column correlation with the residuals;
    permuted_correlations: the same under row-permuted designs, pooled;
    tail_statistic: KS distance between raw and pooled null;
    permutations: number of permutations B;
    null_tail_statistics: per-permutation KS distances against the other
    permutations, giving a reference distribution for tail_statistic."""

    raw_correlations: np.ndarray
    permuted_correlations: np.ndarray
    tail_statistic: float
    permutations: int
    null_tail_statistics: np.ndarray

    def null_quantile(self, q=0.95):
        return float(np.quantile(self.null_tail_statistics, q))

    def flagged(self, q=0.95):
        """True when the raw tail statistic exceeds the null q-quantile."""
        return bool(self.tail_statistic > self.null_quantile(q))


@dataclass(frozen=True)
class OveridReport:
    """Per selected column j: correlation of X_j and of X_j^2 with the
    residuals. Both should be near zero under a correctly specified
    exogenous model."""

    selected: np.ndarray
    corr_x: np.ndarray
    corr_x2: np.ndarray


def max_spurious_corr(data):
    """Largest |correlation| between column 0 and any other column."""
    return max_multiple_corr(data, 1).r_hat


def _orth_residuals(V, Q):
    """V minus its projection on the orthonormal columns of Q; Gram-Schmidt
    twice keeps it orthogonal to Q when most of V lies in their span."""
    for _ in range(2):
        V = V - Q @ (Q.T @ V)
    return V


def _greedy_indices(centered, size):
    """Forward selection of `size` columns of C maximizing multiple
    correlation with t, given _centered(C, t). Returns (picks in order, R).

    Each step picks the largest gain dots_j^2 / res_j: res_j is the squared
    norm of column j's residual after projection on the picks, dots_j its
    product with t's residual. A new basis vector q is orthogonal to the
    earlier ones, so q'C_res = q'C, and one product s = q'C updates res -=
    s^2 and dots -= (q't_res) s; C is not modified. A candidate whose res_j
    has fallen to _GREEDY_GUARD of its original value, where the subtraction
    loses digits, is recomputed from its column.
    """
    C, tres, orig_sq, t_sq = centered
    Q = np.empty((C.shape[0], size))
    res_sq = orig_sq.copy()
    dots = C.T @ tres
    live = np.ones(C.shape[1], dtype=bool)
    picked = []
    proj_sq = 0.0
    for step in range(size):
        basis = Q[:, :step]
        low = np.flatnonzero(live & (res_sq <= _GREEDY_GUARD * orig_sq))
        if low.size:
            resid = _orth_residuals(C[:, low], basis)
            res_sq[low] = np.einsum("ij,ij->j", resid, resid)
            dots[low] = resid.T @ tres
        # A residual norm never grows, so a collinear column stays collinear.
        live &= res_sq > _COLLINEAR_EPS * orig_sq
        if not np.any(live):
            break
        gains = np.where(live, dots * dots / np.where(live, res_sq, 1.0), -np.inf)
        j = int(np.argmax(gains))
        r = _orth_residuals(C[:, j], basis)
        q = r / math.sqrt(r @ r)
        Q[:, step] = q
        coef = float(q @ tres)
        proj_sq += coef * coef
        tres = tres - coef * q
        s = q @ C
        res_sq -= s * s
        dots -= coef * s
        live[j] = False
        picked.append(j)
    R = math.sqrt(proj_sq) / math.sqrt(t_sq)
    return picked, float(min(1.0, R))


def _exact_best_subset_r(centered, size):
    """Exhaustive multiple correlation of subsets of C with t, given _centered(C, t)."""
    Cc, tc, _, tt = centered
    p = Cc.shape[1]
    count = math.comb(p, size)
    if count > EXACT_SUBSET_CAP:
        raise SizeLimitError(
            "exact search over %d subsets exceeds the cap %d; use method='greedy'"
            % (count, EXACT_SUBSET_CAP)
        )
    G = Cc.T @ Cc
    g = Cc.T @ tc
    best_r2 = -1.0
    best = None
    combos = itertools.combinations(range(p), size)
    chunk = 65536
    while True:
        idx = np.array(list(itertools.islice(combos, chunk)), dtype=np.int64)
        if idx.size == 0:
            break
        Gs = G[idx[:, :, None], idx[:, None, :]]
        gs = g[idx]
        try:
            sol = np.linalg.solve(Gs, gs[:, :, None])[:, :, 0]
            r2 = np.einsum("km,km->k", gs, sol) / tt
        except np.linalg.LinAlgError:
            r2 = np.empty(idx.shape[0])
            for k in range(idx.shape[0]):
                coef, _, _, _ = np.linalg.lstsq(Cc[:, idx[k]], tc, rcond=None)
                fit = Cc[:, idx[k]] @ coef
                r2[k] = float(fit @ fit) / tt
        k = int(np.argmax(r2))
        if r2[k] > best_r2:
            best_r2 = float(r2[k])
            best = idx[k]
    r = math.sqrt(min(max(best_r2, 0.0), 1.0))
    return list(best), r


def max_multiple_corr(data, subset_size, method="greedy"):
    """Best (multiple) correlation between column 0 and subsets of the rest.

    subset_size=1 reduces to max_spurious_corr through the identical
    correlation routine, so the two statistics agree exactly. For larger
    subsets, method "greedy" runs forward selection and "exact" enumerates
    all subsets (capped at one million). Reported subset indices refer to
    the original columns of X (so they start at 1).
    """
    if data.d < 2:
        raise ValidationError("need at least 2 columns")
    if not 1 <= subset_size <= data.d - 1:
        raise ConfigurationError("subset_size must lie in [1, d-1]")
    if method not in ("greedy", "exact"):
        raise ConfigurationError("method must be 'greedy' or 'exact'")
    centered = _centered(data.X[:, 1:], data.X[:, 0])
    corr = _corr_columns(centered)
    r_hat = float(np.max(np.abs(corr)))
    if subset_size == 1:
        j = int(np.argmax(np.abs(corr)))
        return SpuriousCorrelationReport(
            r_hat, r_hat, np.array([j + 1], dtype=np.int64), method
        )
    if method == "greedy":
        picked, R = _greedy_indices(centered, subset_size)
    else:
        picked, R = _exact_best_subset_r(centered, subset_size)
        # The best singleton expands to a feasible subset, so r_hat is a
        # valid lower bound; flooring shields the R_hat >= r_hat guarantee
        # from the different rounding of the Gram-solve route.
        R = max(R, r_hat)
    subset = np.array(sorted(j + 1 for j in picked), dtype=np.int64)
    return SpuriousCorrelationReport(r_hat, R, subset, method)


def greedy_spurious_support(data, size):
    """Columns of X greedily selected to correlate with the response.

    This is the forward-selection machinery of max_multiple_corr aimed at y;
    on a null model it returns the support that most flatters the fit.
    """
    y = data.require_y()
    if not 1 <= size <= data.d:
        raise ConfigurationError("size must lie in [1, d]")
    picked, _ = _greedy_indices(_centered(data.X, y), size)
    return np.array(sorted(picked), dtype=np.int64)


def residual_variance(data, support):
    """Plug-in noise variance: RSS/(n - |S|) after OLS on the support.

    Understates the truth badly when the support was dredged from the same
    data; see rcv_variance for the refitted alternative.
    """
    y = data.require_y()
    support = _support_indices(support, data.d)
    if support.size >= data.n:
        raise ValidationError("support size must be smaller than n")
    cols, coef = _support_lstsq(data.X, y, support)
    r = y - cols @ coef
    sigma2 = float(r @ r) / (data.n - support.size)
    return VarianceEstimate(sigma2, "naive", int(support.size))


def rcv_variance(data, selector, seed):
    """Refitted cross-validation variance estimate.

    The rows are split in half at random; each half selects a support via
    `selector` (a callable Dataset -> indices), the variance is estimated by
    OLS refit of that support on the *other* half, and the two estimates are
    averaged. Selection and estimation never see the same rows, which removes
    the dredging bias of residual_variance.
    """
    y = data.require_y()
    if data.n < 4:
        raise ValidationError("rcv needs at least 4 rows")
    perm = np.random.default_rng(seed).permutation(data.n)
    half = data.n // 2
    parts = (perm[:half], perm[half:])
    estimates = []
    sizes = []
    # Both halves are row subsets of a checked Dataset, so X is not rescanned.
    for own, other in ((0, 1), (1, 0)):
        sel_idx = parts[own]
        fit_idx = parts[other]
        sel_ds = Dataset._from_finite(data.X[sel_idx], y[sel_idx])
        support = _support_indices(selector(sel_ds), data.d, "selector returned")
        if support.size >= fit_idx.size:
            raise SelectionTooLargeError(
                "selected %d columns but the refit half has only %d rows"
                % (support.size, fit_idx.size)
            )
        # Refit only the support's columns; a Dataset needs at least one.
        cols = support if support.size else np.arange(1)
        fit_ds = Dataset._from_finite(data.X[np.ix_(fit_idx, cols)], y[fit_idx])
        estimates.append(residual_variance(fit_ds, np.arange(support.size)).sigma2_hat)
        sizes.append(int(support.size))
    return VarianceEstimate(0.5 * (estimates[0] + estimates[1]), "rcv", max(sizes))


def _tie_runs(s, starts=0):
    """(first, end) of the run of equal values holding each entry of s: the
    counts of entries < and <= it, which searchsorted's "left" and "right"
    sides return. s is sorted, or sorted within segments that begin at the
    indices `starts`. -0.0 ties with 0.0, and the NaNs, which sort last,
    form one run, as in searchsorted."""
    new = np.empty(s.size + 1, dtype=bool)
    np.not_equal(s[1:], s[:-1], out=new[1:-1])
    new[1:-1] &= s[:-1] == s[:-1]
    new[starts] = True
    new[-1] = True
    bounds = np.flatnonzero(new)
    lengths = np.diff(bounds)
    return np.repeat(bounds[:-1], lengths), np.repeat(bounds[1:], lengths)


def ks_distance(a, b):
    """Two-sample Kolmogorov-Smirnov distance sup_x |F_a(x) - F_b(x)|.

    The sup is taken over the points of both samples. Each sample's count
    of values <= its own points is the end of their tie run; only the other
    sample's points are searched.
    """
    a = np.sort(np.asarray(a, dtype=np.float64).ravel())
    b = np.sort(np.asarray(b, dtype=np.float64).ravel())
    if a.size == 0 or b.size == 0:
        raise ValidationError("ks_distance needs nonempty samples")
    fa = np.concatenate([_tie_runs(a)[1], np.searchsorted(a, b, side="right")]) / a.size
    fb = np.concatenate([np.searchsorted(b, a, side="right"), _tie_runs(b)[1]]) / b.size
    return float(np.max(np.abs(fa - fb)))


def _residuals(data, fit):
    """The residual vector of `fit` (a FitResult, or the vector itself)."""
    resid = np.asarray(getattr(fit, "residuals", fit), dtype=np.float64)
    if resid.shape != (data.n,):
        raise ValidationError("residuals must have shape (%d,)" % data.n)
    return resid


def endogeneity_diagnostic(data, fit, permutations, seed):
    """Compare residual correlations against a row-permutation null.

    Correlates each column with the residuals r of `fit` (a FitResult or a
    vector), and again with the rows permuted for B permutations. As
    corr(X[rows_b], r) = corr(X, s_b) with s_b[rows_b] = r, the B vectors s_b
    form one n x B target, so the null centers X once, not B times, and
    copies no rows. tail_statistic is the KS distance between raw and pooled
    permuted correlations; each entry of null_tail_statistics is one
    permutation's against the others, so `flagged()` compares the statistic
    to its own null. One sort of the pool serves the whole null, and
    ks_distance is called once, on the sorted pool.
    """
    resid = _residuals(data, fit)
    if not is_int(permutations) or permutations < 2:
        raise ConfigurationError("permutations must be an integer >= 2")
    raw = _corr_columns(_centered(data.X, resid))
    B = int(permutations)
    rows = [np.random.default_rng([seed, b]).permutation(data.n) for b in range(B)]
    shuffled = np.empty((data.n, B))
    shuffled[rows, np.arange(B)[:, None]] = resid
    perm_corr = _corr_columns(_centered(data.X, shuffled)).T
    null, pool = _leave_one_out_ks(perm_corr)
    tail = ks_distance(raw, pool)
    return EndogeneityReport(raw, perm_corr.ravel(), tail, B, null)


def _leave_one_out_ks(samples):
    """(ks_distance(samples[b], all other rows pooled) for every row b, the
    sorted pool).

    Both ECDFs jump only at pooled values, so each distance is a max over
    the pooled sample x of |F_b(x) - F_rest(x)|, where count_all(x) and
    count_b(x) are the numbers of pooled and own values <= x and the rest
    count is count_all - count_b. Between two own values count_b is fixed
    and count_all rises, so F_b - F_rest peaks at the lower own value and
    F_rest - F_b at the last pooled value below the upper one (below the
    first own value, F_b = 0; past the last, both reach 1). Each row is
    thus evaluated at its d own values v, with counts of values <= v, and
    at the d pooled values just below them, with counts of values < v.

    Both counts are read from ranks, not searched: one argsort of the
    row-sorted values places each own value in the pool, and the tie run
    there gives its pooled counts; the tie runs of each sorted row give its
    own counts. They are the integers that searchsorted returns, and the
    divisors are those of ks_distance, so the result is bit-for-bit the
    same as calling it B times.
    """
    B, d = samples.shape
    own = np.sort(samples, axis=1).ravel()
    order = np.argsort(own)
    pool = own[order]
    lo, hi = _tie_runs(pool)
    count_all = np.empty((2, own.size), dtype=np.intp)
    count_all[0, order] = lo
    count_all[1, order] = hi
    count_b = np.stack(_tie_runs(own, np.arange(0, own.size, d)))
    count_b -= np.repeat(d * np.arange(B), d)
    gaps = count_b / d
    gaps -= (count_all - count_b) / ((B - 1) * d)
    gaps = np.abs(gaps, out=gaps).reshape(2, B, d)
    return gaps.max(axis=(0, 2)), pool


def overid_check(data, fit, selected):
    """Correlations of X_j and X_j^2 with the residuals, per selected j.

    Both moments should vanish for exogenous noise; a large corr_x2 with a
    small corr_x points at coupling through the second moment.
    """
    resid = _residuals(data, fit)
    selected = _support_indices(selected, data.d, "selected")
    if selected.size == 0:
        raise ValidationError("selected set is empty")
    cols = data.X[:, selected]
    moments = []
    for M, name in ((cols, "column %d"), (cols ** 2, "square of column %d")):
        try:
            moments.append(_corr_columns(_centered(M, resid)))
        except UndefinedCorrelationError as exc:
            if exc.column is None:
                raise
            raise UndefinedCorrelationError(name % selected[exc.column] + " is constant") from None
    return OveridReport(selected, *moments)
