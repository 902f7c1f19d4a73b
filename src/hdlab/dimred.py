"""Linear dimension reduction: principal components and random projection.

Both methods produce a Projection carrying a d x k basis plus a scale factor
applied at projection time. PCA maximizes retained variance (its basis is
orthonormal, scale 1) and is computed from the eigendecomposition of the
smaller Gram matrix of the centered n x d data: the d x d scatter matrix when
d <= n, the n x n one when d > n (the method of snapshots), so its cost is
O(n d min(n, d) + min(n, d)^3) and no d x d matrix is formed for wide data.
Each PCA basis is certified orthonormal to _ORTHO_TOL = 1e-13, or
re-orthonormalized by a Householder QR. A PCA Projection also carries the
scores, the n x k coordinates of the centered rows it was fitted on, which
the snapshot route reads off the n x n Gram matrix in O(n^2 k) instead of
the O(n d k) product with the basis. That Gram matrix squares the spread of
the spectrum, so a direction far below the first, and its scores, are less
accurate than an SVD would give them. Random projection draws iid normal
columns normalized to exactly unit length; since such columns shrink distances by
sqrt(k/d) on average, the projection is rescaled by sqrt(d/k) so squared
distances are unbiased and the two methods are comparable on the same
distortion scale.

Distortion compares pairwise distances, computed by the Gram formula on
centered rows in one tile per row block, built in place; pairs that could lose
accuracy to cancellation are recomputed from row differences (see
pairwise_distances). Their median is one selection, with np.median's value.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from .data import is_int
from .errors import ConfigurationError, UndefinedMetricError, ValidationError


@dataclass(frozen=True)
class Projection:
    """basis: (d, k) columns; method: 'pca' or 'rp'; k: target dimension;
    scale: factor applied to projected coordinates (1 for pca and for
    orthonormalized rp, sqrt(d/k) for plain rp); scores: for pca, the (n, k)
    coordinates (X - X.mean(0)) @ basis of the rows it was fitted on, that
    product itself when d <= n or the basis was re-orthonormalized, else read
    off the n x n Gram matrix, to its accuracy (see pca); None for rp."""

    basis: np.ndarray
    method: str
    k: int
    scale: float = 1.0
    scores: np.ndarray = None

    def apply(self, X):
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.basis.shape[0]:
            raise ValidationError(
                "X must be 2-d with %d columns" % self.basis.shape[0]
            )
        out = X @ self.basis
        if self.scale != 1.0:
            out *= self.scale
        return out


def _fix_signs(V):
    """Orient V in place so that the largest-magnitude entry of each column
    (first occurrence) is positive, and return the +-1.0 applied to each
    column. Scaling by +-1.0 is exact and keeps -0.0.

    The column max and min decide the orientation; only a column where
    max == -min (a +-m tie, +-inf, a zero column) needs the position of its
    first largest-magnitude entry. A column holding a NaN keeps its sign,
    as np.argmax, which stops at the first NaN, would have it."""
    top, low = V.max(axis=0), V.min(axis=0)
    signs = np.where(top < -low, -1.0, 1.0)
    tie = np.flatnonzero(top == -low)
    if tie.size:
        first = np.argmax(np.abs(V[:, tie]), axis=0)
        signs[tie] = np.where(V[first, tie] < 0, -1.0, 1.0)
    V *= signs
    return signs


def _column_norms(A):
    """np.linalg.norm(A, axis=0), bit for bit, without its two d x k
    temporaries. For a C-ordered A of two or more columns both sum each
    column's squares row by row; a single column or another layout, which
    np.linalg.norm sums pairwise, goes to np.linalg.norm."""
    if A.shape[1] > 1 and A.flags.c_contiguous:
        return np.sqrt(np.einsum("ij,ij->j", A, A))
    return np.linalg.norm(A, axis=0)


def _require_rank(data, k):
    if not is_int(k) or not 1 <= k <= min(data.n, data.d):
        raise ConfigurationError("k must be an integer in [1, min(n, d)]")


# Certificate of every pca basis V: max |V'V - I| must not exceed this, or
# the basis is re-orthonormalized (see _certified).
_ORTHO_TOL = 1e-13


def _top_eigenvectors(G, k):
    """Eigenvectors of the symmetric G for its k largest eigenvalues, largest
    first."""
    return np.linalg.eigh(G)[1][:, ::-1][:, :k]


def _certified(V, Y):
    """V if max |V'V - I| <= _ORTHO_TOL, else the Q factor of one
    Householder QR of Y, an orthonormal basis of the same nested spans.

    V may hold infinities or NaNs (a zero scale); the check then fails."""
    if np.max(np.abs(V.T @ V - np.eye(V.shape[1]))) <= _ORTHO_TOL:
        return V
    return np.linalg.qr(Y)[0]


def pca(data, k):
    """Top-k principal directions of the column-centered n x d data Xc.

    One route, the eigendecomposition of the smaller Gram matrix of Xc:
    - d <= n: the top-k eigenvectors of the d x d scatter matrix Xc'Xc
      (the sample covariance times n - 1), as _covariance_pca computes them;
    - d > n, the method of snapshots: the top-k eigenvectors W of the n x n
      matrix Xc Xc', mapped to V = Xc'W and each column divided by its norm,
      the singular value sigma_j.
    The cost is O(n d min(n, d) + min(n, d)^3).

    The returned Projection carries the scores S = Xc V, the n x k
    coordinates of the centered rows:
    - d <= n, and any basis that fails the certificate below: S = Xc @ V;
    - d > n with the snapshot basis: Xc V_j = s_j G W_j / sigma_j, with
      G = Xc Xc' and s_j the sign _fix_signs gives column j, so S is G @ W
      with each column divided by s_j sigma_j, at O(n^2 k) cost and with no
      product with the d x k basis. On random wide designs with columns
      scaled over four decades it matches Xc @ V to about 1e-13 relative
      per column.

    Certificate: every basis returned satisfies max |V'V - I| <= _ORTHO_TOL
    (1e-13). A basis that fails it, as the snapshot basis does when some
    sigma_j is zero (centered wide data at k = n) or when the top-k spectrum
    spans more than about two decades (the division amplifies the error in
    W), is replaced by the Q factor of one Householder QR of Xc'W. The Gram
    matrix squares the spread of the spectrum, so a direction whose sigma_j
    lies far below sigma_1 is less accurate than an SVD would give it; the
    variance the basis captures is not affected. The snapshot scores of
    such a direction inherit the error of W_j in the same way.

    Columns are ordered by variance, largest first, each oriented so its
    largest-magnitude entry is positive. Requires 1 <= k <= min(n, d).
    """
    if data.d <= data.n:
        return _covariance_pca(data, k)
    _require_rank(data, k)
    Xc = data.X - data.X.mean(axis=0)
    G = Xc @ Xc.T
    W = _top_eigenvectors(G, k)
    Y = Xc.T @ W
    sigma = _column_norms(Y)
    with np.errstate(divide="ignore", invalid="ignore"):
        snapshot = Y / sigma
    V = _certified(snapshot, Y)
    signs = _fix_signs(V)
    scores = (G @ W) / (signs * sigma) if V is snapshot else Xc @ V
    return Projection(V, "pca", int(k), 1.0, scores)


def _covariance_pca(data, k):
    """pca by the eigendecomposition of the d x d scatter matrix Xc'Xc at
    every width, at O(n d^2 + d^3) cost.

    The route pca takes for d <= n, certificate included. Used by
    timing_trend, which measures the cost of this route at large d: the cost
    of PCA that random projection avoids.
    """
    _require_rank(data, k)
    Xc = data.X - data.X.mean(axis=0)
    V = _top_eigenvectors(Xc.T @ Xc, k).copy()
    V = _certified(V, V)
    _fix_signs(V)
    return Projection(V, "pca", int(k), 1.0, Xc @ V)


def random_projection(data, k, seed, orthonormalize=False):
    """Random projection basis with exactly unit-norm columns.

    With orthonormalize=True the columns are further orthonormalized (QR
    with a deterministic sign convention) and the scale is 1; otherwise the
    raw unit columns are kept and scale sqrt(d/k) compensates the expected
    shrinkage. Needs k <= d only when orthonormalizing.
    """
    d = data.d
    if not is_int(k) or k < 1:
        raise ConfigurationError("k must be a positive integer")
    rng = np.random.default_rng(seed)
    R = rng.standard_normal((d, k))
    norms = _column_norms(R)
    if np.any(norms == 0.0):
        raise ValidationError("degenerate draw: a projection column is zero")
    R /= norms
    if orthonormalize:
        if k > d:
            raise ConfigurationError("orthonormalization needs k <= d")
        Q, T = np.linalg.qr(R)
        Q = Q * np.sign(np.where(np.diag(T) == 0.0, 1.0, np.diag(T)))
        return Projection(Q, "rp", int(k), 1.0)
    return Projection(R, "rp", int(k), math.sqrt(d / k))


# Rows per block in pairwise_distances; its temporaries are O(block * (n + d)).
_BLOCK_ROWS = 256

# Cancellation guard of pairwise_distances: a pair whose Gram value
# d2 = |x_i|^2 + |x_j|^2 - 2<x_i, x_j> is at most _GUARD_TAU * (|x_i|^2 +
# |x_j|^2) is recomputed from the difference of its rows.
_GUARD_TAU = 1e-4


def pairwise_distances(X):
    """Condensed Euclidean distances between the rows of X (pdist order).

    The rows are centered (distances do not change under translation), and
    each block of rows is compared with every later row by the Gram formula
    d2_ij = |x_i|^2 + |x_j|^2 - 2<x_i, x_j>, one matrix product per tile of
    _BLOCK_ROWS x _BLOCK_ROWS rows written in place into the block's row of
    tiles, so no n x n or centered n x d array is formed.

    Error bound. With unit roundoff u = 2**-53 and g = d*u / (1 - d*u), each
    of the three inner products of centered rows is off by at most
    g * |x_i| * |x_j|, so the Gram value is off by at most 2g * S, where
    S = |x_i|^2 + |x_j|^2. Wherever d2_ij <= _GUARD_TAU * S the pair is
    recomputed from the difference of the original rows, as
    scipy.spatial.distance.pdist does; this also makes exact duplicate rows
    give exactly 0.0. Every other pair therefore has a relative error of at
    most 2g / _GUARD_TAU in d2_ij and g / _GUARD_TAU in d_ij: d * 1.1e-12 at
    _GUARD_TAU = 1e-4, a worst case that rounding errors growing like
    sqrt(d) * u (the usual case) stay far below. As no centered row is
    longer than the largest distance D, the absolute error is at most
    2g * sqrt(2 / _GUARD_TAU) * D, under 1e-10 * D for d <= 3,000.
    """
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    out = np.empty(n * (n - 1) // 2)
    if n < 2:
        return out
    mean = X.mean(axis=0)
    sq = np.empty(n)
    # Last block first, so the squared norms of all later rows are known.
    for s in reversed(range(0, n, _BLOCK_ROWS)):
        block = X[s:s + _BLOCK_ROWS] - mean
        b = block.shape[0]
        sq[s:s + b] = np.einsum("ij,ij->i", block, block)
        gram = np.empty((b, n - s))
        for t in range(s, n, _BLOCK_ROWS):
            other = block if t == s else X[t:t + _BLOCK_ROWS] - mean
            np.matmul(block, other.T, out=gram[:, t - s:t - s + _BLOCK_ROWS])
        # Pairs (i, j > i) of this block, in condensed order: n - s - 1 - i in row i.
        upper = ~np.tri(b, n - s, dtype=bool)
        norms = np.broadcast_to(sq[s:], upper.shape)[upper]
        norms += np.repeat(sq[s:s + b], n - s - 1 - np.arange(b))
        d2 = gram[upper]
        d2 *= -2.0
        d2 += norms  # the same bits as norms - 2.0 * gram[upper]
        norms *= _GUARD_TAU
        close = np.flatnonzero(d2 <= norms)
        if close.size:
            rows, cols = np.nonzero(upper)
            for c in range(0, close.size, _BLOCK_ROWS):
                pick = close[c:c + _BLOCK_ROWS]
                diff = X[s + cols[pick]] - X[s + rows[pick]]
                d2[pick] = np.einsum("ij,ij->i", diff, diff)
        pos = s * n - s * (s + 1) // 2
        np.sqrt(d2, out=out[pos:pos + d2.size])
    return out


@dataclass(frozen=True)
class DistortionReport:
    median_relative_error: float
    k: int
    method: str


def distortion(data, proj):
    """Median relative change of pairwise distances under the projection.

    Pairs at zero original distance are excluded; if every pair is at zero
    distance (all rows identical) the metric is undefined and raises.
    """
    if data.n < 2:
        raise ValidationError("distortion needs at least 2 rows")
    orig = pairwise_distances(data.X)
    red = pairwise_distances(proj.apply(data.X))
    return DistortionReport(median_relative_error(orig, red), proj.k, proj.method)


def median_relative_error(orig, reduced):
    """Median of |reduced - orig| / orig over the pairs with orig > 0, bit for
    bit as np.median gives it (NaN included), by one in-place selection at
    size // 2 and, for an even size, a max over the ratios below it. Raises
    UndefinedMetricError if every original distance is zero."""
    keep = orig > 0.0
    if not keep.all():
        if not keep.any():
            raise UndefinedMetricError("all rows coincide; distances carry no information")
        orig, reduced = orig[keep], reduced[keep]
    rel = reduced - orig
    np.abs(rel, out=rel)
    rel /= orig
    if np.isnan(rel).any():
        return float(np.median(rel))
    m = rel.size // 2
    rel.partition(m)
    if rel.size % 2:
        return float(rel[m])
    return float((rel[:m].max() + rel[m]) / 2)


def reconstruction_error(data, proj):
    """Squared Frobenius distance between centered data and its projection
    onto the span of the basis (orthonormalized internally)."""
    Xc = data.X - data.X.mean(axis=0)
    Q, _ = np.linalg.qr(proj.basis)
    E = Xc - (Xc @ Q) @ Q.T
    return float(np.einsum("ij,ij->", E, E))


def timing_trend(n, d_small, d_large, k, seed=0, repeats=3):
    """Best-of-`repeats` construction time for pca and rp at two widths.

    Returns {"pca": (t_small, t_large), "rp": (t_small, t_large)}. Used to
    confirm that widening d inflates PCA cost much faster than RP cost. The
    "pca" times are those of the d x d covariance route (_covariance_pca),
    O(n d^2 + d^3), whose cost is the one the comparison is about. pca takes
    that route only for d <= n; for d > n it decomposes the n x n Gram
    matrix instead, at O(n^2 d + n^3), which grows only linearly in d.
    """
    from .data import gen_iid_gaussian

    out = {}
    for method in ("pca", "rp"):
        times = []
        for d in (d_small, d_large):
            ds = gen_iid_gaussian(n, d, seed)
            best = math.inf
            for _ in range(repeats):
                t0 = time.perf_counter()
                if method == "pca":
                    _covariance_pca(ds, k)
                else:
                    random_projection(ds, k, seed)
                best = min(best, time.perf_counter() - t0)
            times.append(best)
        out[method] = tuple(times)
    return out
