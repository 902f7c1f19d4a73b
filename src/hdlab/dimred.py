"""Linear dimension reduction: principal components and random projection.

Both methods produce a Projection carrying a d x k basis plus a scale factor
applied at projection time. PCA maximizes retained variance (its basis is
orthonormal, scale 1). Random projection draws iid normal columns normalized
to exactly unit length; since such columns shrink distances by sqrt(k/d) on
average, the projection is rescaled by sqrt(d/k) so squared distances are
unbiased and the two methods are comparable on the same distortion scale.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, UndefinedMetricError, ValidationError


@dataclass(frozen=True)
class Projection:
    """basis: (d, k) columns; method: 'pca' or 'rp'; k: target dimension;
    scale: factor applied to projected coordinates (1 for pca and for
    orthonormalized rp, sqrt(d/k) for plain rp)."""

    basis: np.ndarray
    method: str
    k: int
    scale: float = 1.0

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
    # Deterministic orientation: the largest-magnitude entry of each column
    # (first occurrence) is made positive.
    for j in range(V.shape[1]):
        i = int(np.argmax(np.abs(V[:, j])))
        if V[i, j] < 0:
            V[:, j] = -V[:, j]
    return V


def pca(data, k):
    """Top-k principal directions of the column-centered data.

    Computed from the eigendecomposition of the d x d sample covariance
    (cost grows with d^3, which is the point of comparing against random
    projection). Columns are eigenvalue-ordered, largest first, each
    oriented so its largest-magnitude entry is positive. Requires
    1 <= k <= min(n, d).
    """
    X = data.X
    n, d = X.shape
    if not isinstance(k, (int, np.integer)) or not 1 <= k <= min(n, d):
        raise ConfigurationError("k must be an integer in [1, min(n, d)]")
    Xc = X - X.mean(axis=0)
    cov = (Xc.T @ Xc) / (n - 1) if n > 1 else Xc.T @ Xc
    evals, evecs = np.linalg.eigh(cov)
    V = evecs[:, ::-1][:, :k].copy()
    return Projection(_fix_signs(V), "pca", int(k), 1.0)


def random_projection(data, k, seed, orthonormalize=False):
    """Random projection basis with exactly unit-norm columns.

    With orthonormalize=True the columns are further orthonormalized (QR
    with a deterministic sign convention) and the scale is 1; otherwise the
    raw unit columns are kept and scale sqrt(d/k) compensates the expected
    shrinkage. Needs k <= d only when orthonormalizing.
    """
    d = data.d
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ConfigurationError("k must be a positive integer")
    rng = np.random.default_rng(seed)
    R = rng.standard_normal((d, k))
    norms = np.linalg.norm(R, axis=0)
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


def pairwise_distances(X):
    """Condensed Euclidean distances, computed from direct row differences.

    Slower than the Gram-matrix shortcut but free of its cancellation error,
    which matters when asserting exact isometries.
    """
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    out = np.empty(n * (n - 1) // 2)
    pos = 0
    for i in range(n - 1):
        diff = X[i + 1:] - X[i]
        seg = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        out[pos:pos + seg.size] = seg
        pos += seg.size
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
    """Median of |reduced - orig| / orig over the pairs with orig > 0.

    Raises UndefinedMetricError if every original distance is zero.
    """
    keep = orig > 0.0
    if not np.any(keep):
        raise UndefinedMetricError("all rows coincide; distances carry no information")
    rel = np.abs(reduced[keep] - orig[keep]) / orig[keep]
    return float(np.median(rel))


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
    confirm that widening d inflates PCA cost much faster than RP cost.
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
                    pca(ds, k)
                else:
                    random_projection(ds, k, seed)
                best = min(best, time.perf_counter() - t0)
            times.append(best)
        out[method] = tuple(times)
    return out
