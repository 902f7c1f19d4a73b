"""Marginal screening: rank features by componentwise regression strength.

On standardized columns the marginal coefficient X'y/n is the per-feature
least-squares slope (up to the response scale, its correlation with y), so
keeping the largest |coefficients| is a sure-independence style filter ahead
of a joint fit.
"""

import math
from dataclasses import dataclass

import numpy as np

from .data import is_int, is_standardized
from .errors import ConfigurationError, NotStandardizedError


@dataclass(frozen=True)
class ScreeningResult:
    """marginal_beta: all d marginal coefficients; survivors: sorted kept
    indices; rule: human-readable description of the cut that was applied."""

    marginal_beta: np.ndarray
    survivors: np.ndarray
    rule: str


def marginal_coefficients(data):
    """Componentwise regression coefficients X'y/n on standardized columns."""
    y = data.require_y()
    if not is_standardized(data.X):
        raise NotStandardizedError("marginal screening needs standardized columns")
    return data.X.T @ y / data.n


def default_top_k(n, d):
    """Conventional retained size floor(n / log n), clipped to [1, d]."""
    k = int(math.floor(n / math.log(n))) if n > 2 else 1
    return max(1, min(k, d))


def sis_select(data, delta=None, top_k=None):
    """Keep features whose |marginal coefficient| is large.

    Exactly one of delta (magnitude threshold, keep |b_j| >= delta) or top_k
    (keep the k largest magnitudes, ties broken toward the lower index) may
    be given; with neither, top_k defaults to floor(n / log n). Survivors are
    reported in increasing index order.
    """
    if delta is not None and top_k is not None:
        raise ConfigurationError("pass delta or top_k, not both")
    mb = marginal_coefficients(data)
    mag = np.abs(mb)
    if delta is not None:
        if not (np.isfinite(delta) and delta >= 0):
            raise ConfigurationError("delta must be finite and >= 0")
        survivors = np.flatnonzero(mag >= delta)
        rule = "delta=%s" % repr(float(delta))
    else:
        if top_k is None:
            top_k = default_top_k(data.n, data.d)
        if not is_int(top_k) or not 1 <= top_k <= data.d:
            raise ConfigurationError("top_k must be an integer in [1, d]")
        order = np.lexsort((np.arange(data.d), -mag))
        survivors = np.sort(order[:top_k])
        rule = "top_k=%d" % top_k
    return ScreeningResult(mb, survivors, rule)


def embed_coefficients(beta_sub, survivors, d):
    """Scatter coefficients fitted on a survivor subset back into length d."""
    beta_sub = np.asarray(beta_sub, dtype=np.float64)
    survivors = np.asarray(survivors, dtype=np.int64)
    if beta_sub.shape != survivors.shape:
        raise ConfigurationError("beta_sub and survivors must align")
    beta = np.zeros(d)
    beta[survivors] = beta_sub
    return beta
