"""The weighted-L1 coordinate descent kernel, in NumPy.

cd_weighted_l1 minimizes

    ||y - X b||^2 / (2n) + sum_j weights[j] * |b[j]|

by cyclic coordinate descent with an incrementally maintained residual,
updating beta in place. Returns (iterations, converged). A sweep converges
when the largest coordinate change falls below tol * (1 + max|beta|).

BACKEND names the implementation for run logs; it is always "python".
"""

import numpy as np

BACKEND = "python"


def cd_weighted_l1(X, y, weights, beta, tol, max_iter):
    """Weighted-L1 coordinate descent; beta is modified in place.

    X must be float64 and Fortran-ordered (column access is the hot path).
    Returns (iterations, converged).
    """
    if not (isinstance(X, np.ndarray) and X.flags.f_contiguous and X.dtype == np.float64):
        raise ValueError("X must be a Fortran-ordered float64 array")
    n, d = X.shape
    # Python floats, lists and views of X.T's rows: the same IEEE operations
    # as on NumPy scalars, for less per visit. beta is written back at the end.
    colsq = np.einsum("ij,ij->j", X, X).tolist()
    wn = (weights * n).tolist()
    cols = list(X.T)
    r = y - X @ beta
    b = beta.tolist()
    it = 0
    converged = False
    for it in range(1, max_iter + 1):
        max_change = 0.0
        max_abs = 0.0
        for j in range(d):
            cj = colsq[j]
            if cj <= 0.0:
                continue
            bj = b[j]
            zj = float(cols[j] @ r) + cj * bj
            wj = wn[j]
            if zj > wj:
                bnew = (zj - wj) / cj
            elif zj < -wj:
                bnew = (zj + wj) / cj
            else:
                bnew = 0.0
            if bnew != bj:
                r -= (bnew - bj) * cols[j]
                b[j] = bnew
                change = abs(bnew - bj)
                if change > max_change:
                    max_change = change
            ab = abs(bnew)
            if ab > max_abs:
                max_abs = ab
        if max_change < tol * (1.0 + max_abs):
            converged = True
            break
    beta[:] = b
    return it, converged
