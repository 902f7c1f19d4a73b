"""Dense one-phase primal simplex for small linear programs.

Solves   minimize c'x  subject to  A x <= b,  x >= 0,  where b >= 0, which
makes the slack basis feasible: the method starts there, with no phase 1.
Written for the moderate problem sizes this package produces (a few thousand
variables at most). Both pivot choices follow Bland's smallest-index rule,
which rules out cycling; the price is extra pivots, irrelevant at this scale:

- entering column: the smallest index whose reduced cost is < -EPS;
- leaving row: among the rows whose entry in the entering column is > EPS,
  those whose ratio rhs / entry is within EPS of the smallest ratio tie, and
  the tied row whose basic variable has the smallest index leaves.

Pivot elements smaller than EPS in magnitude are treated as zero. The row
multipliers come back with x, so an LP with some b_i < 0 but c >= 0 can be
solved through its dual, whose right-hand side is c (solvers.dantzig_selector).
"""

import numpy as np

from .errors import UnboundedError, ValidationError

EPS = 1e-9


def _pivot(T, cost, basis, row, col):
    T[row] /= T[row, col]
    if cost[col] != 0.0:
        cost -= cost[col] * T[row]
        cost[col] = 0.0
    colvals = T[:, col].copy()
    colvals[row] = 0.0
    nz = colvals != 0.0
    if nz.any():
        T[nz] -= np.outer(colvals[nz], T[row])
    T[:, col] = 0.0
    T[row, col] = 1.0
    basis[row] = col


def linprog_simplex(c, A, b):
    """Minimize c'x with A x <= b, x >= 0; returns (x, objective, pivots, u).

    Raises ValidationError when some b_i < 0, and UnboundedError. x is a
    vertex: nonbasic entries are exact zeros. u, the row multipliers, solves
    the dual LP max -b'u s.t. A'u + c >= 0, u >= 0 (HiGHS's ineqlin.marginals
    are -u): the slack columns' final reduced costs, clipped at 0.
    """
    c = np.asarray(c, dtype=np.float64)
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if A.ndim != 2 or c.ndim != 1 or b.ndim != 1:
        raise ValidationError("need 2-d A and 1-d c, b")
    m, nv = A.shape
    if c.shape[0] != nv or b.shape[0] != m:
        raise ValidationError("inconsistent LP dimensions")
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b)) and np.all(np.isfinite(c))):
        raise ValidationError("LP data must be finite")
    if np.any(b < 0):
        raise ValidationError("LP needs b >= 0 to start from the slack basis; "
                              "%d entries are negative" % np.count_nonzero(b < 0))

    # Columns: nv structural | m slacks | rhs. cost holds the reduced costs,
    # then minus the objective; from the slack basis they are c itself.
    T = np.zeros((m, nv + m + 1))
    T[:, :nv] = A
    T[:, nv:nv + m] = np.eye(m)
    T[:, -1] = b
    basis = nv + np.arange(m)
    cost = np.zeros(nv + m + 1)
    cost[:nv] = c

    pivots = 0
    while True:
        col = int(np.argmax(cost[:-1] < -EPS))
        if not cost[col] < -EPS:
            break
        rows = np.flatnonzero(T[:, col] > EPS)
        if not rows.size:
            raise UnboundedError("LP unbounded: column %d has no blocking row" % col)
        ratio = T[rows, -1] / T[rows, col]
        tied = rows[ratio <= ratio.min() + EPS]
        _pivot(T, cost, basis, int(tied[np.argmin(basis[tied])]), col)
        pivots += 1

    x = np.zeros(nv)
    structural = basis < nv
    x[basis[structural]] = T[structural, -1]
    u = np.where(cost[nv:nv + m] > 0.0, cost[nv:nv + m], 0.0)
    return x, float(c @ x), pivots, u
