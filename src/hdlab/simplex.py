"""Dense two-phase primal simplex for small linear programs.

Solves   minimize c'x  subject to  A x <= b,  x >= 0.

Written for the moderate problem sizes this package produces (a few thousand
variables at most). Both pivot choices follow Bland's smallest-index rule,
which rules out cycling; the price is extra pivots, irrelevant at this scale:

- entering column: the smallest index whose reduced cost is < -EPS;
- leaving row: among the rows whose entry in the entering column is > EPS,
  those whose ratio rhs / entry is within EPS of the smallest ratio tie, and
  the tied row whose basic variable has the smallest index leaves.

Pivot elements smaller than EPS in magnitude are treated as zero.

Phase 1 runs only when some b_i < 0. The row multipliers come back with x,
so a caller may solve the dual LP instead (see solvers.dantzig_selector).
"""

import numpy as np

from .errors import InfeasibleError, UnboundedError, ValidationError

EPS = 1e-9


def _pivot(T, cost, basis, row, col):
    T[row] /= T[row, col]
    if cost is not None and cost[col] != 0.0:
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


def _run_phase(T, cost, basis, width):
    pivots = 0
    while True:
        col = int(np.argmax(cost[:width] < -EPS))
        if not cost[col] < -EPS:
            return pivots
        rows = np.flatnonzero(T[:, col] > EPS)
        if not rows.size:
            raise UnboundedError("LP unbounded: column %d has no blocking row" % col)
        ratio = T[rows, -1] / T[rows, col]
        tied = rows[ratio <= ratio.min() + EPS]
        _pivot(T, cost, basis, int(tied[np.argmin(basis[tied])]), col)
        pivots += 1


def linprog_simplex(c, A, b):
    """Minimize c'x with A x <= b, x >= 0; returns (x, objective, pivots, u).

    Raises InfeasibleError (with the phase-1 objective as certificate) or
    UnboundedError. The returned x is a vertex: nonbasic entries are exact
    zeros. u, the row multipliers, solves the dual LP max -b'u s.t. A'u + c
    >= 0, u >= 0 (HiGHS's ineqlin.marginals are -u): the slack columns'
    final reduced costs, clipped at 0. Phase 1 negates a row together with
    its slack column, so no sign changes.
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

    # Columns: nv structural | m slacks | n_art artificials | rhs. Each row
    # with b < 0 is negated and gets its own artificial as the basic variable.
    neg = b < 0
    n_art = int(neg.sum())
    width = nv + m + n_art
    T = np.zeros((m, width + 1))
    T[:, :nv] = A
    T[:, nv:nv + m] = np.eye(m)
    T[:, -1] = b
    T[neg] *= -1.0
    basis = nv + np.arange(m)
    basis[neg] = nv + m + np.arange(n_art)
    T[neg, basis[neg]] = 1.0

    pivots = 0
    if n_art:
        cost1 = np.zeros(width + 1)
        cost1[nv + m:width] = 1.0
        cost1 -= T[neg].sum(axis=0)
        pivots += _run_phase(T, cost1, basis, width)
        phase1_obj = -cost1[-1]
        if phase1_obj > 1e-7 * (1.0 + float(np.abs(b).max())):
            raise InfeasibleError("LP infeasible: phase-1 objective %.3e > 0" % phase1_obj)
        # Any artificial still basic sits at level zero: pivot it out on the
        # first structural/slack column with a nonzero entry in its row. One
        # always exists: a negated row's slack column starts as the exact
        # negative of its artificial column, and row operations keep it so,
        # so a basic artificial (a unit column) has -1 in that slack column.
        # Each pivot changes the rows after it, so this goes one row at a
        # time; every row stays, and only the artificial columns go.
        for i in np.flatnonzero(basis >= nv + m):
            _pivot(T, None, basis, i, int(np.argmax(np.abs(T[i, :nv + m]) > EPS)))
            pivots += 1
        T = T[:, np.r_[:nv + m, width]]
        width = nv + m

    # Accumulated in row order, one basic row at a time, as the sum's
    # rounding depends on that order.
    cost2 = np.zeros(width + 1)
    cost2[:nv] = c
    for i in np.flatnonzero(basis < nv):
        if c[basis[i]] != 0.0:
            cost2 -= c[basis[i]] * T[i]
    pivots += _run_phase(T, cost2, basis, width)

    x = np.zeros(nv)
    structural = basis < nv
    x[basis[structural]] = T[structural, -1]
    u = cost2[nv:nv + m]
    u = np.where(u > 0.0, u, 0.0)
    return x, float(c @ x), pivots, u
