import numpy as np
import pytest
from scipy.optimize import linprog

from hdlab import UnboundedError, ValidationError
from hdlab.simplex import linprog_simplex


def scipy_solve(c, A, b):
    # presolve=False so unbounded instances are reported as unbounded rather
    # than folded into the ambiguous infeasible classification
    return linprog(c, A_ub=A, b_ub=b, bounds=(0, None), method="highs",
                   options={"presolve": False})


class TestKnownInstances:
    def test_tiny_max_problem(self):
        # max x + y s.t. x + 2y <= 4, 3x + y <= 6  ->  (8/5, 6/5), value 14/5.
        c = np.array([-1.0, -1.0])
        A = np.array([[1.0, 2.0], [3.0, 1.0]])
        b = np.array([4.0, 6.0])
        x, obj, pivots, _ = linprog_simplex(c, A, b)
        assert np.allclose(x, [1.6, 1.2], atol=1e-9)
        assert obj == pytest.approx(-2.8, abs=1e-9)
        assert pivots >= 1

    def test_origin_optimal(self):
        x, obj, _, _ = linprog_simplex(np.array([1.0, 2.0]),
                                    np.array([[1.0, 1.0]]), np.array([3.0]))
        assert np.array_equal(x, [0.0, 0.0]) and obj == 0.0

    def test_leaving_row_tie_band(self):
        # Both rows block x, with ratios 1 and 1 - 1e-10: within EPS of each
        # other, so they tie, and row 0 leaves because its slack (column 1)
        # has the smaller index, though row 1 has the smaller ratio.
        x, obj, pivots, _ = linprog_simplex(np.array([-1.0]), np.array([[1.0], [1.0]]),
                                            np.array([1.0, 1.0 - 1e-10]))
        assert x[0] == 1.0 and pivots == 1

    def test_unbounded(self):
        with pytest.raises(UnboundedError):
            linprog_simplex(np.array([-1.0, 0.0]),
                            np.array([[0.0, 1.0]]), np.array([1.0]))

    def test_zero_rhs_degenerate(self):
        A = np.array([[1.0, -1.0], [1.0, 1.0]])
        b = np.array([0.0, 2.0])
        x, obj, _, _ = linprog_simplex(np.array([-1.0, 0.0]), A, b)
        ref = scipy_solve(np.array([-1.0, 0.0]), A, b)
        assert obj == pytest.approx(ref.fun, abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValidationError):
            linprog_simplex(np.ones(2), np.ones((2, 3)), np.ones(2))
        with pytest.raises(ValidationError):
            linprog_simplex(np.ones(3), np.ones((2, 3)), np.ones(3))
        with pytest.raises(ValidationError):
            linprog_simplex(np.array([np.inf]), np.ones((1, 1)), np.ones(1))
        # The slack basis is infeasible where some b_i < 0: x >= 2 as -x <= -2.
        with pytest.raises(ValidationError, match="b >= 0"):
            linprog_simplex(np.ones(1), -np.ones((1, 1)), np.array([-2.0]))


def random_instances():
    """60 seeded LPs with b >= 0 and their HiGHS solutions."""
    rng = np.random.default_rng(42)
    for trial in range(60):
        m = int(rng.integers(2, 10))
        nv = int(rng.integers(2, 9))
        A = rng.normal(size=(m, nv))
        b = np.abs(rng.normal(loc=1.0, size=m))
        c = rng.normal(size=nv)
        yield c, A, b, scipy_solve(c, A, b)


class TestRandomAgainstScipy:
    def test_random_instances(self):
        solved = 0
        for c, A, b, ref in random_instances():
            if ref.status == 3:
                with pytest.raises(UnboundedError):
                    linprog_simplex(c, A, b)
                continue
            assert ref.status == 0
            x, obj, _, _ = linprog_simplex(c, A, b)
            solved += 1
            assert obj == pytest.approx(ref.fun, abs=1e-7 * (1.0 + abs(ref.fun)))
            assert np.all(A @ x <= b + 1e-7)
            assert np.all(x >= -1e-12)
        assert solved >= 20  # the sample must actually exercise the solver

    def test_multipliers_solve_the_dual(self):
        # u >= 0 with A'u + c >= 0 is dual feasible, and c'x = -b'u is strong
        # duality. Where the optimum is nondegenerate (m of the nv + m
        # variables x, b - A x are positive) the dual solution is unique, so
        # u must be HiGHS's, whose marginals are -u.
        solved = compared = 0
        for c, A, b, ref in random_instances():
            if ref.status != 0:
                continue
            x, obj, _, u = linprog_simplex(c, A, b)
            solved += 1
            assert u.shape == b.shape and np.all(u >= 0.0)
            assert np.all(A.T @ u + c >= -1e-9)
            assert abs(obj + b @ u) <= 1e-9 * (1.0 + abs(obj))
            if np.count_nonzero(np.r_[x, b - A @ x] > 1e-9) == b.size:
                compared += 1
                assert np.max(np.abs(u + ref.ineqlin.marginals)) <= 1e-9
        assert solved >= 20 and compared >= 20

    def test_multipliers_of_slack_rows_are_zero(self):
        # Only row 1 binds at the optimum (0, 4) of max y.
        x, _, _, u = linprog_simplex(np.array([0.0, -1.0]),
                                     np.array([[1.0, 0.0], [0.0, 1.0]]),
                                     np.array([5.0, 4.0]))
        assert np.array_equal(x, [0.0, 4.0]) and np.array_equal(u, [0.0, 1.0])

    def test_vertex_structure(self):
        rng = np.random.default_rng(5)
        # The sum constraint keeps the region compact, and strictly negative
        # costs push the optimum away from the origin.
        A = np.vstack([rng.normal(size=(6, 4)), np.ones(4)])
        b = np.append(np.abs(rng.normal(size=6)) + 0.5, 5.0)
        c = -np.abs(rng.normal(size=4)) - 0.1
        ref = scipy_solve(c, A, b)
        assert ref.status == 0
        x, obj, _, _ = linprog_simplex(c, A, b)
        assert obj == pytest.approx(ref.fun, abs=1e-9)
        assert np.any(x > 0.0)
        # Nonbasic coordinates come back as exact zeros.
        assert np.all((x == 0.0) | (x > 1e-12))
