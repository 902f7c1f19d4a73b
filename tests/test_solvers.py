import itertools
import math
import warnings

import numpy as np
import pytest
from scipy.optimize import linprog

from hdlab import (
    ConfigurationError,
    Dataset,
    HighConfidenceSetSpec,
    LinearModelSpec,
    NotStandardizedError,
    PenaltySpec,
    SingularityError,
    SizeLimitError,
    SolverError,
    StepSizeError,
    ValidationError,
    best_subset_l0,
    coord_descent_l1,
    coord_descent_weighted_l1,
    cross_validate,
    dantzig_selector,
    default_gamma_n,
    gen_iid_gaussian,
    gen_linear,
    hcs_membership,
    ista,
    kkt_violation,
    l0_objective,
    largest_gram_eigenvalue,
    lasso_path,
    lla,
    ols_refit,
    penalized_objective,
    penalty_derivative,
    sis_select,
    standardize,
)
from hdlab import kernels, solvers
from hdlab.solvers import PATH_KKT_TOL


def sparse_problem(seed, n=80, d=12, noise=0.5):
    spec = LinearModelSpec(n=n, d=d, beta={0: 2.0, 3: -1.5}, noise_sd=noise)
    return standardize(gen_linear(spec, seed))


def orthonormal_dataset(seed, n=50, d=8, beta=None, noise=0.3):
    """Standardized design with X'X = (n-1) I exactly (up to round-off)."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, d))
    A = A - A.mean(axis=0)
    q, _ = np.linalg.qr(A)
    X = q * math.sqrt(n - 1.0)
    coef = np.zeros(d) if beta is None else np.asarray(beta, dtype=np.float64)
    y = X @ coef + noise * rng.standard_normal(n)
    return Dataset(X, y)


def soft(z, t):
    return np.sign(z) * np.maximum(np.abs(z) - t, 0.0)


class TestObjectives:
    def test_penalized_objective_formula(self):
        data = sparse_problem(0)
        beta = np.linspace(-1, 1, data.d)
        spec = PenaltySpec("soft", 0.3)
        r = data.y - data.X @ beta
        want = float(r @ r) / (2 * data.n) + 0.3 * float(np.sum(np.abs(beta)))
        assert penalized_objective(data, beta, spec) == pytest.approx(want, rel=1e-14)

    def test_l0_objective_counts_support(self):
        data = sparse_problem(1)
        beta = np.zeros(data.d)
        beta[[2, 5]] = [1.0, -0.5]
        r = data.y - data.X @ beta
        want = float(r @ r) / (2 * data.n) + 0.7 * 2
        assert l0_objective(data, beta, 0.7) == pytest.approx(want, rel=1e-14)


class TestCoordDescent:
    def test_zero_penalty_matches_ols(self):
        data = sparse_problem(2, n=100, d=10)
        fit = coord_descent_l1(data, 0.0)
        ols, *_ = np.linalg.lstsq(data.X, data.y, rcond=None)
        assert fit.converged
        assert np.max(np.abs(fit.beta_hat - ols)) < 1e-6

    def test_large_penalty_gives_exact_zero(self):
        data = sparse_problem(3)
        lam_max = float(np.max(np.abs(data.X.T @ data.y))) / data.n
        fit = coord_descent_l1(data, lam_max * 1.0000001)
        assert np.array_equal(fit.beta_hat, np.zeros(data.d))
        assert fit.active_set.size == 0

    def test_orthonormal_closed_form(self):
        data = orthonormal_dataset(4, beta=[2.0, -1.0, 0, 0, 0.4, 0, 0, 0])
        lam = 0.25
        fit = coord_descent_l1(data, lam)
        z = data.X.T @ data.y
        expected = soft(z, data.n * lam) / (data.n - 1.0)
        assert np.max(np.abs(fit.beta_hat - expected)) < 1e-9

    def test_kkt_residual_small_at_optimum(self):
        for seed in range(5):
            data = sparse_problem(10 + seed)
            lam = 0.1
            fit = coord_descent_l1(data, lam)
            assert kkt_violation(data, fit.beta_hat, lam) < 1e-8

    def test_warm_start_at_solution_stops_immediately(self):
        data = sparse_problem(5)
        first = coord_descent_l1(data, 0.15)
        again = coord_descent_l1(data, 0.15, beta_init=first.beta_hat)
        assert again.iterations == 1
        assert again.converged
        assert np.max(np.abs(again.beta_hat - first.beta_hat)) < 1e-9

    def test_result_invariants(self):
        data = sparse_problem(6)
        fit = coord_descent_l1(data, 0.12)
        assert np.array_equal(fit.residuals, data.y - data.X @ fit.beta_hat)
        assert np.array_equal(fit.active_set, np.flatnonzero(fit.beta_hat))
        want = penalized_objective(data, fit.beta_hat, PenaltySpec("soft", 0.12))
        assert fit.objective == pytest.approx(want, rel=1e-12)

    def test_per_coordinate_weights_respected(self):
        data = sparse_problem(7)
        weights = np.full(data.d, 0.05)
        weights[0] = 10.0  # far above any marginal correlation
        fit = coord_descent_weighted_l1(data, weights)
        assert fit.beta_hat[0] == 0.0
        assert kkt_violation(data, fit.beta_hat, weights) < 1e-8

    def test_requires_standardized_design(self):
        rng = np.random.default_rng(8)
        data = Dataset(5.0 * rng.standard_normal((30, 4)), rng.standard_normal(30))
        with pytest.raises(NotStandardizedError):
            coord_descent_l1(data, 0.1)

    def test_input_validation(self):
        data = sparse_problem(9)
        with pytest.raises(ValidationError):
            coord_descent_weighted_l1(data, np.full(data.d, -0.1))
        with pytest.raises(ValidationError):
            coord_descent_weighted_l1(data, np.ones(data.d + 1))
        with pytest.raises(ValidationError):
            coord_descent_l1(data, 0.1, beta_init=np.ones(3))
        with pytest.raises(ValidationError):
            coord_descent_l1(data, -0.5)


class TestKktViolation:
    def test_zero_on_threshold_boundary(self):
        data = sparse_problem(20)
        w = np.abs(data.X.T @ data.y) / data.n
        assert kkt_violation(data, np.zeros(data.d), w) == pytest.approx(0.0, abs=1e-15)

    def test_positive_after_perturbation(self):
        data = sparse_problem(21)
        fit = coord_descent_l1(data, 0.1)
        beta = fit.beta_hat.copy()
        beta[0] += 0.5
        assert kkt_violation(data, beta, 0.1) > 1e-3

    def test_scalar_weight_broadcasts(self):
        data = sparse_problem(22)
        beta = np.linspace(-0.5, 0.5, data.d)
        a = kkt_violation(data, beta, 0.2)
        b = kkt_violation(data, beta, np.full(data.d, 0.2))
        assert a == b

    def test_non_finite_input_gives_inf(self):
        # max(0.0, nan) is 0.0, and nan > bound is False: a NaN must not
        # read as a certified point.
        data = sparse_problem(23)
        beta = coord_descent_l1(data, 0.1).beta_hat
        w = np.full(data.d, 0.1)
        for j in (0, int(np.flatnonzero(beta == 0)[0])):
            bad = beta.copy()
            bad[j] = np.nan
            assert kkt_violation(data, bad, w) == np.inf
            bad_w = w.copy()
            bad_w[j] = np.nan
            assert kkt_violation(data, beta, bad_w) == np.inf
        assert kkt_violation(data, beta, np.inf) == np.inf
        assert kkt_violation(data, beta, w) <= 1e-8

    def test_non_finite_beta_gives_inf_without_a_warning(self):
        # X @ beta with an infinite entry forms inf - inf in X'r; such a row
        # must read inf before any product is taken.
        data = sparse_problem(25, n=20, d=5)
        beta = coord_descent_l1(data, 0.1).beta_hat
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for value in (np.inf, -np.inf, np.nan):
                for j in (0, data.d - 1):
                    bad = beta.copy()
                    bad[j] = value
                    assert kkt_violation(data, bad, 0.1) == math.inf
                    rows = solvers._kkt_rows(data, np.stack([beta, bad]), 0.1)
                    assert rows[0] == kkt_violation(data, beta, 0.1)
                    assert rows[1] == math.inf

    def test_rows_match_single_calls_bit_for_bit(self):
        # _kkt_rows certifies a stack of rows in one pass; each entry must be
        # the single-row certificate of the loop form, inf for non-finite rows.
        def single(data, beta, w):
            g = data.X.T @ (data.y - data.X @ beta) / data.n
            with np.errstate(invalid="ignore"):
                viol = np.where(beta != 0, np.abs(g - np.sign(beta) * w), np.abs(g) - w)
            if not np.isfinite(viol).all():
                return math.inf
            return float(np.max(viol, initial=0.0))

        data = sparse_problem(24)
        rng = np.random.default_rng(24)
        betas = np.where(rng.random((12, data.d)) < 0.5, 0.0,
                         rng.standard_normal((12, data.d)))
        betas[0] = 0.0
        betas[3, 1] = np.nan
        lams = rng.uniform(0.05, 0.5, 12)
        lams[5], lams[7] = np.inf, np.nan
        vector = rng.uniform(0.05, 0.5, data.d)
        for weights, per_row in ((lams[:, None], lams), (vector, [vector] * 12)):
            got = solvers._kkt_rows(data, betas, weights)
            want = [single(data, b, w) for b, w in zip(betas, per_row)]
            assert got.tobytes() == np.array(want).tobytes()
            assert got[3] == math.inf and np.all(np.isfinite(got[8:]))
            assert [kkt_violation(data, b, w) for b, w in zip(betas, per_row)] == want
        assert list(solvers._kkt_rows(data, betas, lams[:, None])[[5, 7]]) == [math.inf] * 2


class TestGramEigenvalue:
    def test_matches_dense_eigensolver(self):
        for seed, (n, d) in [(0, (40, 12)), (1, (12, 40)), (2, (30, 30))]:
            X = np.random.default_rng(seed).standard_normal((n, d))
            want = float(np.linalg.eigvalsh(X.T @ X / n).max())
            got = largest_gram_eigenvalue(X)
            assert got == pytest.approx(want, rel=1e-6)

    def test_zero_matrix(self):
        assert largest_gram_eigenvalue(np.zeros((10, 3))) == 0.0

    def test_deterministic(self):
        X = np.random.default_rng(3).standard_normal((25, 9))
        assert largest_gram_eigenvalue(X) == largest_gram_eigenvalue(X)


class TestIsta:
    def test_agrees_with_coordinate_descent(self):
        for seed in range(5):
            data = sparse_problem(30 + seed)
            spec = PenaltySpec("soft", 0.1)
            a = ista(data, spec, max_iter=20000)
            b = coord_descent_l1(data, 0.1)
            assert a.converged
            assert a.objective == pytest.approx(b.objective, abs=1e-6)
            assert np.max(np.abs(a.beta_hat - b.beta_hat)) < 1e-4

    def test_trace_starts_at_zero_iterate_and_never_rises(self):
        data = sparse_problem(35)
        for spec in [PenaltySpec("soft", 0.2), PenaltySpec("scad", 0.2, 3.7),
                     PenaltySpec("mcp", 0.2, 3.0), PenaltySpec("hard", 0.2)]:
            fit = ista(data, spec)
            trace = fit.objective_trace
            assert trace[0] == pytest.approx(
                penalized_objective(data, np.zeros(data.d), spec), rel=1e-14)
            assert trace[-1] == pytest.approx(fit.objective, rel=1e-14)
            assert np.all(np.diff(trace) <= 1e-10)

    def test_smaller_step_still_converges(self):
        data = sparse_problem(36)
        L = largest_gram_eigenvalue(data.X)
        spec = PenaltySpec("soft", 0.15)
        slow = ista(data, spec, step=0.5 / L, max_iter=20000)
        fast = ista(data, spec)
        assert slow.objective == pytest.approx(fast.objective, abs=1e-8)

    def test_step_validation(self):
        data = sparse_problem(37)
        L = largest_gram_eigenvalue(data.X)
        spec = PenaltySpec("soft", 0.1)
        with pytest.raises(StepSizeError):
            ista(data, spec, step=2.0 / L)
        with pytest.raises(StepSizeError):
            ista(data, spec, step=0.0)
        with pytest.raises(StepSizeError):
            ista(data, spec, step=np.inf)

    def test_rejects_plain_string_penalty(self):
        data = sparse_problem(38)
        with pytest.raises(ConfigurationError):
            ista(data, "soft")

    def test_requires_standardized_design(self):
        rng = np.random.default_rng(39)
        Z = rng.standard_normal((30, 5))
        Z = (Z - Z.mean(axis=0)) / Z.std(axis=0)
        data = Dataset(3.0 * Z + 1.0, rng.standard_normal(30))
        with pytest.raises(NotStandardizedError):
            ista(data, PenaltySpec("soft", 0.1))


class TestLla:
    def test_rejects_convex_penalty(self):
        data = sparse_problem(40)
        with pytest.raises(ConfigurationError):
            lla(data, PenaltySpec("soft", 0.1))

    def test_first_round_is_exactly_the_lasso(self):
        data = sparse_problem(41)
        spec = PenaltySpec("scad", 0.2, 3.7)
        one = lla(data, spec, max_outer=1)
        lasso = coord_descent_l1(data, 0.2)
        assert np.array_equal(one.beta_hat, lasso.beta_hat)

    def test_objective_never_increases(self):
        for seed in range(10):
            data = sparse_problem(50 + seed)
            family = "scad" if seed % 2 else "mcp"
            gamma = 3.7 if family == "scad" else 3.0
            fit = lla(data, PenaltySpec(family, 0.15, gamma))
            assert np.all(np.diff(fit.objective_trace) <= 1e-10)
            assert fit.objective == pytest.approx(fit.objective_trace[-1], rel=1e-14)

    def test_debiases_strong_signals(self):
        # Strong coefficients sit on the flat part of the folded penalty, so
        # the reweighted fit should land much closer to the truth than the
        # Lasso at the same lambda, and on exactly the true support.
        spec = LinearModelSpec(n=200, d=50, beta={0: 3.0, 1: -2.0, 2: 2.0},
                               noise_sd=0.5)
        data = standardize(gen_linear(spec, 123))
        truth = np.zeros(50)
        truth[[0, 1, 2]] = [3.0, -2.0, 2.0]
        pen = PenaltySpec("scad", 0.2, 3.7)
        folded = lla(data, pen)
        lasso = coord_descent_l1(data, 0.2)
        assert np.array_equal(folded.active_set, [0, 1, 2])
        err_folded = np.max(np.abs(folded.beta_hat - truth))
        err_lasso = np.max(np.abs(lasso.beta_hat - truth))
        assert err_folded < 0.5 * err_lasso

    def test_default_round_cap_covers_slow_scad_fits(self):
        # This SCAD fit needs 34 reweighting rounds; a cap of 20 stops it
        # short of the fixed point.
        spec = LinearModelSpec(n=100, d=40, beta={0: 3.0, 1: -2.5, 2: 2.0, 3: -1.5,
                                                  4: 1.25, 5: -1.0}, noise_sd=1.0)
        data = standardize(gen_linear(spec, 3))
        data = Dataset(data.X, data.y - data.y.mean())
        lam_max = float(np.max(np.abs(data.X.T @ data.y))) / data.n
        pen = PenaltySpec("scad", 0.2 * lam_max, 3.7)
        assert not lla(data, pen, max_outer=20).converged
        fit = lla(data, pen)
        assert fit.converged
        assert fit.iterations > 20

    def test_default_round_cap_covers_the_readme_cv_fold(self):
        # The training fold 2 of 5 that `hdlab fit --solver lla --penalty
        # scad:3.7 --lambda-grid 0.5,0.1,0.02 --cv-folds 5` builds from the
        # README quick-start model: at lambda 0.02 SCAD needs 113 rounds.
        raw = gen_linear(LinearModelSpec(n=100, d=400, beta={0: 2.0, 3: -1.5},
                                         noise_sd=0.5), seed=7)
        data = standardize(raw)
        chunks = np.array_split(np.random.default_rng(0).permutation(data.n), 5)
        train_idx = np.concatenate([chunks[k] for k in range(5) if k != 1])
        train = standardize(Dataset(data.X[train_idx], data.y[train_idx]))
        fit = lla(train, PenaltySpec("scad", 0.02, 3.7))
        assert fit.converged
        assert fit.iterations > 100

    def test_unconverged_inner_solve_is_reported(self, monkeypatch):
        # With one sweep per inner solve the weights settle after 2 rounds
        # while the fit is still up to 9e-3 from SCAD stationarity. On these
        # seeds the exact solve on round 1's support is refused (a spy on
        # _support_start shows it), so round 2 is coordinate descent too, and
        # the fit must not be reported converged.
        spec = LinearModelSpec(n=100, d=20, beta={0: 2.0, 3: -1.0}, noise_sd=0.5)
        pen = PenaltySpec("scad", 0.1, 3.7)
        starts = []
        real = solvers._support_start
        monkeypatch.setattr(solvers, "_support_start",
                            lambda *a: starts.append(real(*a)) or starts[-1])
        for seed in (0, 2, 5):
            data = standardize(gen_linear(spec, seed))
            del starts[:]
            assert not lla(data, pen, inner_max_iter=1).converged
            assert starts == [None]
            assert lla(data, pen).converged

    def test_exact_final_round_after_unconverged_sweeps(self, monkeypatch):
        # Seed 1 of the test above: the start for round 2 is refused, but
        # round 3 starts from round 2's support and walks to an exact point,
        # so the fit is converged and meets SCAD stationarity although no
        # coordinate descent converged.
        spec = LinearModelSpec(n=100, d=20, beta={0: 2.0, 3: -1.0}, noise_sd=0.5)
        pen = PenaltySpec("scad", 0.1, 3.7)
        data = standardize(gen_linear(spec, 1))
        calls = []
        real = kernels.cd_weighted_l1
        monkeypatch.setattr(kernels, "cd_weighted_l1",
                            lambda *a: calls.append(real(*a)) or calls[-1])
        fit = lla(data, pen, inner_max_iter=1)
        assert fit.converged and fit.iterations == 3
        assert calls == [(1, False), (1, False)]
        weights = penalty_derivative(pen, np.abs(fit.beta_hat))
        assert kkt_violation(data, fit.beta_hat, weights) <= 1e-8

    def test_exact_round_meets_its_kkt_bound(self):
        # Round 2 of SCAD from the Lasso: the start is the exact solution on
        # the Lasso's support, and the walk to the weights P'(|b|) drops
        # column 39 and adds column 5 on its way to the weighted-L1 minimizer.
        data = sparse_problem(40, d=40, noise=1.0)
        pen = PenaltySpec("scad", 0.1, 3.7)
        beta = coord_descent_l1(data, 0.1).beta_hat
        old = np.full(data.d, 0.1)
        weights = penalty_derivative(pen, np.abs(beta))
        bound = solvers._EXACT_KKT_TOL * max(1.0, float(np.linalg.norm(data.y))
                                             / math.sqrt(data.n))
        start = solvers._support_start(data, old, beta, bound)
        assert start[0] == np.flatnonzero(beta).tolist()
        ends, count, kinks, _ = solvers._homotopy(data.X, data.y, np.zeros(1), weights,
                                                  old - weights, start)
        exact = ends[0]
        assert count == 1 and kinks == 2
        assert kkt_violation(data, exact, weights) <= bound
        cd = coord_descent_weighted_l1(data, weights, beta_init=beta, tol=1e-14)
        assert np.max(np.abs(exact - cd.beta_hat)) <= 1e-9
        # The start now holds the end point's active set, signs and factor,
        # ready for the next round's walk.
        active, signs, XA, F = start
        k = len(active)
        assert sorted(active) == np.flatnonzero(exact).tolist()
        assert signs == np.sign(exact[active]).tolist()
        assert np.array_equal(XA[:, :k], data.X[:, active])
        gram = XA[:, :k].T @ XA[:, :k] / data.n
        assert np.max(np.abs(F[:k, :k] @ F[:k, :k].T @ gram - np.eye(k))) <= 1e-12

    def test_sign_flip_falls_back_to_coordinate_descent(self):
        # The true coefficient on column 3 is -1.5; at +0.5 there the solve
        # on the support and signs comes out negative, so the start is
        # refused.
        data = sparse_problem(44)
        pen = PenaltySpec("mcp", 0.1, 3.0)
        init = np.zeros(data.d)
        init[[0, 3]] = 2.0, 0.5
        weights = penalty_derivative(pen, np.abs(init))
        assert solvers._support_start(data, weights, init, 1.0) is None
        # In lla a round with a refused start is coordinate descent
        # warm-started from the current iterate: seed 0 of the tests above
        # refuses round 2's start.
        spec = LinearModelSpec(n=100, d=20, beta={0: 2.0, 3: -1.0}, noise_sd=0.5)
        pen = PenaltySpec("scad", 0.1, 3.7)
        data = standardize(gen_linear(spec, 0))
        two = lla(data, pen, max_outer=2, inner_max_iter=1)
        one = coord_descent_weighted_l1(data, np.full(data.d, 0.1), max_iter=1).beta_hat
        cd = coord_descent_weighted_l1(data, penalty_derivative(pen, np.abs(one)),
                                       beta_init=one, max_iter=1)
        assert np.array_equal(two.beta_hat, cd.beta_hat)

    def test_support_of_n_columns_falls_back_to_coordinate_descent(self):
        # n centered columns span at most n - 1 dimensions, so the Gram
        # matrix of a support that large is singular: a start on it is
        # refused, and a walk stops before its active set reaches n columns.
        data = standardize(gen_iid_gaussian(10, 20, seed=45))
        data = Dataset(data.X, np.random.default_rng(45).standard_normal(10))
        pen = PenaltySpec("scad", 0.05, 3.7)
        for size in (10, 12):
            init = np.zeros(20)
            init[:size] = 0.1
            weights = penalty_derivative(pen, np.abs(init))
            assert solvers._support_start(data, weights, init, 1.0) is None
        # From the Lasso at 0.3 toward zero weights the path gains columns
        # until 9 are active and a tenth would enter.
        old = np.full(20, 0.3)
        start = solvers._support_start(data, old, lasso_path(data, [0.3]).betas[0], 1e-12)
        _, count, _, _ = solvers._homotopy(data.X, data.y, np.zeros(1), np.zeros(20), old,
                                           start)
        assert count == 0 and len(start[0]) == 9

    def test_stopped_walk_falls_back_to_coordinate_descent(self, monkeypatch):
        # With a pivot floor no column can meet, every walk that would add
        # a column stops, and its round is coordinate descent instead: the
        # rounds and the fit are those of the walks, within the inner
        # tolerance.
        data = sparse_problem(40, d=40, noise=1.0)
        pen = PenaltySpec("scad", 0.1, 3.7)
        walked = lla(data, pen)
        calls = []
        real = kernels.cd_weighted_l1
        monkeypatch.setattr(kernels, "cd_weighted_l1",
                            lambda *a: calls.append(1) or real(*a))
        monkeypatch.setattr(solvers, "_GRAM_PIVOT_FLOOR", 2.0)
        fit = lla(data, pen)
        assert fit.converged and fit.iterations == walked.iterations
        assert np.max(np.abs(fit.beta_hat - walked.beta_hat)) <= 1e-9
        assert len(calls) > 1

    def test_tie_at_the_start_of_a_walk(self):
        # Column j enters the Lasso path at lam_k. Starting at the Lasso
        # solution there, with j's weight 1e-15 below its |c_j| (within the
        # start's KKT bound), j's join root lies just above s = 1. The walk
        # down to the Lasso at 0.8 lam_k must take it at the start: a rule
        # that took only events below the current level would miss it, and
        # the end point would fail its KKT conditions.
        data, lam_max = lasso_fold_problem(11, n=60, d=80)
        X, y, n = data.X, data.y, data.n
        beta = lasso_path(data, [0.5 * lam_max]).betas[0]
        A = np.flatnonzero(beta)
        XA = X[:, A]
        u, delta = np.linalg.solve(XA.T @ XA / n,
                                   np.column_stack([XA.T @ y / n, np.sign(beta[A])])).T
        c0, a = X.T @ (y - XA @ u) / n, X.T @ (XA @ delta) / n
        with np.errstate(divide="ignore"):
            roots = np.maximum(c0 / (1.0 - a), -c0 / (1.0 + a))
        roots[(roots >= 0.5 * lam_max) | (roots <= 0.0)] = -np.inf
        roots[A] = -np.inf
        j = int(np.argmax(roots))
        lam_k = float(roots[j])
        at_k = np.zeros(data.d)
        at_k[A] = u - lam_k * delta
        old = np.full(data.d, lam_k)
        old[j] = abs(c0[j] + lam_k * a[j]) * (1.0 - 1e-15)
        bound = solvers._EXACT_KKT_TOL * max(1.0, float(np.linalg.norm(y)) / math.sqrt(n))
        start = solvers._support_start(data, old, at_k, bound)
        assert start is not None
        new = np.full(data.d, 0.8 * lam_k)
        ends, count, kinks, _ = solvers._homotopy(X, y, np.zeros(1), new, old - new, start)
        assert count == 1 and kinks >= 1 and j in start[0]
        assert kkt_violation(data, ends[0], new) <= bound
        want = lasso_path(data, [0.8 * lam_k]).betas[0]
        assert np.max(np.abs(ends[0] - want)) <= 1e-9

    def test_same_rounds_as_coordinate_descent_only(self, monkeypatch):
        # The reference is the reweighting loop with a coordinate descent
        # solve in every round. On criterion-04-style instances the exact
        # rounds change neither the round count nor, beyond the inner
        # tolerance, the fit; and most rounds skip the kernel.
        def cd_only(data, pen, tol=1e-8, max_outer=100):
            beta = np.zeros(data.d)
            weights = penalty_derivative(pen, beta)
            for outer in range(1, max_outer + 1):
                beta = coord_descent_weighted_l1(data, weights, beta_init=beta).beta_hat
                new = penalty_derivative(pen, np.abs(beta))
                if np.max(np.abs(new - weights)) < tol:
                    return beta, outer
                weights = new
            return beta, max_outer

        calls = []
        real = kernels.cd_weighted_l1
        monkeypatch.setattr(kernels, "cd_weighted_l1",
                            lambda *a: calls.append(1) or real(*a))
        rng = np.random.default_rng(4)
        rounds = kernel_calls = 0
        for inst in range(20):
            n, d = int(rng.integers(40, 81)), int(rng.integers(10, 31))
            spec = LinearModelSpec(n=n, d=d, beta={0: 2.0, 3: -1.5}, noise_sd=0.6)
            data = standardize(gen_linear(spec, 4000 + inst))
            lam = float(rng.uniform(0.05, 0.4))
            if inst % 2:
                pen = PenaltySpec("scad", lam, float(rng.uniform(2.1, 6.0)))
            else:
                pen = PenaltySpec("mcp", lam, float(rng.uniform(1.5, 6.0)))
            want, outer = cd_only(data, pen)
            del calls[:]
            fit = lla(data, pen)
            assert fit.converged
            assert fit.iterations == outer, inst
            assert np.max(np.abs(fit.beta_hat - want)) <= 1e-9, inst
            assert 1 <= len(calls) <= outer
            assert np.all(np.diff(fit.objective_trace) <= 1e-10)
            rounds += outer
            kernel_calls += len(calls)
        assert kernel_calls < rounds / 2

    def test_validation(self):
        data = sparse_problem(42)
        spec = PenaltySpec("mcp", 0.1, 3.0)
        with pytest.raises(ValidationError):
            lla(data, spec, init=np.ones(3))
        with pytest.raises(ConfigurationError):
            lla(data, spec, max_outer=0)

    @pytest.mark.parametrize("bad", [{"tol": -1.0}, {"tol": 0.0}, {"tol": float("nan")},
                                     {"inner_tol": 0.0}, {"inner_max_iter": 0}],
                             ids=["tol-1", "tol0", "tol-nan", "inner_tol0", "inner_max_iter0"])
    def test_rejects_bad_tolerances(self, bad):
        # A tol of 0 or NaN can never be met, so every round would run; and
        # with an init that has a support, exact rounds need not reach the
        # inner solver's own checks.
        data = sparse_problem(42)
        with pytest.raises(ConfigurationError):
            lla(data, PenaltySpec("mcp", 0.1, 3.0), init=np.ones(data.d), **bad)


def lstsq_scan(data, lam):
    """best_subset_l0 as one lstsq per support, in scan order: the reference
    that the ranked search must reproduce bit for bit. Returns (beta,
    objective, iterations)."""
    X, y, n = data.X, data.y, data.n
    best_obj = float(y @ y) / (2.0 * n)
    best_support, best_coef = (), np.zeros(0)
    count = 1
    for size in range(1, data.d + 1):
        for support in itertools.combinations(range(data.d), size):
            cols = X[:, support]
            coef, _, _, _ = np.linalg.lstsq(cols, y, rcond=None)
            r = y - cols @ coef
            obj = float(r @ r) / (2.0 * n) + lam * size
            count += 1
            if obj < best_obj:
                best_obj, best_support, best_coef = obj, support, coef
    beta = np.zeros(data.d)
    beta[list(best_support)] = best_coef
    return beta, best_obj, count


def adversarial_design(kind, seed):
    """A design on which ranking supports by Gram solves is least reliable."""
    rng = np.random.default_rng(seed)
    n, d = (6, 10) if kind == "n<d" else (30, 9)
    X = rng.standard_normal((n, d))
    if kind == "duplicate":
        X[:, 6] = X[:, 1]
    elif kind == "twin-1e-9":
        X[:, 6] = X[:, 1] + 1e-9 * rng.standard_normal(n)
    elif kind == "triple-1e-10":
        X[:, 7] = X[:, 0] + X[:, 3] + 1e-10 * rng.standard_normal(n)
    y = X[:, [0, 1, 3]] @ np.array([1.5, -1.0, 0.5]) + 0.3 * rng.standard_normal(n)
    if kind == "ten-decades":
        X = X * 10.0 ** np.linspace(-5.0, 5.0, d)
    return Dataset(X, y)


class TestBestSubset:
    @pytest.mark.parametrize("lam", [0.0, 1e-6, 0.05])
    @pytest.mark.parametrize("kind", ["duplicate", "twin-1e-9", "triple-1e-10",
                                      "ten-decades", "n<d"])
    def test_bits_of_one_lstsq_per_support(self, kind, lam):
        for seed in range(3):
            data = adversarial_design(kind, 6700 + seed)
            beta, objective, iterations = lstsq_scan(data, lam)
            fit = best_subset_l0(data, lam)
            assert np.array_equal(fit.beta_hat, beta)
            assert fit.objective == objective
            assert fit.iterations == iterations == 2 ** data.d

    def test_refits_only_the_near_best_supports(self, monkeypatch):
        # A well-conditioned d = 15 design: one lstsq per support would make
        # 32,767 calls.
        rng = np.random.default_rng(68)
        X = rng.standard_normal((60, 15))
        data = Dataset(X, X[:, :3] @ np.array([1.0, -1.0, 0.5]) + rng.standard_normal(60))
        calls = []
        lstsq = np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "lstsq",
                            lambda *a, **k: calls.append(1) or lstsq(*a, **k))
        for lam in (0.0, 0.01):
            calls.clear()
            assert best_subset_l0(data, lam).iterations == 2 ** 15
            assert 0 < len(calls) <= 0.01 * 2 ** 15

    def test_zero_penalty_matches_full_ols_loss(self):
        data = sparse_problem(60, n=40, d=6)
        fit = best_subset_l0(data, 0.0)
        full = ols_refit(data, np.arange(6))
        assert fit.objective == pytest.approx(full.objective, abs=1e-12)

    def test_huge_penalty_selects_nothing(self):
        data = sparse_problem(61, n=40, d=6)
        fit = best_subset_l0(data, 1e6)
        assert np.array_equal(fit.beta_hat, np.zeros(6))
        assert fit.objective == pytest.approx(
            float(data.y @ data.y) / (2 * data.n), rel=1e-14)

    def test_recovers_planted_support(self):
        spec = LinearModelSpec(n=60, d=8, beta={0: 2.0, 3: -1.5}, noise_sd=0.1)
        data = standardize(gen_linear(spec, 62))
        fit = best_subset_l0(data, 0.05)
        assert np.array_equal(fit.active_set, [0, 3])

    def test_tie_prefers_earlier_support(self):
        rng = np.random.default_rng(63)
        col = rng.standard_normal(30)
        col = (col - col.mean()) / col.std(ddof=1)
        other = rng.standard_normal(30)
        other = (other - other.mean()) / other.std(ddof=1)
        X = np.column_stack([col, col, other])
        data = Dataset(X, col.copy())
        fit = best_subset_l0(data, 0.01)
        assert np.array_equal(fit.active_set, [0])

    def test_dominates_alternatives_under_its_objective(self):
        rng = np.random.default_rng(64)
        for trial in range(20):
            data = sparse_problem(640 + trial, n=30, d=8)
            lam = float(rng.uniform(0.01, 0.3))
            fit = best_subset_l0(data, lam)
            base = l0_objective(data, fit.beta_hat, lam)
            assert base == pytest.approx(fit.objective, rel=1e-12)
            for _ in range(10):
                size = int(rng.integers(0, 5))
                support = rng.choice(8, size=size, replace=False)
                rival = ols_refit(data, support)
                assert base <= l0_objective(data, rival.beta_hat, lam) + 1e-10

    def test_dimension_cap(self):
        data = Dataset(np.random.default_rng(65).standard_normal((10, 16)),
                       np.zeros(10))
        with pytest.raises(SizeLimitError):
            best_subset_l0(data, 0.1)
        with pytest.raises(ValidationError):
            best_subset_l0(sparse_problem(66, d=5), -1.0)


class TestDantzig:
    def test_wide_constraint_returns_zero(self):
        data = sparse_problem(70, n=40, d=6)
        gamma = float(np.max(np.abs(data.X.T @ data.y))) * 1.01
        fit = dantzig_selector(HighConfidenceSetSpec(data, gamma))
        assert np.array_equal(fit.beta_hat, np.zeros(6))
        assert fit.objective == 0.0

    def test_identity_design_soft_thresholds(self):
        rng = np.random.default_rng(71)
        n = 7
        y = rng.normal(scale=2.0, size=n)
        data = Dataset(np.eye(n), y)
        gamma = 0.8
        fit = dantzig_selector(HighConfidenceSetSpec(data, gamma))
        assert np.max(np.abs(fit.beta_hat - soft(y, gamma))) < 1e-8
        assert fit.iterations >= 1

    def test_matches_reference_lp_solver(self):
        for seed in range(5):
            data = sparse_problem(72 + seed, n=25, d=8)
            gamma = 0.4 * float(np.max(np.abs(data.X.T @ data.y)))
            fit = dantzig_selector(HighConfidenceSetSpec(data, gamma))
            G = data.X.T @ data.X
            g = data.X.T @ data.y
            A = np.block([[G, -G], [-G, G]])
            b = np.concatenate([gamma + g, gamma - g])
            ref = linprog(np.ones(16), A_ub=A, b_ub=b, bounds=(0, None),
                          method="highs")
            assert ref.status == 0
            assert fit.objective == pytest.approx(ref.fun, abs=1e-7)

    def test_solution_lies_in_the_set(self):
        data = sparse_problem(78, n=30, d=10)
        gamma = 0.5 * float(np.max(np.abs(data.X.T @ data.y)))
        spec = HighConfidenceSetSpec(data, gamma)
        fit = dantzig_selector(spec)
        assert hcs_membership(spec, fit.beta_hat)
        assert not hcs_membership(spec, np.full(10, 50.0))

    def test_membership_validation(self):
        data = sparse_problem(79, d=6)
        spec = HighConfidenceSetSpec(data, 1.0)
        with pytest.raises(ValidationError):
            hcs_membership(spec, np.zeros(5))
        with pytest.raises(ValidationError):
            HighConfidenceSetSpec(data, -1.0)

    def test_size_cap_comes_before_the_tableau(self, monkeypatch):
        import hdlab.solvers as solvers

        data = sparse_problem(83, n=30, d=6)
        spec = HighConfidenceSetSpec(data, 0.5 * float(np.max(np.abs(data.X.T @ data.y))))
        monkeypatch.setattr(solvers, "DANTZIG_MAX_D", 6)
        assert dantzig_selector(spec).iterations >= 1
        monkeypatch.setattr(solvers, "DANTZIG_MAX_D", 5)
        monkeypatch.setattr(solvers, "linprog_simplex", None)  # not reached
        with pytest.raises(SizeLimitError, match="screen"):
            dantzig_selector(spec)

    def perturbed(self, monkeypatch, change):
        """Route dantzig_selector's LP through `change`, which edits the
        (lam, objective, pivots, multipliers) tuple of the real solve."""
        import hdlab.solvers as solvers

        real = solvers.linprog_simplex
        monkeypatch.setattr(solvers, "linprog_simplex",
                            lambda c, A, b: change(*real(c, A, b)))
        data = sparse_problem(84, n=30, d=8)
        return HighConfidenceSetSpec(data, 0.4 * float(np.max(np.abs(data.X.T @ data.y))))

    def test_perturbed_multipliers_raise(self, monkeypatch):
        # Scaling the multipliers by 1 + 1e-6 moves beta off the optimum by
        # far more than the gap bound allows (and off the constraint set).
        spec = self.perturbed(monkeypatch,
                              lambda lam, obj, piv, u: (lam, obj, piv, u * (1.0 + 1e-6)))
        with pytest.raises(SolverError):
            dantzig_selector(spec)

    def test_infeasible_dual_point_raises(self, monkeypatch):
        # The optimal dual point meets some |G w|_j <= 1 with equality, so
        # doubling it leaves the dual feasible set.
        spec = self.perturbed(monkeypatch, lambda lam, obj, piv, u: (2.0 * lam, obj, piv, u))
        with pytest.raises(SolverError, match="infeasible dual point"):
            dantzig_selector(spec)

    def test_duality_gap_raises(self, monkeypatch):
        # Half the dual point stays feasible but its objective halves.
        spec = self.perturbed(monkeypatch,
                              lambda lam, obj, piv, u: (0.5 * lam, 0.5 * obj, piv, u))
        with pytest.raises(SolverError, match="duality gap"):
            dantzig_selector(spec)

    def test_certificate_on_the_readme_model(self, monkeypatch):
        # The README quick-start model at the default radius: the dual point
        # and the gap are within their bounds, and the LP's b is all ones.
        import hdlab.solvers as solvers

        raw = gen_linear(LinearModelSpec(n=100, d=400, beta={0: 2.0, 3: -1.5},
                                         noise_sd=0.5), seed=7)
        data = standardize(Dataset(raw.X, raw.y - raw.y.mean()))
        spec = HighConfidenceSetSpec(data, default_gamma_n(data))
        calls = []
        real = solvers.linprog_simplex

        def spy(c, A, b):
            calls.append((c, A, b, real(c, A, b)))
            return calls[-1][3]

        monkeypatch.setattr(solvers, "linprog_simplex", spy)
        fit = dantzig_selector(spec)
        (b, negA, ones, (lam, dual_obj, pivots, _)), = calls
        assert np.array_equal(ones, np.ones(800)) and pivots == fit.iterations
        G = data.X.T @ data.X
        assert np.array_equal(negA[:400, :400], -G)
        assert np.min(lam) >= 0.0
        assert np.max(np.abs(G @ (lam[:400] - lam[400:]))) <= 1.0 + solvers._DANTZIG_DUAL_TOL
        l1 = float(np.sum(np.abs(fit.beta_hat)))
        assert fit.objective == l1 > 0.0
        assert abs(dual_obj + l1) <= solvers._DANTZIG_GAP_RTOL * (l1 + np.abs(b) @ lam)
        assert hcs_membership(spec, fit.beta_hat)
        assert {0, 3} <= set(fit.active_set.tolist())

    @pytest.mark.parametrize("seed", range(3))
    def test_few_pivots_on_a_screened_wide_problem(self, seed):
        # perfbench's screen_fit LP: n = 400, d = 5000 screened to the top
        # 66 columns, radius sigma sqrt(2 n log 5000) with sigma = 1. Bland's
        # entering rule alone took 48-59 pivots on these; the most negative
        # reduced cost takes 6 or 7.
        spec = LinearModelSpec(n=400, d=5000, noise_sd=1.0,
                               beta={0: 3.0, 1: -2.5, 2: 2.0, 3: -1.5, 4: 1.25, 5: -1.0})
        std = standardize(gen_linear(spec, seed))
        data = Dataset(std.X, std.y - std.y.mean())
        sub = Dataset(data.X[:, sis_select(data).survivors], data.y)
        assert sub.d == 66
        gamma = math.sqrt(2 * 400 * math.log(5000))
        fit = dantzig_selector(HighConfidenceSetSpec(sub, gamma))
        assert 1 <= fit.iterations <= 20
        G = sub.X.T @ sub.X
        g = sub.X.T @ sub.y
        ref = linprog(np.ones(132), A_ub=np.block([[G, -G], [-G, G]]),
                      b_ub=np.concatenate([gamma + g, gamma - g]), bounds=(0, None),
                      method="highs")
        assert ref.status == 0
        assert abs(fit.objective - ref.fun) <= 1e-9 * ref.fun
        assert {0, 1, 2, 3, 4, 5} <= set(fit.active_set.tolist())

    def test_default_radius(self):
        data = sparse_problem(80, n=50, d=20)
        sigma = float(np.std(data.y, ddof=1))
        want = sigma * math.sqrt(2 * 50 * math.log(20))
        assert default_gamma_n(data) == pytest.approx(want, rel=1e-12)
        assert default_gamma_n(data, scale=2.5) == pytest.approx(2.5 * want, rel=1e-12)

    def test_default_radius_selects_the_true_support(self):
        # The radius bounds X'r without the 1/n; on the X'r/n scale it kept
        # 47-50 of the 50 columns here.
        spec = LinearModelSpec(n=200, d=50, beta={0: 2.0, 1: -1.5, 2: 1.0},
                               noise_sd=1.0)
        for seed in range(3):
            data = standardize(gen_linear(spec, seed))
            data = Dataset(data.X, data.y - data.y.mean())
            fit = dantzig_selector(HighConfidenceSetSpec(data, default_gamma_n(data)))
            assert np.array_equal(fit.active_set, [0, 1, 2])

    def test_default_radius_edge_cases(self):
        one_col = Dataset(np.random.default_rng(81).standard_normal((20, 1)),
                          np.random.default_rng(82).standard_normal(20))
        assert default_gamma_n(one_col) == 0.0
        tiny = Dataset(np.ones((1, 3)), np.ones(1))
        with pytest.raises(ValidationError):
            default_gamma_n(tiny)
        with pytest.raises(ConfigurationError):
            default_gamma_n(one_col, scale=0.0)


class TestOlsRefit:
    def test_identity_design(self):
        y = np.arange(1.0, 6.0)
        data = Dataset(np.eye(5), y)
        fit = ols_refit(data, [1, 3])
        want = np.zeros(5)
        want[[1, 3]] = y[[1, 3]]
        assert np.allclose(fit.beta_hat, want, atol=1e-12)

    def test_empty_support(self):
        data = sparse_problem(90)
        fit = ols_refit(data, [])
        assert np.array_equal(fit.beta_hat, np.zeros(data.d))
        assert fit.objective == pytest.approx(
            float(data.y @ data.y) / (2 * data.n), rel=1e-14)

    def test_matches_normal_equations(self):
        data = sparse_problem(91, n=60, d=10)
        support = np.array([0, 2, 5, 7])
        fit = ols_refit(data, support)
        Xs = data.X[:, support]
        want = np.linalg.solve(Xs.T @ Xs, Xs.T @ data.y)
        assert np.max(np.abs(fit.beta_hat[support] - want)) < 1e-8
        off = np.setdiff1d(np.arange(10), support)
        assert np.all(fit.beta_hat[off] == 0.0)

    def test_duplicate_indices_collapse(self):
        data = sparse_problem(92)
        a = ols_refit(data, [3, 0, 3])
        b = ols_refit(data, [0, 3])
        assert np.array_equal(a.beta_hat, b.beta_hat)

    def test_rank_deficient_support_rejected(self):
        rng = np.random.default_rng(93)
        col = rng.standard_normal(20)
        X = np.column_stack([col, col, rng.standard_normal(20)])
        data = Dataset(X, rng.standard_normal(20))
        with pytest.raises(SingularityError):
            ols_refit(data, [0, 1])

    def test_index_and_size_errors(self):
        data = sparse_problem(94, d=5)
        with pytest.raises(ValidationError):
            ols_refit(data, [0, 5])
        with pytest.raises(ValidationError):
            ols_refit(data, [-1])
        short = Dataset(np.random.default_rng(95).standard_normal((3, 5)),
                        np.zeros(3))
        with pytest.raises(SingularityError):
            ols_refit(short, [0, 1, 2, 3])


def find_copy_split_seed(n_half, folds=2, limit=5000):
    """Seed whose 2-fold split puts one copy of each duplicated row per fold."""
    n = 2 * n_half
    for seed in range(limit):
        perm = np.random.default_rng(seed).permutation(n)
        chunk = np.array_split(perm, folds)[0]
        if {int(p) % n_half for p in chunk} == set(range(n_half)):
            return seed
    raise AssertionError("no copy-preserving split found")


def lasso_fold_problem(seed, n=160, d=200):
    """The shape of one endogeneity training fold, with planted coupling."""
    spec = LinearModelSpec(n=n, d=d, beta={0: 2.0, 1: 2.0, 2: 2.0},
                           endogenous_set={3 + j: 0.8 for j in range(30)},
                           endogenous_mode="direct")
    data = standardize(gen_linear(spec, seed))
    lam_max = float(np.max(np.abs(data.X.T @ data.y))) / data.n
    return data, lam_max


def homotopy_by_solves(X, y, levels):
    """Reference Lasso homotopy that solves the active Gram system afresh at
    every kink, with the event rules of solvers._homotopy. Returns the rows
    at `levels`, the kinks crossed and how many of them were a column
    leaving."""
    n, d = X.shape
    betas = np.zeros((levels.size, d))
    c = X.T @ y / n
    lam = float(np.max(np.abs(c)))
    count = int(np.count_nonzero(levels >= lam))
    changed = int(np.argmax(np.abs(c)))
    active, signs = [changed], [np.sign(c[changed])]
    kinks = leaves = 0
    slack = 1e-12 * lam
    while True:
        XA = X[:, active]
        u, delta = np.linalg.solve(XA.T @ XA / n, np.column_stack([XA.T @ y / n, signs])).T
        c0 = X.T @ (y - XA @ u) / n
        a = X.T @ (XA @ delta) / n
        with np.errstate(divide="ignore", invalid="ignore"):
            roots = np.vstack([c0 / (1.0 - a), -c0 / (1.0 + a)])
            leave = u / delta
        roots[~((roots > 0.0) & (roots <= lam + slack))] = -np.inf
        join = roots.max(axis=0)
        join[active + [changed]] = -np.inf
        leave[~((leave > 0.0) & (leave <= lam + slack))] = -np.inf
        if changed in active:
            leave[active.index(changed)] = -np.inf
        j_in, i_out = int(np.argmax(join)), int(np.argmax(leave))
        lam = min(max(float(join[j_in]), float(leave[i_out]), 0.0), lam)
        while count < levels.size and levels[count] >= lam:
            betas[count, active] = u - levels[count] * delta
            count += 1
        if count == levels.size:
            return betas, kinks, leaves
        if leave[i_out] >= join[j_in]:
            changed = active.pop(i_out)
            del signs[i_out]
            leaves += 1
        else:
            active.append(j_in)
            signs.append(np.sign(c0[j_in] + lam * a[j_in]))
            changed = j_in
        kinks += 1


class TestLassoPath:
    @pytest.mark.parametrize("seed, n, d, low, size, tol", [
        pytest.param(11, 160, 200, 0.01, 20, 1e-12, id="11"),
        pytest.param(21, 160, 200, 0.01, 20, 1e-12, id="21"),
        pytest.param(31, 160, 200, 0.01, 20, 1e-12, id="31"),
        # A long path with 55 leaves and a wide one with 16, on which an
        # explicit G^-1 carried by rank-one updates drifts 3.2e-10 and
        # 2.1e-11 from fresh solves.
        pytest.param(11, 160, 200, 1e-4, 30, 1e-11, id="11-long"),
        pytest.param(11, 60, 400, 0.01, 20, 1e-11, id="11-wide"),
    ])
    def test_updated_inverse_matches_fresh_solves(self, seed, n, d, low, size, tol):
        import hdlab.solvers as solvers

        data, lam_max = lasso_fold_problem(seed, n=n, d=d)
        levels = np.geomspace(lam_max, low * lam_max, size)
        betas, count, kinks, _ = solvers._homotopy(data.X, data.y, levels)
        want, want_kinks, leaves = homotopy_by_solves(data.X, data.y, levels)
        assert leaves > 0
        assert count == levels.size
        assert kinks == want_kinks
        assert np.max(np.abs(betas - want)) <= tol

    def test_agrees_with_coordinate_descent(self):
        data, lam_max = lasso_fold_problem(11)
        grid = np.geomspace(lam_max, 0.01 * lam_max, 20)
        path = lasso_path(data, grid)
        assert path.kinks > 0
        assert np.all(path.kkt_violation <= 1e-9)
        beta = None
        for lam, row, viol in zip(grid, path.betas, path.kkt_violation):
            assert viol == kkt_violation(data, row, lam)
            beta = coord_descent_l1(data, lam, beta_init=beta, tol=1e-12).beta_hat
            assert np.max(np.abs(row - beta)) <= 1e-9

    def test_degenerate_wide_design_certified(self):
        # At lam = 0 with d > n the homotopy ends on a spurious entry that
        # would give n active columns; coordinate descent finishes the path.
        rng = np.random.default_rng(7)
        X = rng.standard_normal((15, 40))
        y = X[:, 0] + 0.5 * X[:, 1] + 0.3 * rng.standard_normal(15)
        data = standardize(Dataset(X, y))
        lam_max = float(np.max(np.abs(data.X.T @ data.y))) / data.n
        grid = np.append(np.geomspace(lam_max, 0.01 * lam_max, 10), 0.0)
        path = lasso_path(data, grid)
        assert path.polished >= 1
        assert np.all(path.kkt_violation <= 1e-9)
        for lam, row, viol in zip(grid, path.betas, path.kkt_violation):
            assert viol == kkt_violation(data, row, lam)

    def test_failed_certificate_is_polished_or_raises(self, monkeypatch):
        import hdlab.solvers as solvers

        data, lam_max = lasso_fold_problem(14, n=60, d=80)
        grid = np.geomspace(lam_max, 0.05 * lam_max, 8)
        exact = lasso_path(data, grid)
        homotopy = solvers._homotopy

        def damaged(X, y, levels):
            betas, count, kinks, beta = homotopy(X, y, levels)
            betas[4] = 0.0
            return betas, count, kinks, beta

        monkeypatch.setattr(solvers, "_homotopy", damaged)
        path = lasso_path(data, grid)
        assert path.polished == exact.polished + 1
        assert np.all(path.kkt_violation <= 1e-9)
        assert np.max(np.abs(path.betas - exact.betas)) <= 1e-9

        cd = solvers.coord_descent_l1
        monkeypatch.setattr(solvers, "coord_descent_l1",
                            lambda ds, lam, **kw: cd(ds, lam, **dict(kw, max_iter=1)))
        monkeypatch.setattr(solvers, "_POLISH_ROUNDS", 1)
        with pytest.raises(SolverError, match="KKT violation"):
            lasso_path(data, grid)

    def test_non_finite_point_raises(self, monkeypatch):
        import hdlab.solvers as solvers

        data, lam_max = lasso_fold_problem(14, n=60, d=80)
        grid = np.geomspace(lam_max, 0.05 * lam_max, 8)
        homotopy = solvers._homotopy

        def damaged(X, y, levels):
            betas, count, kinks, beta = homotopy(X, y, levels)
            betas[4, 0] = np.nan
            return betas, count, kinks, beta

        monkeypatch.setattr(solvers, "_homotopy", damaged)
        with pytest.raises(SolverError, match="KKT violation inf"):
            lasso_path(data, grid)

    def test_non_finite_stopped_point_raises(self, monkeypatch):
        # The grid points below an early stop are polished from the stopped
        # point; a non-finite one is a solver failure, not coordinate
        # descent's invalid input (ValidationError).
        import hdlab.solvers as solvers

        data, lam_max = lasso_fold_problem(14, n=60, d=80)
        grid = np.geomspace(lam_max, 0.05 * lam_max, 8)
        homotopy = solvers._homotopy

        def stopped(X, y, levels):
            betas, count, kinks, beta = homotopy(X, y, levels)
            beta = betas[4].copy()
            beta[0] = np.nan
            return betas, 5, kinks, beta

        monkeypatch.setattr(solvers, "_homotopy", stopped)
        with pytest.raises(SolverError, match="non-finite"):
            lasso_path(data, grid)

    def test_certificate_scales_with_the_response(self):
        # Round-off in X'(y - X b)/n grows with y. A response in raw units,
        # or one with a large mean, must still certify at every point.
        data, lam_max = lasso_fold_problem(15, n=60, d=80)
        grid = np.geomspace(lam_max, 0.01 * lam_max, 10)
        base = lasso_path(data, grid)
        scaled = lasso_path(Dataset(data.X, data.y * 1e8), grid * 1e8)
        assert np.max(np.abs(scaled.betas / 1e8 - base.betas)) <= 1e-12
        # The columns have mean zero, so a shift of y leaves the solution
        # unchanged up to the round-off of a 1e8 residual.
        shifted = lasso_path(Dataset(data.X, data.y + 1e8), grid)
        assert np.max(np.abs(shifted.betas - base.betas)) <= 1e-6

    def test_near_duplicate_columns_certified_or_refused(self):
        # Column 1 is column 0 plus 1e-8 noise, so the active Gram matrix
        # turns singular once both could enter. The homotopy must stop
        # there rather than enter the pair with huge offsetting
        # coefficients, and every path must certify each point or raise.
        finished_by_cd = 0
        for seed in range(3):
            rng = np.random.default_rng(seed)
            X = rng.standard_normal((20, 8))
            X[:, 1] = X[:, 0] + 1e-8 * rng.standard_normal(20)
            y = X[:, 0] + 0.5 * X[:, 2] + 0.3 * rng.standard_normal(20)
            data = standardize(Dataset(X, y))
            lam_max = float(np.max(np.abs(data.X.T @ data.y))) / data.n
            try:
                path = lasso_path(data, np.geomspace(lam_max, 1e-3 * lam_max, 20))
            except SolverError as err:
                assert "KKT violation" in str(err)
                continue
            bound = PATH_KKT_TOL * max(1.0, np.linalg.norm(data.y) / np.sqrt(data.n))
            assert np.all(path.kkt_violation <= bound)
            assert np.max(np.abs(path.betas)) < 10.0
            finished_by_cd += path.polished > 0
        assert finished_by_cd >= 1

    def test_unsorted_grid_gives_identical_rows(self):
        data, lam_max = lasso_fold_problem(12, n=60, d=80)
        grid = np.geomspace(lam_max * 1.5, 0.01 * lam_max, 12)
        perm = np.random.default_rng(0).permutation(grid.size)
        ordered = lasso_path(data, grid)
        shuffled = lasso_path(data, grid[perm])
        assert np.array_equal(shuffled.betas, ordered.betas[perm])
        assert np.array_equal(shuffled.kkt_violation, ordered.kkt_violation[perm])
        assert shuffled.kinks == ordered.kinks
        assert np.all(ordered.betas[0] == 0.0)

    def test_each_point_certified_once(self, monkeypatch):
        import hdlab.solvers as solvers

        data, lam_max = lasso_fold_problem(11)
        grid = np.geomspace(lam_max, 0.01 * lam_max, 20)
        calls = []
        real = solvers._kkt_rows

        # Every certificate, one row or a stack of rows, goes through
        # _kkt_rows, with one weight per row here.
        def spy(data, betas, weights):
            calls.extend(np.broadcast_to(weights, (len(betas), 1))[:, 0])
            return real(data, betas, weights)

        monkeypatch.setattr(solvers, "_kkt_rows", spy)
        path = lasso_path(data, np.concatenate([grid, grid[::4]]))
        assert path.polished == 0
        assert sorted(calls, reverse=True) == list(grid)

    def test_standardize_output_skips_the_column_check(self, monkeypatch):
        import hdlab.data

        calls = []
        real = hdlab.data.is_standardized

        def spy(X, *args):
            calls.append(X.shape)
            return real(X, *args)

        monkeypatch.setattr(hdlab.data, "is_standardized", spy)
        data, lam_max = lasso_fold_problem(12)
        assert data.transform is not None
        grid = [lam_max / 2, lam_max / 10]
        path = lasso_path(data, grid)
        assert calls == []
        by_hand = lasso_path(Dataset(data.X, data.y), grid)
        assert calls == [data.X.shape]
        assert np.array_equal(by_hand.betas, path.betas)

    def test_requires_standardized_design(self):
        rng = np.random.default_rng(13)
        data = Dataset(rng.standard_normal((30, 5)) * 3.0 + 1.0, rng.standard_normal(30))
        with pytest.raises(NotStandardizedError):
            lasso_path(data, [0.1, 0.01])
        with pytest.raises(ConfigurationError):
            lasso_path(standardize(data), [0.1, -0.01])


class TestCrossValidate:
    def test_unconverged_solve_raises(self):
        # The quick-start model of the README: each capped fit reports
        # converged=False and must not feed the curve.
        spec = LinearModelSpec(n=100, d=400, beta={0: 2.0, 3: -1.5}, noise_sd=0.5)
        data = standardize(gen_linear(spec, seed=7))

        def capped(ds, lam, beta_init):
            return coord_descent_l1(ds, lam, beta_init=beta_init, max_iter=2)

        with pytest.raises(SolverError, match="lambda=0.5 in fold 1"):
            cross_validate(data, np.geomspace(0.5, 0.01, 20), folds=5, seed=0,
                           solver=capped)

    def test_large_response_scale(self):
        # The README model with y in raw units (times 1e8) picks the same
        # grid index; with 1e8 added to y it still returns.
        spec = LinearModelSpec(n=100, d=400, beta={0: 2.0, 3: -1.5}, noise_sd=0.5)
        data = standardize(gen_linear(spec, seed=7))
        grid = np.geomspace(0.5, 0.01, 20)
        lam, curve = cross_validate(data, grid, folds=5, seed=0)
        lam_big, curve_big = cross_validate(Dataset(data.X, data.y * 1e8), grid * 1e8,
                                            folds=5, seed=0)
        assert lam_big == grid[np.flatnonzero(grid == lam)[0]] * 1e8
        assert np.allclose(curve_big, curve * 1e16, rtol=1e-9, atol=0.0)
        lam_shift, _ = cross_validate(Dataset(data.X, data.y + 1e8), grid, folds=5, seed=0)
        assert lam_shift in grid

    def test_response_shift_leaves_the_choice(self):
        # Each fold centers its response, so a constant added to y moves
        # neither the fits nor the held-out errors (the README model).
        spec = LinearModelSpec(n=100, d=400, beta={0: 2.0, 3: -1.5}, noise_sd=0.5)
        data = standardize(gen_linear(spec, seed=7))
        grid = np.geomspace(0.5, 0.01, 20)
        lam, curve = cross_validate(data, grid, folds=5, seed=0)
        for shift in (5.0, 1e3):
            lam_s, curve_s = cross_validate(Dataset(data.X, data.y + shift), grid,
                                            folds=5, seed=0)
            assert lam_s == lam
            assert np.allclose(curve_s, curve, rtol=1e-9, atol=0.0)

    def test_held_out_rows_are_predicted_from_the_training_mean(self):
        # Above lambda_max the fit is beta = 0, which predicts every held-out
        # row by the mean of y over its training fold (a raw design and y).
        rng = np.random.default_rng(107)
        X = 4.0 + 3.0 * rng.standard_normal((30, 5))
        y = 10.0 + rng.standard_normal(30)
        data = Dataset(X, y, ("a", "b", "c", "d", "e"))
        seen = []

        def cd(ds, lam, beta_init):
            seen.append(ds)
            return coord_descent_l1(ds, lam)

        _, curve = cross_validate(data, [100.0], folds=3, seed=4, solver=cd)
        chunks = np.array_split(np.random.default_rng(4).permutation(30), 3)
        expected = 0.0
        for i, test_idx in enumerate(chunks):
            train_idx = np.concatenate([c for k, c in enumerate(chunks) if k != i])
            expected += float(np.sum((y[test_idx] - y[train_idx].mean()) ** 2))
            ds = seen[i]
            assert ds.column_names == data.column_names
            assert np.array_equal(ds.X, standardize(Dataset(X[train_idx])).X)
            assert ds.transform[2] == y[train_idx].mean()
        assert curve[0] == pytest.approx(expected / 30, rel=1e-12)

    def test_near_duplicate_column_leaves_the_curve(self):
        # A copy of column 0 with 1e-8 noise added must not change the
        # choice of lambda.
        grid = np.geomspace(1.0, 0.001, 20)
        for seed in range(3):
            rng = np.random.default_rng(seed)
            X = rng.standard_normal((30, 12))
            X[:, 1] = X[:, 0] + 1e-8 * rng.standard_normal(30)
            y = X[:, 0] + 0.5 * X[:, 2] + 0.3 * rng.standard_normal(30)
            lam, curve = cross_validate(standardize(Dataset(X, y)), grid, folds=5, seed=0)
            lam_one, curve_one = cross_validate(
                standardize(Dataset(np.delete(X, 1, axis=1), y)), grid, folds=5, seed=0)
            assert lam == lam_one
            assert np.allclose(curve, curve_one, rtol=1e-8, atol=0.0)

    def test_path_engine_matches_coordinate_descent_handle(self):
        data = sparse_problem(106, n=80, d=30)
        grid = np.geomspace(1.0, 0.005, 15)

        def cd(ds, lam, beta_init):
            return coord_descent_l1(ds, lam, beta_init=beta_init, tol=1e-12)

        lam, curve = cross_validate(data, grid, folds=4, seed=3)
        lam_cd, curve_cd = cross_validate(data, grid, folds=4, seed=3, solver=cd)
        assert lam == lam_cd
        assert np.allclose(curve, curve_cd, rtol=1e-9, atol=0.0)

    def test_single_candidate(self):
        data = sparse_problem(100, n=40, d=6)
        lam, curve = cross_validate(data, [0.3], folds=4, seed=0)
        assert lam == 0.3
        assert curve.shape == (1,)
        assert curve[0] > 0.0

    def test_duplicated_rows_favor_smallest_lambda(self):
        # Duplicate every row and pick a split that sends one copy of each
        # row to each fold: held-out rows then equal the training rows, so
        # pooled error is pure training error and the least-penalized fit
        # must win.
        rng = np.random.default_rng(101)
        X0 = rng.standard_normal((4, 3))
        y0 = rng.standard_normal(4)
        data = Dataset(np.vstack([X0, X0]), np.concatenate([y0, y0]))
        seed = find_copy_split_seed(4)
        grid = np.geomspace(1.0, 1e-3, 8)
        lam, curve = cross_validate(data, grid, folds=2, seed=seed)
        assert lam == float(grid.min())
        assert curve[-1] == curve.min()

    def test_pure_noise_prefers_heaviest_penalty(self):
        wins = 0
        for seed in range(10):
            rng = np.random.default_rng(200 + seed)
            data = Dataset(rng.standard_normal((40, 35)), rng.standard_normal(40))
            lam, _ = cross_validate(data, [3.0, 1e-3], folds=2, seed=seed)
            wins += lam == 3.0
        assert wins >= 9

    def test_tie_breaks_toward_largest_lambda(self):
        # A solver that ignores lambda makes every grid point tie exactly.
        data = sparse_problem(102, n=40, d=6)

        def flat_solver(ds, lam, beta_init):
            return ols_refit(ds, np.arange(ds.d))

        grid = [0.3, 0.1, 0.2]
        lam, curve = cross_validate(data, grid, folds=4, seed=1, solver=flat_solver)
        assert lam == 0.3
        assert np.all(curve == curve[0])

    def test_curve_aligns_with_given_grid_order(self):
        data = sparse_problem(103, n=60, d=8)
        grid = [0.05, 0.4, 0.15]
        lam, curve = cross_validate(data, grid, folds=3, seed=2)
        sorted_lam, sorted_curve = cross_validate(data, sorted(grid), folds=3, seed=2)
        assert lam == sorted_lam
        assert curve[1] == sorted_curve[2]
        assert curve[0] == sorted_curve[0]

    def test_configuration_errors(self):
        data = sparse_problem(104, n=20, d=4)
        with pytest.raises(ConfigurationError):
            cross_validate(data, [], folds=2, seed=0)
        with pytest.raises(ConfigurationError):
            cross_validate(data, [0.1, -0.2], folds=2, seed=0)
        with pytest.raises(ConfigurationError):
            cross_validate(data, [0.1], folds=1, seed=0)
        with pytest.raises(ConfigurationError):
            cross_validate(data, [0.1], folds=True, seed=0)
        with pytest.raises(ConfigurationError):
            cross_validate(data, [0.1], folds=21, seed=0)
        tiny = Dataset(np.random.default_rng(0).standard_normal((3, 2)),
                       np.zeros(3))
        with pytest.raises(ConfigurationError):
            cross_validate(tiny, [0.1], folds=2, seed=0)

    def test_constant_training_column_is_reported(self):
        # With level 0.1 the fold's three 0.1s have a mean that is not 0.1,
        # so centering alone leaves nonzero entries.
        for level in (1.0, 0.1):
            rng = np.random.default_rng(105)
            X = rng.standard_normal((6, 3))
            X[:, 0] = level
            X[5, 0] = 2.0 * level  # varies only through row 5
            data = Dataset(X, rng.standard_normal(6))
            # A split whose training fold lacks row 5.
            seed = next(s for s in range(50)
                        if 5 in np.array_split(np.random.default_rng(s).permutation(6), 2)[0])
            with pytest.raises(ConfigurationError,
                               match="x1 is constant within a training fold"):
                cross_validate(data, [0.1], folds=2, seed=seed)
