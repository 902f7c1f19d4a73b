import itertools

import numpy as np
import pytest
from scipy.stats import ks_2samp

from hdlab import (
    ConfigurationError,
    Dataset,
    LinearModelSpec,
    SelectionTooLargeError,
    SingularityError,
    SizeLimitError,
    UndefinedCorrelationError,
    ValidationError,
    endogeneity_diagnostic,
    gen_iid_gaussian,
    gen_linear,
    greedy_spurious_support,
    ks_distance,
    max_multiple_corr,
    max_spurious_corr,
    ols_refit,
    overid_check,
    rcv_variance,
    residual_variance,
    sample_corr,
    standardize,
)
from hdlab.data import _centered, _corr_columns
from hdlab.diagnostics import _leave_one_out_ks
from hdlab.experiments import spurious_correlation_experiment


def noise_design(seed, n, d):
    return Dataset(np.random.default_rng(seed).standard_normal((n, d)))


def brute_force_best_r(X, size):
    """Reference multiple correlation: regress column 0 on every subset."""
    t = X[:, 0]
    tc = t - t.mean()
    tss = float(tc @ tc)
    best = 0.0
    for subset in itertools.combinations(range(1, X.shape[1]), size):
        design = np.column_stack([np.ones(X.shape[0]), X[:, subset]])
        coef, *_ = np.linalg.lstsq(design, t, rcond=None)
        rss = float(np.sum((t - design @ coef) ** 2))
        best = max(best, np.sqrt(max(0.0, 1.0 - rss / tss)))
    return best


class TestMaxSpuriousCorr:
    def test_duplicate_column_hits_one(self):
        rng = np.random.default_rng(0)
        col = rng.standard_normal(30)
        X = np.column_stack([col, rng.standard_normal(30), col.copy()])
        assert max_spurious_corr(Dataset(X)) == pytest.approx(1.0, abs=1e-12)

    def test_anticorrelated_column_counts(self):
        rng = np.random.default_rng(1)
        col = rng.standard_normal(30)
        X = np.column_stack([col, -col])
        assert max_spurious_corr(Dataset(X)) == pytest.approx(1.0, abs=1e-12)

    def test_two_columns_reduce_to_pairwise(self):
        data = noise_design(2, 40, 2)
        want = abs(sample_corr(data.X[:, 0], data.X[:, 1]))
        assert max_spurious_corr(data) == pytest.approx(want, abs=1e-12)

    def test_grows_with_dimension(self):
        lows, highs = [], []
        for seed in range(5):
            rng = np.random.default_rng(seed)
            X = rng.standard_normal((60, 2001))
            lows.append(max_spurious_corr(Dataset(X[:, :6])))
            highs.append(max_spurious_corr(Dataset(X)))
        assert np.mean(highs) > np.mean(lows) + 0.1

    def test_errors(self):
        with pytest.raises(ValidationError):
            max_spurious_corr(noise_design(3, 20, 1))
        bad = np.random.default_rng(4).standard_normal((20, 3))
        bad[:, 0] = 2.0
        with pytest.raises(UndefinedCorrelationError):
            max_spurious_corr(Dataset(bad))
        bad2 = np.random.default_rng(5).standard_normal((20, 3))
        bad2[:, 2] = -1.0
        with pytest.raises(UndefinedCorrelationError):
            max_spurious_corr(Dataset(bad2))


class TestMaxMultipleCorr:
    def test_singleton_agrees_with_pairwise_scan(self):
        data = noise_design(10, 30, 8)
        for method in ("greedy", "exact"):
            rep = max_multiple_corr(data, 1, method)
            assert rep.R_hat == rep.r_hat == max_spurious_corr(data)
            assert rep.subset.shape == (1,)
            assert rep.method == method

    def test_exact_matches_brute_force(self):
        for seed in range(5):
            data = noise_design(20 + seed, 25, 7)
            rep = max_multiple_corr(data, 2, "exact")
            want = brute_force_best_r(data.X, 2)
            assert rep.R_hat == pytest.approx(want, abs=1e-10)

    def test_greedy_never_beats_exact(self):
        for seed in range(5):
            data = noise_design(30 + seed, 20, 8)
            greedy = max_multiple_corr(data, 3, "greedy")
            exact = max_multiple_corr(data, 3, "exact")
            assert greedy.R_hat <= exact.R_hat + 1e-9

    def test_reported_subset_realizes_the_statistic(self):
        for method in ("greedy", "exact"):
            data = noise_design(40, 30, 9)
            rep = max_multiple_corr(data, 3, method)
            t = data.X[:, 0]
            design = np.column_stack([np.ones(data.n), data.X[:, rep.subset]])
            coef, *_ = np.linalg.lstsq(design, t, rcond=None)
            tc = t - t.mean()
            r2 = 1.0 - float(np.sum((t - design @ coef) ** 2)) / float(tc @ tc)
            assert rep.R_hat == pytest.approx(np.sqrt(max(r2, 0.0)), abs=1e-9)

    def test_subset_shape_and_bounds(self):
        data = noise_design(41, 25, 10)
        rep = max_multiple_corr(data, 4, "greedy")
        assert rep.subset.shape == (4,)
        assert np.array_equal(rep.subset, np.sort(rep.subset))
        assert rep.subset.min() >= 1 and rep.subset.max() <= 9
        assert rep.R_hat >= rep.r_hat - 1e-12
        assert 0.0 <= rep.R_hat <= 1.0

    def test_scale_invariance(self):
        data = noise_design(42, 30, 6)
        scales = np.array([2.0, 0.3, 5.0, 1.0, 0.1, 7.0])
        scaled = Dataset(data.X * scales)
        a = max_multiple_corr(data, 2, "exact")
        b = max_multiple_corr(scaled, 2, "exact")
        assert a.R_hat == pytest.approx(b.R_hat, abs=1e-12)
        assert np.array_equal(a.subset, b.subset)

    def test_exact_subset_cap(self):
        data = noise_design(43, 5, 101)
        with pytest.raises(SizeLimitError):
            max_multiple_corr(data, 5, "exact")

    def test_argument_validation(self):
        data = noise_design(44, 20, 5)
        with pytest.raises(ConfigurationError):
            max_multiple_corr(data, 0)
        with pytest.raises(ConfigurationError):
            max_multiple_corr(data, 5)
        with pytest.raises(ConfigurationError):
            max_multiple_corr(data, 2, method="newton")


class TestGreedySupport:
    def test_finds_exact_representation(self):
        rng = np.random.default_rng(50)
        X = rng.standard_normal((40, 10))
        y = X[:, 2] + X[:, 7]
        support = greedy_spurious_support(Dataset(X, y), 2)
        assert np.array_equal(support, [2, 7])

    def test_skips_collinear_duplicates(self):
        rng = np.random.default_rng(51)
        col = rng.standard_normal(30)
        X = np.column_stack([col, col.copy(), rng.standard_normal((30, 4))])
        y = rng.standard_normal(30)
        support = greedy_spurious_support(Dataset(X, y), 2)
        assert support.size == 2
        assert not (0 in support and 1 in support)

    def test_size_validation(self):
        data = Dataset(np.random.default_rng(52).standard_normal((20, 4)),
                       np.random.default_rng(53).standard_normal(20))
        with pytest.raises(ConfigurationError):
            greedy_spurious_support(data, 0)
        with pytest.raises(ConfigurationError):
            greedy_spurious_support(data, 5)


class TestSpuriousExperiment:
    def test_deterministic_and_well_formed(self):
        a = spurious_correlation_experiment(n=20, d_list=[5, 15], reps=6, subset_size=2, seed=9)
        b = spurious_correlation_experiment(n=20, d_list=[5, 15], reps=6, subset_size=2, seed=9)
        header, rows = a.tables["values"]
        assert header == ["d", "rep", "r_hat", "R_hat"]
        assert rows == b.tables["values"][1]
        assert len(rows) == 12
        assert all(row[2] <= row[3] + 1e-12 for row in rows)
        assert len(a.tables["quantiles"][1]) == 4

    def test_medians_grow_with_dimension(self):
        rep = spurious_correlation_experiment(n=30, d_list=[10, 200], reps=20,
                                              subset_size=1, seed=3)
        assert rep.summary["median_r_hat_d200"] > rep.summary["median_r_hat_d10"]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            spurious_correlation_experiment(n=20, d_list=[], reps=5, subset_size=1, seed=0)
        with pytest.raises(ConfigurationError):
            spurious_correlation_experiment(n=20, d_list=[5], reps=5, subset_size=5, seed=0)
        with pytest.raises(ConfigurationError):
            spurious_correlation_experiment(n=2, d_list=[5], reps=5, subset_size=1, seed=0)
        with pytest.raises(ConfigurationError):
            spurious_correlation_experiment(n=20, d_list=[5], reps=0, subset_size=1, seed=0)


class TestResidualVariance:
    def test_noiseless_fit_vanishes(self):
        spec = LinearModelSpec(n=50, d=6, beta={0: 1.0, 2: -2.0}, noise_sd=1.0)
        data = gen_linear(spec, 60)
        clean = Dataset(data.X, data.X @ np.array([1.0, 0, -2.0, 0, 0, 0]))
        est = residual_variance(clean, [0, 2])
        assert est.sigma2_hat < 1e-16
        assert est.method == "naive" and est.support_size == 2

    def test_empty_support_is_raw_second_moment(self):
        data = gen_linear(LinearModelSpec(n=30, d=4, beta={}), 61)
        est = residual_variance(data, [])
        assert est.sigma2_hat == pytest.approx(float(data.y @ data.y) / 30, rel=1e-14)
        assert est.support_size == 0

    def test_consistent_on_true_support(self):
        spec = LinearModelSpec(n=2000, d=5, beta={1: 1.0}, noise_sd=1.5)
        data = gen_linear(spec, 62)
        est = residual_variance(data, [1])
        assert est.sigma2_hat == pytest.approx(2.25, abs=0.3)

    def test_dredged_support_underestimates(self):
        data = gen_linear(LinearModelSpec(n=60, d=800, beta={}), 63)
        support = greedy_spurious_support(data, 5)
        est = residual_variance(data, support)
        truth = float(np.var(data.y, ddof=1))
        assert 0.0 < est.sigma2_hat < 0.8 * truth

    def test_errors(self):
        data = gen_linear(LinearModelSpec(n=10, d=4, beta={}), 64)
        with pytest.raises(ValidationError):
            residual_variance(data, [4])
        with pytest.raises(ValidationError):
            residual_variance(Dataset(np.eye(3), np.ones(3)), [0, 1, 2])
        rng = np.random.default_rng(65)
        col = rng.standard_normal(20)
        dup = Dataset(np.column_stack([col, col]), rng.standard_normal(20))
        with pytest.raises(SingularityError):
            residual_variance(dup, [0, 1])


class TestRcvVariance:
    def test_deterministic(self):
        data = gen_linear(LinearModelSpec(n=40, d=30, beta={}), 70)
        sel = lambda ds: greedy_spurious_support(ds, 3)
        a = rcv_variance(data, sel, seed=1)
        b = rcv_variance(data, sel, seed=1)
        assert a.sigma2_hat == b.sigma2_hat
        assert a.method == "rcv"

    def test_removes_dredging_bias(self):
        naive_vals, rcv_vals = [], []
        for seed in range(3):
            data = gen_linear(LinearModelSpec(n=80, d=400, beta={}), 71 + seed)
            sel = lambda ds: greedy_spurious_support(ds, 5)
            naive_vals.append(residual_variance(data, sel(data)).sigma2_hat)
            rcv_vals.append(rcv_variance(data, sel, seed=seed).sigma2_hat)
        assert np.mean(naive_vals) < np.mean(rcv_vals) - 0.1
        assert 0.6 < np.mean(rcv_vals) < 1.4

    def test_selection_size_guard(self):
        data = gen_linear(LinearModelSpec(n=10, d=8, beta={}), 74)
        with pytest.raises(SelectionTooLargeError):
            rcv_variance(data, lambda ds: np.arange(5), seed=0)

    def test_selector_output_validated(self):
        data = gen_linear(LinearModelSpec(n=12, d=4, beta={}), 75)
        with pytest.raises(ValidationError):
            rcv_variance(data, lambda ds: np.array([9]), seed=0)
        tiny = Dataset(np.random.default_rng(76).standard_normal((3, 2)),
                       np.zeros(3))
        with pytest.raises(ValidationError):
            rcv_variance(tiny, lambda ds: np.array([0]), seed=0)


class TestKsDistance:
    def test_known_values(self):
        assert ks_distance([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0
        assert ks_distance([0.0], [1.0]) == 1.0
        assert ks_distance([0.0, 2.0], [1.0, 3.0]) == 0.5

    def test_matches_reference_implementation(self):
        rng = np.random.default_rng(80)
        for _ in range(20):
            a = rng.normal(size=int(rng.integers(5, 60)))
            b = rng.normal(loc=rng.uniform(-1, 1), size=int(rng.integers(5, 60)))
            want = float(ks_2samp(a, b, method="exact").statistic)
            assert ks_distance(a, b) == pytest.approx(want, abs=1e-12)

    def test_ties_handled_like_reference(self):
        a = np.array([0.0, 0.0, 1.0, 1.0, 2.0])
        b = np.array([0.0, 1.0, 1.0, 2.0, 2.0])
        want = float(ks_2samp(a, b).statistic)
        assert ks_distance(a, b) == pytest.approx(want, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            ks_distance([], [1.0])


def planted_endogeneity_data(seed, n=400, d=200, coupled=30, w=0.8):
    beta = {0: 2.0, 1: 2.0, 2: 2.0}
    endo = {j: w for j in range(3, 3 + coupled)}
    spec = LinearModelSpec(n=n, d=d, beta=beta, endogenous_set=endo,
                           endogenous_mode="direct")
    return gen_linear(spec, seed)


class TestEndogeneityDiagnostic:
    def test_validation(self):
        data = gen_iid_gaussian(20, 5, 90)
        resid = np.random.default_rng(91).standard_normal(20)
        for bad in (1, True):
            with pytest.raises(ConfigurationError):
                endogeneity_diagnostic(Dataset(data.X, resid), resid, bad, seed=0)
        with pytest.raises(ValidationError):
            endogeneity_diagnostic(Dataset(data.X, resid), np.ones(7), 5, seed=0)

    def test_reproducible_and_well_shaped(self):
        data = gen_iid_gaussian(50, 12, 92)
        resid = np.random.default_rng(93).standard_normal(50)
        a = endogeneity_diagnostic(data, resid, 10, seed=4)
        b = endogeneity_diagnostic(data, resid, 10, seed=4)
        assert a.tail_statistic == b.tail_statistic
        assert np.array_equal(a.permuted_correlations, b.permuted_correlations)
        assert a.raw_correlations.shape == (12,)
        assert a.permuted_correlations.shape == (120,)
        assert a.null_tail_statistics.shape == (10,)
        assert 0.0 <= a.tail_statistic <= 1.0
        assert np.all(np.abs(a.raw_correlations) <= 1.0)
        c = endogeneity_diagnostic(data, resid, 10, seed=5)
        assert not np.array_equal(a.permuted_correlations, c.permuted_correlations)

    def test_leave_one_out_null_matches_direct_loop(self):
        # Binary columns on 6 rows leave few distinct correlations, so the
        # permutations tie within and across one another.
        X = np.random.default_rng(94).integers(0, 2, (6, 5)).astype(float)
        X[0], X[1] = 0.0, 1.0
        resid = np.array([0.0, 1.0, 2.0, 0.0, 1.0, 2.0])
        rep = endogeneity_diagnostic(Dataset(X), resid, 7, seed=3)
        perm_corr = rep.permuted_correlations.reshape(7, 5)
        assert len(np.unique(perm_corr)) < perm_corr.size // 2
        want = [ks_distance(perm_corr[b], np.delete(perm_corr, b, axis=0))
                for b in range(7)]
        assert np.array_equal(rep.null_tail_statistics, want)

    @pytest.mark.parametrize("B, d, decimals", [(40, 30, 1), (40, 30, 2), (2, 30, 1), (2, 7, 3)])
    def test_leave_one_out_null_with_ties_matches_direct_loop(self, B, d, decimals):
        # Values rounded to a few decimals tie within and across rows; with
        # B = 2 each row is compared with the other one alone.
        samples = np.round(np.random.default_rng(B + d).standard_normal((B, d)) * 0.3,
                           decimals)
        want = [ks_distance(samples[b], np.delete(samples, b, axis=0)) for b in range(B)]
        assert np.array_equal(_leave_one_out_ks(samples), want)

    def test_permuted_correlations_match_row_permuted_designs(self):
        # The null correlates X[rows_b] with the residuals for each
        # permutation b; this loop is that definition, with the same seeds.
        rng = np.random.default_rng(95)
        X = rng.standard_normal((60, 15)) * 4.0 + 2.0
        resid = rng.standard_normal(60)
        seed = [7, 1, 2]
        rep = endogeneity_diagnostic(Dataset(X), resid, 12, seed=seed)
        want = np.empty((12, 15))
        for b in range(12):
            rows = np.random.default_rng([seed, b]).permutation(60)
            want[b] = _corr_columns(_centered(X[rows], resid))
        assert np.max(np.abs(rep.permuted_correlations - want.ravel())) <= 1e-15
        assert np.array_equal(rep.raw_correlations, _corr_columns(_centered(X, resid)))

    def test_exchangeable_residuals_rarely_flag(self):
        flags = 0
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            data = Dataset(rng.standard_normal((80, 40)))
            resid = rng.standard_normal(80)
            rep = endogeneity_diagnostic(Dataset(data.X, resid), resid, 40, seed=seed)
            flags += rep.flagged()
        assert flags <= 3

    def test_coupled_noise_is_flagged(self):
        data = planted_endogeneity_data(0)
        fit = ols_refit(data, [0, 1, 2])
        rep = endogeneity_diagnostic(data, fit, 100, seed=1)
        assert rep.flagged()
        assert rep.tail_statistic > 1.5 * rep.null_quantile()

    def test_exogenous_twin_is_not_flagged(self):
        spec = LinearModelSpec(n=400, d=200, beta={0: 2.0, 1: 2.0, 2: 2.0})
        data = gen_linear(spec, 0)
        fit = ols_refit(data, [0, 1, 2])
        rep = endogeneity_diagnostic(data, fit, 100, seed=1)
        assert not rep.flagged()


class TestOveridCheck:
    def test_ols_orthogonality_on_selected(self):
        spec = LinearModelSpec(n=120, d=10, beta={0: 1.0, 3: -1.0})
        data = standardize(gen_linear(spec, 110))
        fit = ols_refit(data, [0, 3])
        rep = overid_check(data, fit, [0, 3])
        assert np.array_equal(rep.selected, [0, 3])
        assert np.max(np.abs(rep.corr_x)) < 1e-8

    def test_exogenous_second_moments_stay_small(self):
        worst = 0.0
        for seed in range(20):
            spec = LinearModelSpec(n=500, d=8, beta={0: 1.5, 1: -1.0, 2: 0.5})
            data = gen_linear(spec, 120 + seed)
            fit = ols_refit(data, [0, 1, 2])
            rep = overid_check(data, fit, [0, 1, 2])
            worst = max(worst, float(np.max(np.abs(rep.corr_x2))))
        assert worst < 0.2

    def test_quadratic_coupling_shows_in_second_moment(self):
        spec = LinearModelSpec(n=500, d=6, beta={0: 1.0},
                               endogenous_set={0: 1.0},
                               endogenous_mode="quadratic")
        data = gen_linear(spec, 130)
        fit = ols_refit(data, [0])
        rep = overid_check(data, fit, [0])
        assert abs(rep.corr_x2[0]) > 0.3
        assert abs(rep.corr_x[0]) < 0.2

    def test_validation(self):
        data = gen_iid_gaussian(20, 4, 140)
        resid = np.random.default_rng(141).standard_normal(20)
        full = Dataset(data.X, resid)
        with pytest.raises(ValidationError):
            overid_check(full, resid, [])
        with pytest.raises(ValidationError):
            overid_check(full, resid, [4])
        with pytest.raises(ValidationError):
            overid_check(full, np.ones(3), [0])

    @pytest.mark.parametrize("value", [1.0, 0.7])
    def test_constant_moment_names_the_original_column(self, value):
        # With 0.7 the mean of the constant square 0.49 is not 0.49 in floating
        # point, so the centered column is tiny but not zero.
        rng = np.random.default_rng(142)
        X = rng.standard_normal((30, 5))
        X[:, 2] = rng.choice([-value, value], 30)  # varies, but its square is constant
        X[:, 4] = 3.0
        resid = rng.standard_normal(30)
        with pytest.raises(UndefinedCorrelationError, match="square of column 2 "):
            overid_check(Dataset(X), resid, [0, 2])
        with pytest.raises(UndefinedCorrelationError, match="^column 4 "):
            overid_check(Dataset(X), resid, [1, 4])


class TestSupportCheck:
    """ols_refit, residual_variance, rcv_variance (on its selector's output)
    and overid_check read a support through one check."""

    def callers(self):
        data = gen_linear(LinearModelSpec(n=40, d=6, beta={0: 1.0}), 150)
        resid = np.random.default_rng(151).standard_normal(40)
        return {
            "ols_refit": lambda s: ols_refit(data, s),
            "residual_variance": lambda s: residual_variance(data, s),
            "rcv_variance": lambda s: rcv_variance(data, lambda ds: s, seed=0),
            "overid_check": lambda s: overid_check(data, resid, s),
        }

    def test_mask_and_float_indices_rejected(self):
        # Cast to int64, the mask over columns {3, 5} would name columns
        # {0, 1}, and 2.9 would name column 2.
        mask = np.isin(np.arange(6), [3, 5])
        for name, call in self.callers().items():
            for bad in (mask, [2.9]):
                with pytest.raises(ValidationError, match="integers"):
                    call(bad)
            call(np.array([5, 3]))

    def test_empty_support_still_accepted(self):
        callers = self.callers()
        assert np.all(callers["ols_refit"]([]).beta_hat == 0.0)
        assert callers["residual_variance"]([]).support_size == 0
        assert callers["rcv_variance"]([]).support_size == 0
        with pytest.raises(ValidationError, match="empty"):
            callers["overid_check"]([])
