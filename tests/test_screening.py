import numpy as np
import pytest

from hdlab import (
    ConfigurationError,
    Dataset,
    LinearModelSpec,
    NotStandardizedError,
    default_top_k,
    embed_coefficients,
    gen_linear,
    marginal_coefficients,
    sample_corr,
    sis_select,
    standardize,
)


def noise_problem(seed, n=100, d=30):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    y = rng.standard_normal(n)
    return standardize(Dataset(X, y))


def standardize_vec(v):
    return (v - v.mean()) / v.std(ddof=1)


class TestMarginalCoefficients:
    def test_componentwise_formula(self):
        data = noise_problem(0)
        assert np.array_equal(marginal_coefficients(data),
                              data.X.T @ data.y / data.n)

    def test_self_column_is_nearly_one(self):
        rng = np.random.default_rng(1)
        n = 100
        y = standardize_vec(rng.standard_normal(n))
        X = np.column_stack([y] + [standardize_vec(rng.standard_normal(n))
                                   for _ in range(4)])
        data = Dataset(X, y.copy())
        mb = marginal_coefficients(data)
        # A column equal to the response carries the ddof-1 scale, hence
        # exactly (n-1)/n rather than 1.
        assert mb[0] == pytest.approx((n - 1) / n, rel=1e-12)
        assert abs(mb[0] - 1.0) < 2.0 / n

    def test_independent_columns_stay_small(self):
        data = noise_problem(2, n=10000, d=50)
        assert float(np.max(np.abs(marginal_coefficients(data)))) < 0.06

    def test_requires_standardized(self):
        rng = np.random.default_rng(3)
        raw = Dataset(3.0 * rng.standard_normal((40, 5)), rng.standard_normal(40))
        with pytest.raises(NotStandardizedError):
            marginal_coefficients(raw)
        with pytest.raises(NotStandardizedError):
            sis_select(raw, delta=0.1)


class TestDefaultTopK:
    def test_formula(self):
        assert default_top_k(100, 1000) == 21
        assert default_top_k(100, 10) == 10
        assert default_top_k(2, 50) == 1
        assert default_top_k(3, 50) == 2

    def test_used_when_no_rule_given(self):
        data = noise_problem(4, n=100, d=30)
        result = sis_select(data)
        assert result.rule == "top_k=21"
        assert result.survivors.size == 21


class TestSisSelect:
    def test_zero_threshold_keeps_everything(self):
        data = noise_problem(5)
        result = sis_select(data, delta=0.0)
        assert np.array_equal(result.survivors, np.arange(data.d))
        assert result.rule == "delta=0.0"

    def test_huge_threshold_keeps_nothing(self):
        data = noise_problem(6)
        assert sis_select(data, delta=10.0).survivors.size == 0

    def test_threshold_is_monotone(self):
        data = noise_problem(7)
        cuts = [0.0, 0.02, 0.05, 0.1, 0.3]
        kept = [set(sis_select(data, delta=c).survivors.tolist()) for c in cuts]
        for small, large in zip(kept, kept[1:]):
            assert large <= small

    def test_top_k_matches_threshold_at_extremes(self):
        data = noise_problem(8)
        assert np.array_equal(sis_select(data, top_k=data.d).survivors,
                              sis_select(data, delta=0.0).survivors)

    def test_tie_breaks_toward_lower_index(self):
        rng = np.random.default_rng(9)
        col = standardize_vec(rng.standard_normal(50))
        weak = standardize_vec(rng.standard_normal(50))
        X = np.column_stack([col, weak, col])  # columns 0 and 2 tie exactly
        data = Dataset(X, col.copy())
        result = sis_select(data, top_k=1)
        assert np.array_equal(result.survivors, [0])

    def test_survivors_sorted_and_ranked_by_magnitude(self):
        data = noise_problem(10, n=200, d=25)
        result = sis_select(data, top_k=5)
        assert np.array_equal(result.survivors, np.sort(result.survivors))
        by_corr = np.argsort(-np.abs(
            [sample_corr(data.X[:, j], data.y) for j in range(data.d)]))[:5]
        assert set(result.survivors.tolist()) == set(by_corr.tolist())

    def test_argument_validation(self):
        data = noise_problem(11)
        with pytest.raises(ConfigurationError):
            sis_select(data, delta=0.1, top_k=3)
        with pytest.raises(ConfigurationError):
            sis_select(data, delta=-0.1)
        with pytest.raises(ConfigurationError):
            sis_select(data, delta=np.nan)
        for bad in [0, data.d + 1, 2.5, True]:
            with pytest.raises(ConfigurationError):
                sis_select(data, top_k=bad)

    def test_sure_screening_on_planted_signals(self):
        hits = 0
        for seed in range(20):
            spec = LinearModelSpec(n=100, d=1000, beta={0: 2.0, 1: 2.0, 2: 2.0})
            data = standardize(gen_linear(spec, seed))
            kept = set(sis_select(data).survivors.tolist())
            hits += {0, 1, 2} <= kept
        assert hits >= 19


class TestEmbed:
    def test_scatter(self):
        beta = embed_coefficients([1.5, -2.0], [1, 4], 6)
        assert np.array_equal(beta, [0, 1.5, 0, 0, -2.0, 0])

    def test_misaligned_rejected(self):
        with pytest.raises(ConfigurationError):
            embed_coefficients([1.0, 2.0], [1], 6)

    def test_refit_after_screening_beats_null(self):
        spec = LinearModelSpec(n=80, d=200, beta={3: 2.0, 7: -1.5}, noise_sd=0.5)
        data = standardize(gen_linear(spec, 12))
        kept = sis_select(data, top_k=10).survivors
        sub = data.X[:, kept]
        coef, *_ = np.linalg.lstsq(sub, data.y, rcond=None)
        beta = embed_coefficients(coef, kept, data.d)
        rss = float(np.sum((data.y - data.X @ beta) ** 2))
        assert rss < 0.5 * float(data.y @ data.y)
