import numpy as np
import pytest

import hdlab.data as data_module
from hdlab import (
    Dataset,
    DegenerateColumnError,
    LinearModelSpec,
    TwoClassGaussianSpec,
    UndefinedCorrelationError,
    ValidationError,
    cross_validate,
    gen_iid_gaussian,
    gen_linear,
    gen_spiked,
    gen_two_class,
    greedy_spurious_support,
    is_standardized,
    rcv_variance,
    read_csv,
    sample_corr,
    sis_select,
    standardize,
    write_csv,
)
from hdlab.data import _centered, _corr_columns


def _reference_constant_columns(X):
    """The constant-column test _centered made before it filtered by the
    centered norm: every column compared with row 0."""
    Xc = X - X.mean(axis=0)
    col_sq = np.einsum("ij,ij->j", Xc, Xc)
    return np.flatnonzero((col_sq == 0.0) | np.all(X == X[0], axis=0))


def _reference_standardize(data):
    """standardize as it was before its output skipped the finiteness scan."""
    mu = data.X.mean(axis=0)
    Xc = data.X - mu
    sd = np.sqrt(np.einsum("ij,ij->j", Xc, Xc) / (data.n - 1))
    bad = np.flatnonzero(sd == 0.0)
    if bad.size:
        raise DegenerateColumnError("column %s is constant" % data.name_of(int(bad[0])))
    Xc /= sd
    return Dataset(Xc), (mu, sd)


class TestDataset:
    def test_basic_shape_accessors(self):
        ds = Dataset(np.arange(6.0).reshape(3, 2), np.ones(3))
        assert ds.n == 3 and ds.d == 2
        assert ds.name_of(0) == "x1" and ds.name_of(1) == "x2"

    def test_custom_names(self):
        ds = Dataset(np.ones((2, 2)), column_names=("a", "b"))
        assert ds.name_of(1) == "b"
        with pytest.raises(ValidationError):
            Dataset(np.ones((2, 2)), column_names=("a",))

    def test_rejects_bad_input(self):
        with pytest.raises(ValidationError):
            Dataset(np.ones(3))
        with pytest.raises(ValidationError):
            Dataset(np.array([[1.0, np.nan]]))
        with pytest.raises(ValidationError):
            Dataset(np.ones((3, 2)), np.ones(2))
        with pytest.raises(ValidationError):
            Dataset(np.ones((3, 2)), np.array([1.0, np.inf, 0.0]))

    def test_arrays_read_only(self):
        ds = Dataset(np.ones((2, 2)), np.ones(2))
        with pytest.raises(ValueError):
            ds.X[0, 0] = 5.0
        with pytest.raises(ValueError):
            ds.y[0] = 5.0

    def test_require_y(self):
        with pytest.raises(ValidationError):
            Dataset(np.ones((2, 2))).require_y()

    def test_from_finite_builds_the_same_dataset(self):
        X = np.random.default_rng(0).standard_normal((4, 3))
        y = np.arange(4.0)
        ds = Dataset._from_finite(X.copy(), y.copy(), ["a", "b", "c"])
        assert np.array_equal(ds.X, X) and np.array_equal(ds.y, y)
        assert ds == Dataset(ds.X, ds.y, ("a", "b", "c"))
        assert ds.column_names == ("a", "b", "c") and ds.transform is None
        assert not ds.X.flags.writeable and not ds.y.flags.writeable
        # Only the scan of X is skipped; shapes, names and y are checked.
        with pytest.raises(ValidationError):
            Dataset._from_finite(X.copy(), np.array([0.0, np.nan, 1.0, 2.0]))
        with pytest.raises(ValidationError):
            Dataset._from_finite(X.copy(), np.ones(3))
        with pytest.raises(ValidationError):
            Dataset._from_finite(X[0].copy())
        with pytest.raises(ValidationError):
            Dataset._from_finite(X.copy(), column_names=("a",))


class TestSpecs:
    def test_linear_spec_validation(self):
        with pytest.raises(ValidationError):
            LinearModelSpec(n=5, d=3, beta={3: 1.0})
        with pytest.raises(ValidationError):
            LinearModelSpec(n=5, d=3, beta={}, noise_sd=-1.0)
        with pytest.raises(ValidationError):
            LinearModelSpec(n=5, d=3, beta={}, endogenous_set={5: 1.0})
        with pytest.raises(ValidationError):
            LinearModelSpec(n=5, d=3, beta={}, endogenous_mode="sideways")

    def test_beta_vector(self):
        spec = LinearModelSpec(n=5, d=4, beta={0: 2.0, 2: -1.0})
        assert np.array_equal(spec.beta_vector(), [2.0, 0.0, -1.0, 0.0])

    def test_two_class_spec_validation(self):
        with pytest.raises(ValidationError):
            TwoClassGaussianSpec(1, 2, np.zeros(2), np.zeros(2))
        with pytest.raises(ValidationError):
            TwoClassGaussianSpec(5, 2, np.zeros(3), np.zeros(2))


class TestGenerators:
    def test_iid_deterministic(self):
        a = gen_iid_gaussian(20, 5, seed=3)
        b = gen_iid_gaussian(20, 5, seed=3)
        c = gen_iid_gaussian(20, 5, seed=4)
        assert np.array_equal(a.X, b.X)
        assert not np.array_equal(a.X, c.X)

    def test_two_class_layout(self):
        spec = TwoClassGaussianSpec(10, 3, np.zeros(3), np.full(3, 5.0))
        ds = gen_two_class(spec, seed=0)
        assert ds.n == 20
        assert np.array_equal(ds.y, np.repeat([0.0, 1.0], 10))
        # A mean shift of 5 sigma is visible in the raw sample means.
        assert np.all(ds.X[10:].mean(axis=0) - ds.X[:10].mean(axis=0) > 2.0)

    def test_linear_zero_model(self):
        spec = LinearModelSpec(n=10, d=3, beta={}, noise_sd=0.0)
        ds = gen_linear(spec, seed=1)
        assert np.array_equal(ds.y, np.zeros(10))

    def test_linear_exogenous_mean_corr(self):
        # With no planted coupling the noise is uncorrelated with every
        # column; the Monte Carlo mean correlation shrinks like 1/sqrt(n*R).
        n, d, reps = 200, 5, 100
        totals = np.zeros(d)
        for rep in range(reps):
            spec = LinearModelSpec(n=n, d=d, beta={0: 1.0})
            ds = gen_linear(spec, seed=[77, rep])
            eps = ds.y - ds.X @ spec.beta_vector()
            for j in range(d):
                totals[j] += sample_corr(ds.X[:, j], eps)
        assert np.max(np.abs(totals / reps)) < 4.0 / np.sqrt(n * reps)

    def test_linear_direct_coupling_detectable(self):
        n, reps = 1000, 200
        vals = np.empty(reps)
        for rep in range(reps):
            spec = LinearModelSpec(
                n=n, d=8, beta={1: 1.0, 2: 1.0, 3: 1.0},
                endogenous_set={5: 0.5}, endogenous_mode="direct")
            ds = gen_linear(spec, seed=[5, rep])
            eps = ds.y - ds.X @ spec.beta_vector()
            vals[rep] = abs(sample_corr(ds.X[:, 5], eps))
        assert vals.mean() > 3.0 / np.sqrt(n)

    def test_linear_quadratic_coupling_moments(self):
        spec = LinearModelSpec(
            n=4000, d=4, beta={}, endogenous_set={2: 1.0},
            endogenous_mode="quadratic")
        ds = gen_linear(spec, seed=9)
        eps = ds.y
        # First moment stays clean, second moment is clearly coupled.
        assert abs(sample_corr(ds.X[:, 2], eps)) < 0.1
        assert abs(sample_corr(ds.X[:, 2] ** 2, eps)) > 0.3

    def test_spiked_columns(self):
        ds = gen_spiked(500, 20, spike_count=4, spike_sd=5.0, seed=2)
        sds = ds.X.std(axis=0, ddof=1)
        assert np.all(sds[:4] > 3.0) and np.all(sds[4:] < 2.0)
        with pytest.raises(Exception):
            gen_spiked(10, 5, spike_count=9)


class TestStandardize:
    def test_hand_column(self):
        ds = standardize(Dataset(np.array([[1.0], [2.0], [3.0]])))
        assert np.allclose(ds.X[:, 0], [-1.0, 0.0, 1.0], atol=1e-15)

    def test_moments_and_idempotence(self):
        ds = standardize(gen_iid_gaussian(100, 5, seed=0))
        assert np.max(np.abs(ds.X.mean(axis=0))) < 1e-12
        assert np.max(np.abs(ds.X.std(axis=0, ddof=1) - 1.0)) < 1e-12
        again = standardize(ds)
        assert np.max(np.abs(again.X - ds.X)) < 1e-12
        assert is_standardized(ds.X)

    def test_constant_column_named(self):
        X = np.ones((5, 3))
        X[:, 0] = np.arange(5.0)
        X[:, 2] = np.arange(5.0) ** 2
        with pytest.raises(DegenerateColumnError, match="x2"):
            standardize(Dataset(X))

    @pytest.mark.parametrize("n", [3, 7])
    def test_constant_whose_mean_rounds_away_is_named(self, n):
        # n copies of 0.1 have a mean that is not 0.1, so centering leaves
        # entries of about 1e-17; scaled by their sd they would read as a
        # centered unit column, and the output would skip the standardized
        # check as a standardize() output.
        X = np.column_stack([np.full(n, 0.1), np.arange(n) ** 2.0])
        assert X[:, 0].mean() != 0.1
        with pytest.raises(DegenerateColumnError, match="x1 is constant"):
            standardize(Dataset(X))

    def test_sd_that_underflows_is_named(self):
        # The centered squares sum to the smallest subnormal, which halves
        # to 0: the column varies, but its sd is 0.
        X = np.column_stack([[1.0, 2.0, 4.0], [3e-162, 0.0, 0.0]])
        with pytest.raises(DegenerateColumnError, match="x2 has an sd that underflows"):
            standardize(Dataset(X))

    def test_needs_two_rows(self):
        with pytest.raises(ValidationError):
            standardize(Dataset(np.ones((1, 2))))

    def test_is_standardized_rejects_raw(self):
        assert not is_standardized(gen_iid_gaussian(50, 3, seed=1).X * 7.0 + 3.0)

    def test_centers_y_and_records_the_transform(self):
        raw = Dataset(np.random.default_rng(0).normal(5, 3, (20, 2)), np.arange(20.0),
                      ("a", "b"))
        ds = standardize(raw)
        assert np.array_equal(ds.y, np.arange(20.0) - 9.5)
        x_mean, x_sd, y_mean = ds.transform
        assert y_mean == 9.5
        assert np.array_equal(x_mean, raw.X.mean(axis=0))
        assert np.array_equal(x_sd, raw.X.std(axis=0, ddof=1))
        assert np.array_equal(ds.X, (raw.X - x_mean) / x_sd)
        assert ds.column_names == ("a", "b")
        assert not ds.X.flags.writeable
        # Only standardize sets the record; a Dataset built by hand has none,
        # and it takes no part in equality.
        assert raw.transform is None
        assert Dataset(ds.X, ds.y, ds.column_names).transform is None
        assert Dataset(ds.X, ds.y, ds.column_names) == ds
        with pytest.raises(TypeError):
            Dataset(raw.X, raw.y, None, ds.transform)
        assert standardize(Dataset(raw.X)).transform[2] is None

    def test_standardize_matches_two_pass_formula(self):
        # The two-pass reference standardize once used: the mean, then np.std.
        for n, d, seed in [(400, 5000, 0), (200, 200, 1), (160, 200, 2), (60, 800, 3)]:
            X = np.random.default_rng(seed).normal(2.0, 3.0, (n, d))
            ref = (X - X.mean(0)) / X.std(0, ddof=1)
            assert np.array_equal(standardize(Dataset(X)).X, ref)

    @pytest.mark.parametrize("n, d, seed", [(400, 5000, 0), (200, 200, 1), (160, 200, 2),
                                            (60, 800, 3)])
    def test_is_standardized_matches_the_two_pass_definition(self, n, d, seed):
        def two_pass(X, mean_tol=1e-8, sd_tol=1e-6):
            return bool(np.max(np.abs(X.mean(0))) <= mean_tol
                        and np.max(np.abs(X.std(0, ddof=1) - 1.0)) <= sd_tol)

        X = np.array(standardize(Dataset(
            np.random.default_rng(seed).normal(2.0, 3.0, (n, d)))).X)
        shifted = X.copy()
        shifted[:, 3] += 2e-8
        cases = [(X, True), (X * (1 + 5e-7), True), (X * (1 - 5e-7), True),
                 (X * (1 + 2e-6), False), (X * (1 - 2e-6), False), (shifted, False)]
        for Z, want in cases:
            assert is_standardized(Z) is want
            assert two_pass(Z) is want


class TestSampleCorr:
    def test_exact_values(self):
        x = np.array([1.0, 2.0, 3.0])
        assert sample_corr(x, x) == pytest.approx(1.0, abs=1e-15)
        assert sample_corr(x, -x) == pytest.approx(-1.0, abs=1e-15)
        assert sample_corr(x, np.array([1.0, 3.0, 2.0])) == pytest.approx(0.5, abs=1e-15)

    def test_symmetry_and_invariances(self):
        rng = np.random.default_rng(4)
        x, y = rng.standard_normal(30), rng.standard_normal(30)
        r = sample_corr(x, y)
        assert sample_corr(y, x) == pytest.approx(r, abs=1e-15)
        assert sample_corr(3.5 * x + 1.0, y) == pytest.approx(r, abs=1e-12)
        assert sample_corr(-x, y) == pytest.approx(-r, abs=1e-15)

    def test_errors(self):
        with pytest.raises(UndefinedCorrelationError):
            sample_corr(np.ones(5), np.arange(5.0))
        with pytest.raises(ValidationError):
            sample_corr(np.ones(3), np.ones(4))
        with pytest.raises(ValidationError):
            sample_corr(np.ones(1), np.ones(1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_names_its_argument(self, bad):
        # NaN used to come back as a NaN correlation, and inf as NaN after a
        # RuntimeWarning.
        good = np.array([1.0, 2.0, 4.0, 3.0])
        other = np.array([1.0, bad, 3.0, 4.0])
        with pytest.raises(ValidationError, match="x contains non-finite"):
            sample_corr(other, good)
        with pytest.raises(ValidationError, match="y contains non-finite"):
            sample_corr(good, other)


class TestCorrColumns:
    """_corr_columns of a _centered tuple is the one correlation routine."""

    def test_matrix_target_matches_vector_calls(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((30, 7)) + 3.0
        V = rng.standard_normal((30, 4)) - 1.0
        got = _corr_columns(_centered(X, V))
        assert got.shape == (7, 4)
        for k in range(4):
            want = _corr_columns(_centered(X, V[:, k]))
            assert np.max(np.abs(got[:, k] - want)) <= 1e-15
            assert sample_corr(X[:, 2], V[:, k]) == pytest.approx(want[2], abs=1e-15)

    def test_constant_target_or_column(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((10, 3))
        V = rng.standard_normal((10, 2))
        V[:, 1] = 2.0
        with pytest.raises(UndefinedCorrelationError, match="target") as exc:
            _corr_columns(_centered(X, V))
        assert exc.value.column is None
        X[:, 2] = -1.0
        with pytest.raises(UndefinedCorrelationError, match="column 2") as exc:
            _corr_columns(_centered(X, V[:, 0]))
        assert exc.value.column == 2

    def test_constant_whose_mean_rounds_away(self):
        # Three 0.1s have mean 0.10000000000000002, so centering leaves
        # nonzero entries; the vector is still constant.
        x = np.full(3, 0.1)
        assert x.mean() != 0.1
        with pytest.raises(UndefinedCorrelationError):
            sample_corr(x, np.array([1.0, 2.0, 4.0]))
        with pytest.raises(UndefinedCorrelationError):
            sample_corr(np.array([1.0, 2.0, 4.0]), x)


class TestConstantFilter:
    """_centered compares with row 0 only the columns whose centered norm
    is small enough for a constant; it must flag exactly the columns the
    full comparison flags, and standardize must refuse each of them."""

    @staticmethod
    def _columns(rng, n):
        """Constant, near-constant and ordinary columns of magnitudes from
        1e-300 to 1e300, shuffled."""
        cols = []
        for e in (-300, -200, -170, -160, -150, -100, -20, 0, 20, 100, 150, 200, 300):
            c = rng.uniform(1.0, 10.0) * 10.0 ** e * rng.choice([-1.0, 1.0])
            const = np.full(n, c)
            one_ulp = const.copy()
            one_ulp[rng.integers(n)] = np.nextafter(c, 2 * c)
            cols += [const, one_ulp, c * (1.0 + 1e-14 * rng.standard_normal(n)),
                     c * (1.0 + rng.standard_normal(n))]
        # Three 0.1s and the like: constants whose mean rounds away.
        cols += [np.full(n, 0.1), np.full(n, 0.7), np.full(n, 1e-3 / 3), np.zeros(n)]
        # Centered squares that underflow: a zero norm counts as constant.
        cols += [1e-170 * (1.0 + 1e-10 * rng.standard_normal(n))]
        cols = np.column_stack(cols)
        return cols[:, rng.permutation(cols.shape[1])]

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 10, 31, 64, 100, 257, 1000])
    def test_matches_the_brute_force(self, n):
        rng = np.random.default_rng(n)
        v = rng.standard_normal(n)
        for _ in range(4):
            X = self._columns(rng, n)
            want = _reference_constant_columns(X)
            assert want.size  # every case holds constant columns
            with pytest.raises(UndefinedCorrelationError) as exc:
                _centered(X, v)
            assert exc.value.column == want[0]
            # Each column alone: flagged exactly when the full test flags it.
            for j in range(X.shape[1]):
                col = np.ascontiguousarray(X[:, j:j + 1])
                if j in want:
                    with pytest.raises(UndefinedCorrelationError) as exc:
                        _centered(col, v)
                    assert exc.value.column == 0
                    with pytest.raises(DegenerateColumnError, match="x1 is constant"):
                        standardize(Dataset(col))
                else:
                    _centered(col, v)

    def test_non_constant_columns_pass(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 50, 1000):
            X = rng.standard_normal((n, 40)) * 10.0 ** rng.integers(-150, 150, 40)
            assert _reference_constant_columns(X).size == 0
            Xc = _centered(X, rng.standard_normal(n))[0]
            assert np.array_equal(Xc, X - X.mean(axis=0))


class TestFiniteScan:
    """A skipped scan of X never admits a non-finite value."""

    def test_gen_linear_checks_y(self):
        # A non-finite beta is refused by the spec, which names its index.
        for beta in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValidationError, match="beta value at index 2"):
                LinearModelSpec(n=20, d=5, beta={2: beta})
        with pytest.raises(ValidationError):
            gen_linear(LinearModelSpec(n=20, d=5, beta={}, endogenous_set={1: np.inf}), 0)
        # A finite coupling whose noise overflows is caught by y's check.
        spec = LinearModelSpec(n=200, d=5, beta={}, endogenous_set={1: 1e308})
        with np.errstate(over="ignore"), pytest.raises(ValidationError, match="y contains"):
            gen_linear(spec, 0)

    def test_gen_spiked_checks_its_scaled_columns(self):
        with np.errstate(over="ignore"), pytest.raises(ValidationError, match="X contains"):
            gen_spiked(50, 8, spike_count=3, spike_sd=1e308, seed=0)
        ds = gen_spiked(50, 8, spike_count=3, spike_sd=1e300, seed=0)
        assert np.all(np.isfinite(ds.X)) and not ds.X.flags.writeable

    @pytest.mark.parametrize("seed", range(6))
    def test_standardize_near_the_overflow_threshold(self, seed):
        big = np.finfo(np.float64).max
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        cases = [
            big * rng.uniform(-1.0, 1.0, (n, 3)),  # centering can overflow
            np.full((n, 2), big * 0.9) - rng.uniform(0.0, 1e300, (n, 2)),  # the sum can
            rng.choice([-1.0, 1.0], (n, 2)) * 1e200,  # squares overflow: sd = inf
            np.column_stack([rng.standard_normal(n), big * rng.uniform(0.5, 1.0, n)]),
            np.column_stack([rng.standard_normal(n), 1e-160 * rng.standard_normal(n)]),
        ]
        for X in cases:
            with np.errstate(all="ignore"):
                try:
                    want, (mu, sd) = _reference_standardize(Dataset(X))
                except (ValidationError, DegenerateColumnError) as exc:
                    with pytest.raises(type(exc), match=str(exc)):
                        standardize(Dataset(X))
                    continue
                got = standardize(Dataset(X))
            assert np.array_equal(got.X, want.X)
            assert np.array_equal(got.transform[0], mu) and np.array_equal(got.transform[1], sd)
            assert np.all(np.isfinite(got.X)) and not got.X.flags.writeable

    def test_a_wide_design_is_scanned_where_it_is_drawn_only(self, monkeypatch):
        # The screen_fit pipeline at 400 x 5000: the draw, standardize, CV on
        # the screened columns and RCV on all of them. Only gen_linear's y and
        # the hand-built screened Dataset are scanned; no scan covers 1e6 or
        # more entries (the full comparison made 4), and no fold's X is.
        scans = []
        stage = ["gen_linear"]
        real = data_module._require_finite

        def spy(a, what):
            scans.append((stage[0], what, a.size))
            return real(a, what)

        monkeypatch.setattr(data_module, "_require_finite", spy)
        spec = LinearModelSpec(n=400, d=5000, beta={0: 3.0, 1: -2.5, 2: 2.0}, noise_sd=1.0)
        raw = gen_linear(spec, 0)
        stage[0] = "standardize"
        data = standardize(raw)
        stage[0] = "screen"
        keep = sis_select(data).survivors
        sub = Dataset(data.X[:, keep], data.y)
        stage[0] = "cross_validate"
        cross_validate(sub, np.geomspace(0.5, 0.05, 5), 5, 0)
        stage[0] = "rcv_variance"
        rcv_variance(data, lambda ds: greedy_spurious_support(ds, 6), 0)
        assert max(size for _, _, size in scans) < 10 ** 6
        assert {s for s, _, _ in scans} == {"gen_linear", "standardize", "screen",
                                             "cross_validate", "rcv_variance"}
        assert {w for s, w, _ in scans if s != "screen"} == {"y"}


class TestCsv:
    def test_round_trip_exact(self, tmp_path):
        spec = LinearModelSpec(n=17, d=4, beta={0: 1.0})
        ds = gen_linear(spec, seed=8)
        path = tmp_path / "data.csv"
        write_csv(ds, path)
        back = read_csv(path)
        assert np.array_equal(back.X, ds.X)
        assert np.array_equal(back.y, ds.y)
        assert back.column_names == ("x1", "x2", "x3", "x4")

    def test_no_response(self, tmp_path):
        ds = gen_iid_gaussian(5, 3, seed=0)
        path = tmp_path / "x.csv"
        write_csv(ds, path)
        back = read_csv(path)
        assert back.y is None and back.d == 3

    def test_y_col_selection(self, tmp_path):
        path = tmp_path / "named.csv"
        path.write_text("a,b,target\n1.0,2.0,3.0\n4.0,5.0,6.0\n")
        ds = read_csv(path, y_col="target")
        assert np.array_equal(ds.y, [3.0, 6.0])
        assert ds.column_names == ("a", "b")
        all_features = read_csv(path, y_col=None)
        assert all_features.y is None and all_features.d == 3

    def test_bad_files(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(ValidationError):
            read_csv(empty)
        headed = tmp_path / "only_header.csv"
        headed.write_text("a,b\n")
        with pytest.raises(ValidationError):
            read_csv(headed)
        words = tmp_path / "words.csv"
        words.write_text("a,b\n1.0,spam\n")
        with pytest.raises(ValidationError):
            read_csv(words)
        ragged = tmp_path / "ragged.csv"
        ragged.write_text("a,b\n1.0,2.0,3.0\n")
        with pytest.raises(ValidationError):
            read_csv(ragged)
