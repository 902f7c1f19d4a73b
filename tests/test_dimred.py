import math

import numpy as np
import pytest
from scipy.spatial.distance import pdist

from hdlab import (
    ConfigurationError,
    Dataset,
    UndefinedMetricError,
    ValidationError,
    distortion,
    gen_iid_gaussian,
    pairwise_distances,
    pca,
    random_projection,
    reconstruction_error,
    timing_trend,
)
from hdlab import dimred
from hdlab.dimred import (
    _BLOCK_ROWS,
    _column_norms,
    _covariance_pca,
    _fix_signs,
    median_relative_error,
)


def cloud(seed, n, d, scales=None):
    X = np.random.default_rng(seed).standard_normal((n, d))
    if scales is not None:
        X = X * np.asarray(scales)
    return Dataset(X)


class TestPca:
    def test_recovers_dominant_axis(self):
        data = cloud(0, 2000, 3, scales=[3.0, 1.0, 1.0])
        proj = pca(data, 1)
        v = proj.basis[:, 0]
        assert abs(v[0]) > 0.99
        assert v[np.argmax(np.abs(v))] > 0  # deterministic orientation

    def test_matches_svd_directions(self):
        data = cloud(1, 100, 10)
        proj = pca(data, 3)
        Xc = data.X - data.X.mean(axis=0)
        _, _, vt = np.linalg.svd(Xc, full_matrices=False)
        for j in range(3):
            assert abs(float(vt[j] @ proj.basis[:, j])) > 1 - 1e-8

    def test_basis_is_orthonormal(self):
        proj = pca(cloud(2, 40, 12), 5)
        gram = proj.basis.T @ proj.basis
        assert np.max(np.abs(gram - np.eye(5))) < 1e-12
        assert proj.method == "pca" and proj.k == 5 and proj.scale == 1.0

    def test_projected_variances_are_ordered(self):
        data = cloud(3, 200, 8)
        proj = pca(data, 8)
        Z = proj.apply(data.X - data.X.mean(axis=0))
        variances = Z.var(axis=0, ddof=1)
        assert np.all(np.diff(variances) <= 1e-10)

    def test_full_rank_reconstruction_is_exact(self):
        data = cloud(4, 50, 8)
        assert reconstruction_error(data, pca(data, 8)) < 1e-8

    def test_reconstruction_matches_dropped_eigenvalues(self):
        data = cloud(5, 60, 10)
        Xc = data.X - data.X.mean(axis=0)
        evals = np.linalg.eigvalsh(Xc.T @ Xc / (data.n - 1))[::-1]
        for k in (2, 5, 9):
            want = float(np.sum(evals[k:])) * (data.n - 1)
            got = reconstruction_error(data, pca(data, k))
            assert got == pytest.approx(want, rel=1e-8)

    def test_beats_random_projection_at_reconstruction(self):
        for seed in range(10):
            data = cloud(10 + seed, 40, 15)
            best = reconstruction_error(data, pca(data, 3))
            rival = reconstruction_error(
                data, random_projection(data, 3, seed=seed, orthonormalize=True))
            assert best <= rival + 1e-9

    def test_k_validation(self):
        data = cloud(6, 20, 5)
        for bad in (0, 6, 2.5, True):
            with pytest.raises(ConfigurationError):
                pca(data, bad)

    def test_wide_data_matches_covariance_eigenvectors(self):
        data = cloud(8, 30, 200)
        k = 10
        proj = pca(data, k)
        Xc = data.X - data.X.mean(axis=0)
        evals, evecs = np.linalg.eigh(Xc.T @ Xc / (data.n - 1))
        variances = (Xc @ proj.basis).var(axis=0, ddof=1)
        assert np.allclose(variances, evals[::-1][:k], rtol=1e-10, atol=0.0)
        assert np.max(np.abs(proj.basis.T @ proj.basis - np.eye(k))) < 1e-12
        for j in range(k):
            v = proj.basis[:, j]
            assert v[np.argmax(np.abs(v))] > 0
            assert abs(float(v @ evecs[:, -1 - j])) > 1 - 1e-8
        # timing_trend times this route; it must give the same basis.
        assert np.max(np.abs(_covariance_pca(data, k).basis - proj.basis)) < 1e-10

    @staticmethod
    def centered_product(data, proj):
        # The scores as the experiments computed them from the basis.
        return (data.X - data.X.mean(axis=0)) @ proj.basis

    def test_narrow_data_is_the_covariance_route(self):
        for n, d, k in ((100, 10, 3), (50, 50, 50), (400, 100, 100)):
            data = cloud(30 + d, n, d)
            proj = pca(data, k)
            assert np.array_equal(proj.basis, _covariance_pca(data, k).basis)
            assert proj.scores.tobytes() == self.centered_product(data, proj).tobytes()

    @staticmethod
    def certified_routes(monkeypatch):
        """Record, for each basis pca certifies, whether it passed as is."""
        passed = []
        real = dimred._certified

        def spy(V, Y):
            out = real(V, Y)
            passed.append(out is V)
            return out

        monkeypatch.setattr(dimred, "_certified", spy)
        return passed

    @staticmethod
    def assert_matches_svd(data, proj, k):
        Xc = data.X - data.X.mean(axis=0)
        s = np.linalg.svd(Xc, compute_uv=False)
        V = proj.basis
        assert V.shape == (data.d, k)
        assert np.max(np.abs(V.T @ V - np.eye(k))) <= 1e-12
        top = float(np.sum(s[:k] ** 2))
        assert abs(float(np.sum((Xc @ V) ** 2)) - top) <= 1e-10 * top
        tops = V[np.argmax(np.abs(V), axis=0), np.arange(k)]
        assert np.all(tops > 0)

    def test_wide_rank_deficient_at_k_equal_n(self, monkeypatch):
        # Centering leaves 30 rows of rank 29, so the last singular value is
        # zero and the snapshot basis must be re-orthonormalized.
        passed = self.certified_routes(monkeypatch)
        data = cloud(40, 30, 200)
        proj = pca(data, 30)
        assert passed == [False]
        self.assert_matches_svd(data, proj, 30)
        assert proj.scores.tobytes() == self.centered_product(data, proj).tobytes()
        Xc = data.X - data.X.mean(axis=0)
        _, _, vt = np.linalg.svd(Xc, full_matrices=False)
        for j in range(29):
            assert abs(float(vt[j] @ proj.basis[:, j])) > 1 - 1e-8

    def test_wide_ill_conditioned(self, monkeypatch):
        # Columns scaled geometrically: sigma_k / sigma_1 is about 1e-7.
        passed = self.certified_routes(monkeypatch)
        n, d, k = 40, 200, 20
        data = cloud(41, n, d, scales=10.0 ** (-7.0 * np.arange(d) / (k - 1)))
        s = np.linalg.svd(data.X - data.X.mean(axis=0), compute_uv=False)
        assert 1e-8 < s[k - 1] / s[0] < 1e-6
        proj = pca(data, k)
        assert passed == [False]
        self.assert_matches_svd(data, proj, k)
        assert proj.scores.tobytes() == self.centered_product(data, proj).tobytes()

    def test_wide_well_conditioned_takes_the_snapshot_basis(self, monkeypatch):
        passed = self.certified_routes(monkeypatch)
        data = cloud(42, 40, 300)
        proj = pca(data, 25)
        assert passed == [True]
        self.assert_matches_svd(data, proj, 25)

    @pytest.mark.parametrize("seed", range(4))
    def test_snapshot_scores_match_the_centered_product(self, seed, monkeypatch):
        # Read off the n x n Gram matrix, the scores differ from Xc @ V by
        # rounding only: 1e-10 relative per column, far above the ~1e-13
        # seen on such designs.
        passed = self.certified_routes(monkeypatch)
        rng = np.random.default_rng(4400 + seed)
        for _ in range(10):
            n = int(rng.integers(5, 80))
            d = int(rng.integers(n + 1, 400))
            data = cloud(int(rng.integers(2**32)), n, d, scales=10.0 ** rng.uniform(0, 4, d))
            k = int(rng.integers(1, n))
            proj = pca(data, k)
            want = self.centered_product(data, proj)
            err = np.linalg.norm(proj.scores - want, axis=0)
            assert np.all(err <= 1e-10 * np.linalg.norm(want, axis=0))
            assert proj.scores.shape == (n, k)
        assert passed.count(True) >= 5  # most designs take the snapshot basis

    def test_fix_signs_matches_a_column_loop(self):
        rng = np.random.default_rng(43)
        V = rng.integers(-3, 4, size=(9, 40)).astype(np.float64)
        V[:, 0] = [2, -2, 0, 0, 0, 0, 0, 0, 0]    # tie, positive first
        V[:, 1] = [-2, 2, 0, 0, 0, 0, 0, 0, 0]    # tie, negative first
        V[:, 2] = 0.0
        V[:, 3] = [-0.0, 0, 0, 0, 0, 0, 0, 0, -1]
        want = V.copy()
        for j in range(want.shape[1]):
            i = int(np.argmax(np.abs(want[:, j])))
            if want[i, j] < 0:
                want[:, j] = -want[:, j]
        got = V.copy()
        signs = _fix_signs(got)
        assert np.array_equal(got, want)
        assert np.array_equal(got, V * signs)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        assert np.array_equal(got[:, :2], [[2, 2], [-2, -2]] + [[0, 0]] * 7)

    @pytest.mark.parametrize("seed", range(4))
    def test_fix_signs_matches_the_masked_update_bit_for_bit(self, seed):
        # The masked form negated the selected columns in place; the scaling
        # by +-1.0 must give the same bytes, -0.0, zero columns, NaN columns
        # and +-inf ties included.
        def masked(V):
            top = np.argmax(np.abs(V), axis=0)
            V[:, V[top, np.arange(V.shape[1])] < 0] *= -1.0
            return V

        rng = np.random.default_rng(4300 + seed)
        for _ in range(50):
            n, k = int(rng.integers(1, 30)), int(rng.integers(1, 30))
            V = rng.integers(-2, 3, size=(n, k)) * rng.choice([1e-300, 0.5, 1e300])
            V[rng.random((n, k)) < 0.3] = -0.0
            V[:, rng.random(k) < 0.1] = 0.0
            V[rng.random((n, k)) < 0.05] = np.nan
            V[rng.random((n, k)) < 0.05] = np.inf
            V[rng.random((n, k)) < 0.05] = -np.inf
            ends = np.zeros((n, 3))
            ends[:, 0] = np.nan
            ends[0, 1], ends[-1, 1] = -np.inf, np.inf
            ends[0, 2], ends[-1, 2] = np.inf, -np.inf
            V = np.hstack([V, ends])
            k += 3
            got = V.copy()
            signs = _fix_signs(got)
            assert got.tobytes() == masked(V.copy()).tobytes()
            assert np.array_equal(np.abs(signs), np.ones(k))

    def test_apply_validates_width(self):
        proj = pca(cloud(7, 30, 6), 2)
        with pytest.raises(ValidationError):
            proj.apply(np.ones((4, 5)))


class TestRandomProjection:
    def test_unit_columns_and_scale(self):
        data = cloud(20, 10, 64)
        proj = random_projection(data, 16, seed=0)
        norms = np.linalg.norm(proj.basis, axis=0)
        assert np.max(np.abs(norms - 1.0)) < 1e-12
        assert proj.scale == pytest.approx(math.sqrt(64 / 16), rel=1e-15)
        assert proj.method == "rp" and proj.k == 16
        assert proj.scores is None
        assert random_projection(data, 16, seed=0, orthonormalize=True).scores is None

    @pytest.mark.parametrize("seed", range(4))
    def test_column_norms_match_linalg_norm_bit_for_bit(self, seed):
        # pca and random_projection take their column norms by einsum; they
        # must be np.linalg.norm's bits, whatever the shape and layout.
        rng = np.random.default_rng(4500 + seed)
        special = [0.0, -0.0, np.nan, np.inf, -np.inf, 1e300, -1e300, 1e-300]
        for _ in range(50):
            n, k = int(rng.integers(1, 300)), int(rng.integers(1, 40))
            A = rng.standard_normal((n, k)) * 10.0 ** rng.uniform(-3, 3, k)
            mask = rng.random((n, k)) < 0.02
            A[mask] = rng.choice(special, int(mask.sum()))
            A[:, rng.random(k) < 0.1] = 0.0
            for B in (A, np.asfortranarray(A), A[::2], A[:, ::2], A[:, :1]):
                with np.errstate(over="ignore", invalid="ignore"):
                    assert _column_norms(B).tobytes() == np.linalg.norm(B, axis=0).tobytes()

    def test_seed_reproducibility(self):
        data = cloud(21, 5, 30)
        a = random_projection(data, 4, seed=7)
        b = random_projection(data, 4, seed=7)
        c = random_projection(data, 4, seed=8)
        assert np.array_equal(a.basis, b.basis)
        assert not np.array_equal(a.basis, c.basis)

    def test_wider_than_input_allowed_without_orthonormalization(self):
        data = cloud(22, 5, 6)
        proj = random_projection(data, 12, seed=0)
        assert proj.basis.shape == (6, 12)
        with pytest.raises(ConfigurationError):
            random_projection(data, 12, seed=0, orthonormalize=True)

    def test_orthonormalized_variant(self):
        data = cloud(23, 8, 40)
        proj = random_projection(data, 10, seed=3, orthonormalize=True)
        gram = proj.basis.T @ proj.basis
        assert np.max(np.abs(gram - np.eye(10))) < 1e-12
        assert proj.scale == 1.0

    def test_high_dimension_gives_near_orthogonal_columns(self):
        data = cloud(24, 5, 1000)
        proj = random_projection(data, 20, seed=1)
        gram = np.abs(proj.basis.T @ proj.basis - np.eye(20))
        off = gram[np.triu_indices(20, k=1)]
        assert float(off.mean()) < 0.05
        assert float(off.max()) < 0.2

    def test_k_validation(self):
        data = cloud(25, 10, 8)
        for bad in (0, -3, 1.5, True):
            with pytest.raises(ConfigurationError):
                random_projection(data, bad, seed=0)


class TestPairwiseDistances:
    def test_matches_reference(self):
        X = np.random.default_rng(30).standard_normal((30, 7))
        assert np.max(np.abs(pairwise_distances(X) - pdist(X))) < 1e-12

    def test_shape_and_exact_zero_for_duplicates(self):
        X = np.random.default_rng(31).standard_normal((5, 3))
        X[1] = X[0]
        out = pairwise_distances(X)
        assert out.shape == (10,)
        assert out[0] == 0.0

    @pytest.mark.parametrize("n", [40, _BLOCK_ROWS + 37, 2 * _BLOCK_ROWS + 5])
    def test_large_offset_close_pair_and_duplicate(self, n):
        # Rows far from the origin and pairs far closer than the rows' spread
        # are where the Gram formula cancels; both pairs must take the guard.
        X = 1e6 + np.random.default_rng(32).standard_normal((n, 6))
        X[n - 2] = X[1] + 1e-9
        X[n - 1] = X[3]
        out = pairwise_distances(X)
        ref = pdist(X)
        assert np.max(np.abs(out - ref)) <= 1e-10 * max(1.0, float(np.max(ref)))
        pair = lambda i, j: n * i - i * (i + 1) // 2 + j - i - 1  # noqa: E731
        assert out[pair(3, n - 1)] == 0.0
        assert out[pair(1, n - 2)] == pytest.approx(np.linalg.norm(X[n - 2] - X[1]), rel=1e-12)


def _reference_pairwise(X):
    """pairwise_distances as it was before its tiles were built in place:
    the same tile products, joined by np.hstack, and every Gram value
    gathered through full-tile temporaries. The function must match it bit
    for bit."""
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    out = np.empty(n * (n - 1) // 2)
    if n < 2:
        return out
    mean = X.mean(axis=0)
    sq = np.empty(n)
    for s in reversed(range(0, n, _BLOCK_ROWS)):
        block = X[s:s + _BLOCK_ROWS] - mean
        sq[s:s + _BLOCK_ROWS] = np.einsum("ij,ij->i", block, block)
        later = range(s + _BLOCK_ROWS, n, _BLOCK_ROWS)
        gram = np.hstack([block @ block.T]
                         + [block @ (X[t:t + _BLOCK_ROWS] - mean).T for t in later])
        upper = np.arange(n - s) > np.arange(block.shape[0])[:, None]
        norms = (sq[s:s + _BLOCK_ROWS, None] + sq[None, s:])[upper]
        d2 = norms - 2.0 * gram[upper]
        close = np.flatnonzero(d2 <= dimred._GUARD_TAU * norms)
        if close.size:
            rows, cols = np.nonzero(upper)
            for c in range(0, close.size, _BLOCK_ROWS):
                pick = close[c:c + _BLOCK_ROWS]
                diff = X[s + cols[pick]] - X[s + rows[pick]]
                d2[pick] = np.einsum("ij,ij->i", diff, diff)
        pos = s * n - s * (s + 1) // 2
        out[pos:pos + d2.size] = np.sqrt(d2)
    return out


@pytest.mark.parametrize("n", [2, 3, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1,
                               2 * _BLOCK_ROWS + 1])
@pytest.mark.parametrize("d", [1, 10, 300])
def test_pairwise_matches_the_hstack_tiles_bit_for_bit(n, d):
    rng = np.random.default_rng(1000 * n + d)
    X = 3.0 + rng.standard_normal((n, d))
    if n > 3:
        # Duplicates within a block and across blocks, so the guard fires.
        X[n - 1] = X[0]
        X[n // 2] = X[1]
    got, want = pairwise_distances(X), _reference_pairwise(X)
    assert got.tobytes() == want.tobytes()
    if n > 3:
        assert got[n - 2] == 0.0  # the pair (0, n - 1)


def _median_cases(seed, count):
    """Distances and their images: odd and even sizes, 1 and 2 included,
    with zero distances, ties, NaN and inf mixed in."""
    rng = np.random.default_rng(seed)
    for case in range(count):
        # Large sizes often: only there does a selection at m leave position
        # m - 1 short of the largest ratio below m, now and then.
        size = int(rng.choice([1, 2, 3, 4, int(rng.integers(5, 60))]
                              + [int(rng.integers(60, 8000))] * 3))
        orig = np.abs(rng.standard_normal(size))
        red = orig * (1.0 + 0.3 * rng.standard_normal(size))
        kind = case % 12  # kinds 8 to 11 stay plain
        if kind == 1:
            orig[rng.random(size) < 0.3] = 0.0
        elif kind == 2:
            orig, red = np.round(orig, 1) + 0.1, np.round(red, 1)
        elif kind == 3:
            red[:] = orig
        elif kind == 4:
            red[rng.integers(size)] = np.nan
        elif kind == 5:
            red[rng.integers(size)] = np.inf
        elif kind == 6:
            # inf / inf and inf - inf give NaNs of the other sign than np.nan.
            orig[rng.integers(size)] = np.inf
            red[rng.integers(size)] = np.nan
        elif kind == 7:
            orig[:] = 0.0
        yield orig, red


@pytest.mark.parametrize("seed", range(4))
def test_median_relative_error_matches_np_median_bit_for_bit(seed):
    for orig, red in _median_cases(seed, 1000):
        keep = orig > 0.0
        if not keep.any():
            with pytest.raises(UndefinedMetricError):
                median_relative_error(orig, red)
            continue
        given = (orig.copy(), red.copy())
        with np.errstate(invalid="ignore"):
            want = float(np.median(np.abs(red[keep] - orig[keep]) / orig[keep]))
            got = median_relative_error(orig, red)
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), (orig, red)
        assert orig.tobytes() == given[0].tobytes() and red.tobytes() == given[1].tobytes()


class TestDistortion:
    def test_orthonormal_square_basis_is_isometric(self):
        data = cloud(40, 20, 12)
        proj = random_projection(data, 12, seed=0, orthonormalize=True)
        report = distortion(data, proj)
        assert report.median_relative_error < 1e-8
        assert report.k == 12 and report.method == "rp"

    def test_moderate_target_dimension_preserves_distances(self):
        data = cloud(41, 50, 1000)
        report = distortion(data, random_projection(data, 300, seed=2))
        assert report.median_relative_error < 0.15

    def test_error_shrinks_with_k(self):
        coarse, fine = [], []
        for seed in range(5):
            data = cloud(50 + seed, 30, 500)
            coarse.append(distortion(
                data, random_projection(data, 10, seed=seed)).median_relative_error)
            fine.append(distortion(
                data, random_projection(data, 250, seed=seed)).median_relative_error)
        assert np.mean(fine) < np.mean(coarse)

    def test_duplicate_rows_are_ignored(self):
        X = np.random.default_rng(42).standard_normal((10, 20))
        X[3] = X[0]
        data = Dataset(X)
        report = distortion(data, random_projection(data, 5, seed=0))
        assert np.isfinite(report.median_relative_error)

    def test_median_relative_error_skips_zero_distances(self):
        orig = np.array([0.0, 1.0, 2.0, 4.0])
        reduced = np.array([3.0, 1.5, 2.0, 3.0])
        assert median_relative_error(orig, reduced) == 0.25
        with pytest.raises(UndefinedMetricError):
            median_relative_error(np.zeros(3), np.ones(3))

    def test_degenerate_inputs(self):
        flat = Dataset(np.ones((4, 6)))
        proj = random_projection(flat, 2, seed=0)
        with pytest.raises(UndefinedMetricError):
            distortion(flat, proj)
        single = Dataset(np.ones((1, 6)))
        with pytest.raises(ValidationError):
            distortion(single, proj)


class TestTimingTrend:
    def test_pca_cost_grows_much_faster_than_rp(self):
        trend = timing_trend(n=60, d_small=150, d_large=1200, k=5, repeats=3)
        assert set(trend) == {"pca", "rp"}
        for pair in trend.values():
            assert len(pair) == 2 and min(pair) > 0.0
        pca_ratio = trend["pca"][1] / trend["pca"][0]
        rp_ratio = trend["rp"][1] / trend["rp"][0]
        assert pca_ratio > rp_ratio
        assert pca_ratio > 5.0
