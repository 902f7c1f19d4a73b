import os

import numpy as np
import pytest

import hdlab
from hdlab import gen_linear, LinearModelSpec, standardize
from hdlab import kernels


def _instance(seed, n=40, d=12):
    spec = LinearModelSpec(n=n, d=d, beta={0: 2.0, 3: -1.0}, noise_sd=0.5)
    data = standardize(gen_linear(spec, seed=seed))
    X = np.asfortranarray(data.X)
    y = np.ascontiguousarray(data.y)
    return X, y


def _run(X, y, weights, tol=1e-10, max_iter=20000):
    beta = np.zeros(X.shape[1])
    iters, converged = kernels.cd_weighted_l1(X, y, weights, beta, tol, max_iter)
    return beta, iters, converged


class TestBackendSelection:
    def test_backend_reported(self):
        assert kernels.BACKEND == "python"

    def test_wrapper_rejects_c_order(self):
        X, y = _instance(0)
        Xc = np.ascontiguousarray(X)
        w = np.full(X.shape[1], 0.1)
        beta = np.zeros(X.shape[1])
        if Xc.flags.f_contiguous:  # degenerate single-column case
            pytest.skip("C and F order coincide")
        with pytest.raises(ValueError):
            kernels.cd_weighted_l1(Xc, y, w, beta, 1e-10, 100)

    def test_wrapper_rejects_wrong_dtype(self):
        X, y = _instance(0)
        with pytest.raises(ValueError):
            kernels.cd_weighted_l1(
                np.asfortranarray(X, dtype=np.float32), y,
                np.full(X.shape[1], 0.1), np.zeros(X.shape[1]), 1e-10, 100)


class TestPurePython:
    def test_converges_and_reports(self):
        X, y = _instance(1)
        w = np.full(X.shape[1], 0.1)
        beta, iters, converged = _run(X, y, w)
        assert converged and iters >= 1
        assert np.count_nonzero(beta) > 0

    def test_deterministic(self):
        X, y = _instance(2)
        w = np.full(X.shape[1], 0.05)
        b1, _, _ = _run(X, y, w)
        b2, _, _ = _run(X, y, w)
        assert np.array_equal(b1, b2)

    def test_zero_column_skipped(self):
        X, y = _instance(3)
        X = X.copy(order="F")
        X[:, 2] = 0.0
        w = np.full(X.shape[1], 0.1)
        beta, _, converged = _run(X, y, w)
        assert converged and beta[2] == 0.0

    def test_max_iter_cap(self):
        X, y = _instance(4)
        w = np.full(X.shape[1], 0.01)
        beta, iters, converged = _run(X, y, w, tol=1e-16, max_iter=2)
        assert iters == 2 and not converged


def _reference_cd(X, y, weights, beta, tol, max_iter):
    """The kernel's loop on NumPy scalars, as it was before it moved to Python
    floats and lists; the kernel must match it bit for bit."""
    n, d = X.shape
    colsq = np.einsum("ij,ij->j", X, X)
    r = y - X @ beta
    it = 0
    converged = False
    for it in range(1, max_iter + 1):
        max_change = 0.0
        max_abs = 0.0
        for j in range(d):
            cj = colsq[j]
            if cj <= 0.0:
                continue
            bj = beta[j]
            zj = X[:, j] @ r + cj * bj
            wj = weights[j] * n
            if zj > wj:
                bnew = (zj - wj) / cj
            elif zj < -wj:
                bnew = (zj + wj) / cj
            else:
                bnew = 0.0
            if bnew != bj:
                r -= (bnew - bj) * X[:, j]
                beta[j] = bnew
                change = abs(bnew - bj)
                if change > max_change:
                    max_change = change
            ab = abs(bnew)
            if ab > max_abs:
                max_abs = ab
        if max_change < tol * (1.0 + max_abs):
            converged = True
            break
    return it, converged


@pytest.mark.parametrize("seed", range(60))
def test_matches_the_numpy_scalar_loop_bit_for_bit(seed):
    # Random shapes and weights; some cases hold a zero column, zero weights,
    # a warm start or a sweep cap that stops the solve unconverged.
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(5, 120)), int(rng.integers(1, 150))
    X = np.asfortranarray(rng.standard_normal((n, d)))
    if seed % 4 == 1:
        X[:, int(rng.integers(d))] = 0.0
    y = X[:, : min(d, 3)] @ rng.uniform(-2.0, 2.0, min(d, 3)) + rng.standard_normal(n)
    weights = rng.uniform(0.0, 0.5, d) * (rng.random(d) < 0.8)
    if seed % 5 == 2:
        weights[:] = 0.0
    start = rng.standard_normal(d) * (rng.random(d) < 0.3) if seed % 3 == 0 else np.zeros(d)
    tol, max_iter = (1e-12, 5) if seed % 7 == 3 else (1e-10, 2000)
    beta, want = start.copy(), start.copy()
    got = kernels.cd_weighted_l1(X, y, weights, beta, tol, max_iter)
    assert got == _reference_cd(X, y, weights, want, tol, max_iter)
    assert beta.tobytes() == want.tobytes()


def test_package_holds_no_generated_code():
    # The kernel is plain NumPy; no extension source or binary ships.
    root = os.path.dirname(hdlab.__file__)
    found = [os.path.join(dirpath, name)
             for dirpath, _, names in os.walk(root) for name in names
             if name.endswith((".pyx", ".c", ".so"))]
    assert found == []
