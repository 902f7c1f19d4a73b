"""Timing of one 20-lambda Lasso path: warm-started coordinate descent
against the exact homotopy path (lasso_path).

Each problem has the shape of one cross-validation training fold of a
benchmark workload: 160x200 (the endogeneity experiment, n = d = 200 with
5 folds) and 320x66 (screen_fit: 400 rows screened down to 66 columns).
The grid runs from lam_max to 0.01 * lam_max, as in those workloads. The
script checks that both paths agree, then prints per-shape timings with
the coordinate descent sweep count and the path's kink and polish counts.

Usage:
    python benchmarks/bench_cd.py --sizes 160x200,320x66 --repeats 5
"""

import argparse
import sys
import time

import numpy as np

from hdlab import LinearModelSpec, coord_descent_l1, gen_linear, lasso_path, standardize
from hdlab.kernels import BACKEND

SIGNAL = (3.0, -2.5, 2.0, -1.5, 1.25, -1.0)
GRID_SIZE = 20


def build_problem(n, d, seed):
    beta = {j: SIGNAL[j] for j in range(min(d, len(SIGNAL)))}
    data = standardize(gen_linear(LinearModelSpec(n=n, d=d, beta=beta, noise_sd=1.0), seed))
    lam_max = float(np.max(np.abs(data.X.T @ data.y))) / n
    return data, np.geomspace(lam_max, 0.01 * lam_max, GRID_SIZE)


def cd_path(data, grid, tol):
    betas = np.empty((grid.size, data.d))
    sweeps = 0
    beta = None
    for i, lam in enumerate(grid):
        fit = coord_descent_l1(data, lam, beta_init=beta, tol=tol)
        if not fit.converged:
            raise RuntimeError("coordinate descent did not converge at lambda=%g" % lam)
        beta = betas[i] = fit.beta_hat
        sweeps += fit.iterations
    return betas, sweeps


def best_time(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - start)
    return best, out


def parse_sizes(text):
    sizes = []
    for part in text.split(","):
        n, _, d = part.partition("x")
        sizes.append((int(n), int(d)))
    return sizes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="160x200,320x66",
                        help="comma list of NxD problem sizes")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timing repeats per size (best is reported)")
    parser.add_argument("--tol", type=float, default=1e-10,
                        help="coordinate descent tolerance")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    print("kernel backend: %s" % BACKEND)
    header = "%6s %6s %8s %10s %7s %9s %10s %9s %10s %9s" % (
        "n", "d", "sweeps", "cd_s", "kinks", "polished", "path_s", "speedup",
        "max_gap", "max_kkt")
    print(header)
    print("-" * len(header))
    for n, d in parse_sizes(args.sizes):
        data, grid = build_problem(n, d, args.seed)
        t_cd, (cd_betas, sweeps) = best_time(lambda: cd_path(data, grid, args.tol),
                                             args.repeats)
        t_path, path = best_time(lambda: lasso_path(data, grid), args.repeats)
        gap = float(np.max(np.abs(cd_betas - path.betas)))
        if gap > 1e-6:
            raise RuntimeError("paths disagree by %.3e at n=%d d=%d" % (gap, n, d))
        print("%6d %6d %8d %10.4f %7d %9d %10.4f %8.1fx %10.1e %9.1e"
              % (n, d, sweeps, t_cd, path.kinks, path.polished, t_path, t_cd / t_path,
                 gap, float(np.max(path.kkt_violation))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
