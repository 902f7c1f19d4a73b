"""The three workloads: what one op runs and how its output is checked.

Each workload has `setup(hd)`, which builds the fixed inputs,
`op(op_seed, capture)`, which is the timed unit of work, and
`check(result, stats)`, which compares the op's output with computations made
apart from hdlab (SciPy, plain NumPy) or with properties the method must
have, and returns the problems it found. Checks run outside the timed region.

`hd` is the hdlab package as run.py freshly imported it, submodules loaded.
Ops look functions up through the module attributes at call time, so the
capture and tracing wrappers installed by run.py see them.
"""

import contextlib
import csv
import io
import math
import os
import shutil
from types import SimpleNamespace

import numpy as np

LASSO_KKT_TOL = 1e-8
# LLA stops once the weights move less than 1e-8; the final fit solves the
# previous round's weighted problem, so its SCAD stationarity holds to that
# plus the inner solve's error.
LLA_KKT_TOL = 2e-8


def read_csv_rows(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def l1_kkt_violation(X, y, beta, weights):
    """Largest violation of the weighted-L1 optimality conditions.

    g = X'(y - X beta)/n must satisfy |g_j| <= w_j where beta_j = 0 and
    g_j = sign(beta_j) w_j elsewhere.
    """
    n = X.shape[0]
    g = X.T @ (y - X @ beta) / n
    w = np.broadcast_to(np.asarray(weights, dtype=np.float64), g.shape)
    zero = beta == 0.0
    viol = 0.0
    if np.any(zero):
        viol = max(viol, float(np.max(np.abs(g[zero]) - w[zero])))
    if np.any(~zero):
        viol = max(viol, float(np.max(np.abs(g[~zero] - np.sign(beta[~zero]) * w[~zero]))))
    return max(viol, 0.0)


def scad_derivative(t, lam, a):
    """P'(t) of SCAD for t >= 0 (Fan & Li 2001)."""
    t = np.asarray(t, dtype=np.float64)
    return np.where(t <= lam, lam, np.maximum(a * lam - t, 0.0) / (a - 1.0))


class Capture:
    """Records (args, result) of selected calls for the checks of one op."""

    def __init__(self):
        self.calls = {}

    def clear(self):
        self.calls = {}

    def wrap(self, key, fn):
        def captured(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.calls.setdefault(key, []).append((args, kwargs, result))
            return result
        return captured


def op_seed(seed, index):
    """Seed of op `index` of a run: distinct per op, and a plain int because
    the CLI takes --seed as an integer."""
    return seed * 100003 + index


class Workload:
    name = None
    capture_points = ()       # (module attribute path, capture key)

    def __init__(self, scratch_dir):
        self.scratch_dir = scratch_dir
        self.hd = None

    def setup(self, hd):
        self.hd = hd

    def cleanup(self, result):
        pass


class ReproduceWorkload(Workload):
    """One op is `hdlab reproduce --figure <figure> --seed <op seed>`, run in
    this process into a directory of its own."""

    figure = None

    def op(self, op_seed, capture):
        out = os.path.join(self.scratch_dir, "%s-%d" % (self.name, op_seed))
        argv = ["reproduce", "--figure", self.figure, "--seed", str(op_seed), "--out", out]
        with contextlib.redirect_stdout(io.StringIO()):    # keep our stdout for the result
            code = self.hd.cli.main(argv)
        return SimpleNamespace(outdir=out, code=code, calls=capture.calls)

    def check(self, res, stats):
        if res.code != 0:
            return ["reproduce exited with %d" % res.code]
        return self.check_output(res, stats)

    def cleanup(self, res):
        shutil.rmtree(res.outdir, ignore_errors=True)


class Endogeneity(ReproduceWorkload):
    """Criterion 07's replicate."""

    name = "endogeneity"
    figure = "endo"
    capture_points = (("experiments.coord_descent_l1", "final_fit"),)
    GRID_SIZE = 20
    GRID_LOW = 0.01

    def check_output(self, res, stats):
        from scipy.stats import ks_2samp

        problems = []
        _, summary = read_csv_rows(os.path.join(res.outdir, "endogeneity_summary.csv"))
        _, corr = read_csv_rows(os.path.join(res.outdir, "endogeneity_correlations.csv"))
        fits = res.calls.get("final_fit", [])
        if len(fits) != len(summary):
            problems.append("%d final fits for %d scenarios" % (len(fits), len(summary)))
        for row, (args, _, fit) in zip(summary, fits):
            scenario, tail, lam_star = row[0], float(row[1]), float(row[5])
            raw = [float(r[2]) for r in corr if r[0] == scenario and r[1] == "raw"]
            perm = [float(r[2]) for r in corr if r[0] == scenario and r[1] == "permuted"]
            ks = float(ks_2samp(raw, perm).statistic)
            if abs(ks - tail) > 1e-12:
                problems.append("%s: tail statistic %.17g, ks_2samp %.17g" % (scenario, tail, ks))
            data, lam = args[0], float(args[1])
            X, y = np.asarray(data.X), np.asarray(data.y)
            lam_max = float(np.max(np.abs(X.T @ y))) / X.shape[0]
            grid = np.geomspace(lam_max, self.GRID_LOW * lam_max, self.GRID_SIZE)
            if float(np.min(np.abs(grid - lam_star))) > 1e-9 * lam_star:
                problems.append("%s: lambda* %.17g is not on the grid" % (scenario, lam_star))
            if lam != lam_star:
                problems.append("%s: fitted at %.17g, reported %.17g" % (scenario, lam, lam_star))
            viol = l1_kkt_violation(X, y, np.asarray(fit.beta_hat), lam)
            stats["kkt_max"] = max(stats.get("kkt_max", 0.0), viol)
            if viol > LASSO_KKT_TOL:
                problems.append("%s: Lasso KKT violation %.3e" % (scenario, viol))
        return problems


class Projection(ReproduceWorkload):
    """PCA against random projection."""

    name = "projection"
    figure = "11"
    capture_points = (("experiments.pca", "pca"),
                      ("experiments.pairwise_distances", "pairwise"))

    def check_output(self, res, stats):
        from scipy.spatial.distance import pdist

        problems = []
        for args, _, dist in res.calls.get("pairwise", []):
            X = np.asarray(args[0])
            ref = pdist(X)
            err = float(np.max(np.abs(dist - ref))) if ref.size else 0.0
            if err > 1e-10 * max(1.0, float(np.max(ref))):
                problems.append("pairwise_distances on %s differs from pdist by %.3e"
                                % (X.shape, err))
        pcas = res.calls.get("pca", [])
        if not pcas:
            problems.append("no PCA call was made")
        for args, _, proj in pcas:
            X, k = np.asarray(args[0].X), int(args[1])
            V = np.asarray(proj.basis)
            ortho = float(np.max(np.abs(V.T @ V - np.eye(k))))
            if ortho > 1e-10:
                problems.append("PCA basis %s not orthonormal (%.3e)" % (V.shape, ortho))
            Xc = X - X.mean(axis=0)
            s = np.linalg.svd(Xc, compute_uv=False)
            top = float(np.sum(s[:k] ** 2))
            got = float(np.sum((Xc @ V) ** 2))
            if abs(got - top) > 1e-9 * top:
                problems.append("PCA at d=%d k=%d captures %.12g of %.12g"
                                % (X.shape[1], k, got, top))
        _, rows = read_csv_rows(os.path.join(res.outdir, "projection_error_errors.csv"))
        full = [float(r[3]) for r in rows if r[:3] == ["100", "100", "pca"]]
        if len(full) != 1 or not full[0] <= 1e-8:
            problems.append("full-rank PCA distortion at d=k=100: %r" % (full,))
        return problems


class ScreenFit(Workload):
    """Screening, then CV, SCAD via LLA, refit, RCV variance and Dantzig."""

    name = "screen_fit"
    N, D, FOLDS, GRID_SIZE, GRID_LOW = 400, 5000, 5, 20, 0.01
    SIGNAL = {0: 3.0, 1: -2.5, 2: 2.0, 3: -1.5, 4: 1.25, 5: -1.0}
    SCAD_A = 3.7
    # The default cap of 20 rounds stops some seeds short of convergence
    # (see CHANGES.md); they converge within 25-30.
    LLA_MAX_OUTER = 100
    RCV_SIZE = 6

    def setup(self, hd):
        super().setup(hd)
        self.spec = hd.data.LinearModelSpec(n=self.N, d=self.D, beta=self.SIGNAL,
                                            noise_sd=1.0)

    def op(self, op_seed, capture):
        hd = self.hd
        Dataset = hd.data.Dataset
        raw = hd.data.gen_linear(self.spec, [op_seed])
        std = hd.data.standardize(raw)
        # The estimators assume a centered response; standardize leaves y as is.
        data = Dataset(std.X, std.y - std.y.mean())
        screen = hd.screening.sis_select(data)
        sub = Dataset(data.X[:, screen.survivors], data.y)
        lam_max = float(np.max(np.abs(sub.X.T @ sub.y))) / sub.n
        grid = np.geomspace(lam_max, self.GRID_LOW * lam_max, self.GRID_SIZE)
        lam_star, _ = hd.solvers.cross_validate(sub, grid, self.FOLDS, [op_seed, 1])
        penalty = hd.penalties.PenaltySpec("scad", lam_star, self.SCAD_A)
        fit = hd.solvers.lla(sub, penalty, max_outer=self.LLA_MAX_OUTER)
        refit = hd.solvers.ols_refit(sub, fit.active_set)
        var = hd.diagnostics.rcv_variance(
            data, lambda ds: hd.diagnostics.greedy_spurious_support(ds, self.RCV_SIZE),
            [op_seed, 2])
        gamma = math.sqrt(var.sigma2_hat) * math.sqrt(2.0 * data.n * math.log(data.d))
        dz = hd.solvers.dantzig_selector(hd.solvers.HighConfidenceSetSpec(sub, gamma))
        return SimpleNamespace(data=data, screen=screen, sub=sub, grid=grid,
                               lam_star=lam_star, penalty=penalty, fit=fit, refit=refit,
                               gamma=gamma, dantzig=dz)

    def check(self, r, stats):
        from scipy.optimize import linprog

        problems = []
        X, y = r.data.X, r.data.y
        k = r.screen.survivors.size
        top = np.sort(np.argsort(-np.abs(X.T @ y), kind="stable")[:k])
        if not np.array_equal(top, r.screen.survivors):
            problems.append("survivors are not the top-%d of |X'y|" % k)
        if not np.any(np.abs(r.grid - r.lam_star) <= 1e-12 * r.lam_star):
            problems.append("lambda* %.17g is not on the grid" % r.lam_star)
        trace = np.asarray(r.fit.objective_trace)
        rises = np.diff(trace) > 1e-12 * (1.0 + np.abs(trace[:-1]))
        if np.any(rises):
            problems.append("LLA objective rose at round %d" % int(np.argmax(rises) + 1))
        if not r.fit.converged:
            problems.append("LLA stopped after %d rounds unconverged" % r.fit.iterations)
        beta = r.fit.beta_hat
        w = scad_derivative(np.abs(beta), r.penalty.lam, self.SCAD_A)
        viol = l1_kkt_violation(r.sub.X, r.sub.y, beta, w)
        stats["kkt_max"] = max(stats.get("kkt_max", 0.0), viol)
        if viol > LLA_KKT_TOL:
            problems.append("LLA KKT violation %.3e" % viol)
        S = r.fit.active_set
        coef = np.linalg.lstsq(r.sub.X[:, S], r.sub.y, rcond=None)[0]
        if not np.allclose(r.refit.beta_hat[S], coef, rtol=1e-9, atol=1e-12) or \
                np.any(np.delete(r.refit.beta_hat, S) != 0.0):
            problems.append("OLS refit differs from lstsq on the LLA support")
        G = r.sub.X.T @ r.sub.X
        g = r.sub.X.T @ r.sub.y
        excess = float(np.max(np.abs(g - G @ r.dantzig.beta_hat))) - r.gamma
        if excess > 1e-8 * (1.0 + r.gamma):
            problems.append("Dantzig fit infeasible by %.3e" % excess)
        d = G.shape[0]
        lp = linprog(np.ones(2 * d), A_ub=np.block([[G, -G], [-G, G]]),
                     b_ub=np.concatenate([r.gamma + g, r.gamma - g]),
                     bounds=(0, None), method="highs")
        l1 = float(np.sum(np.abs(r.dantzig.beta_hat)))
        if lp.status != 0 or abs(l1 - lp.fun) > 1e-6 * max(lp.fun, 1e-12):
            problems.append("Dantzig l1 %.12g, linprog %.12g (status %d)"
                            % (l1, lp.fun, lp.status))
        return problems


WORKLOADS = {w.name: w for w in (Endogeneity, ScreenFit, Projection)}
