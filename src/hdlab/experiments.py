"""Canned experiments tying the pieces together into reproducible reports.

Each function returns an ExperimentReport whose tables depend only on the
passed parameters (per-replicate RNG streams are derived from the master
seed), so re-running with the parameters embedded in a report reproduces
every table byte for byte.
"""

import time

import numpy as np

from .data import (
    Dataset,
    LinearModelSpec,
    TwoClassGaussianSpec,
    gen_linear,
    gen_spiked,
    gen_two_class,
    is_int,
    standardize,
)
from .diagnostics import (
    endogeneity_diagnostic,
    greedy_spurious_support,
    max_multiple_corr,
    overid_check,
    rcv_variance,
    residual_variance,
)
from .dimred import median_relative_error, pairwise_distances, pca, random_projection
from .errors import ConfigurationError, SolverError, UndefinedMetricError, ValidationError
from .penalties import PenaltySpec, penalty_value
from .report import ExperimentReport
from .solvers import coord_descent_l1, cross_validate, lasso_path, ols_refit


def _require_ints(**params):
    """Raise ConfigurationError unless each value, or each entry of a list,
    tuple or array value, is an integer by data.is_int.

    These are counts and sizes, so a float is rejected, never truncated.
    """
    for name, value in params.items():
        entries = value if isinstance(value, (list, tuple, np.ndarray)) else (value,)
        for v in entries:
            if not is_int(v):
                raise ConfigurationError("%s: %r is not an integer" % (name, v))


def _separation(X, labels):
    """Between-centroid distance over mean within-class spread."""
    A = X[labels == 0.0]
    B = X[labels == 1.0]
    gap = float(np.linalg.norm(A.mean(axis=0) - B.mean(axis=0)))
    within = 0.0
    for block in (A, B):
        diffs = block - block.mean(axis=0)
        within += float(np.sum(np.sqrt(np.einsum("ij,ij->i", diffs, diffs))))
    within /= X.shape[0]
    if within == 0.0:
        raise UndefinedMetricError("within-class spread is zero")
    return gap / within


def _t_stat_order(X, labels):
    A = X[labels == 0.0]
    B = X[labels == 1.0]
    na, nb = A.shape[0], B.shape[0]
    va = A.var(axis=0, ddof=1)
    vb = B.var(axis=0, ddof=1)
    se = np.sqrt(va / na + vb / nb)
    se[se == 0.0] = np.inf
    t = np.abs(A.mean(axis=0) - B.mean(axis=0)) / se
    return np.lexsort((np.arange(X.shape[1]), -t))


def noise_accumulation_experiment(m_list=(2, 40, 200, 1000), n_per_class=100, d=1000,
                                  signal_count=10, signal_value=3.0, seed=0,
                                  rank_by="index"):
    """Class separation as more and more features enter the picture.

    Two Gaussian classes differ only in the first signal_count coordinates.
    For each m the first m features are kept (rank_by="index"; "t_stat"
    instead ranks features by the two-sample t statistic and keeps the top
    m). The report carries the 2-d principal-component projection of the
    kept features as the visual, the separation score measured in the full
    m-dimensional kept space, and the same score on the 2-d projection.
    """
    t0 = time.perf_counter()
    _require_ints(m_list=m_list, n_per_class=n_per_class, d=d, signal_count=signal_count)
    if rank_by not in ("index", "t_stat"):
        raise ConfigurationError("rank_by must be 'index' or 't_stat'")
    m_list = [int(m) for m in m_list]
    if len(set(m_list)) != len(m_list):
        raise ConfigurationError("m_list entries must be unique")
    for m in m_list:
        if not 2 <= m <= d:
            raise ConfigurationError("each m must lie in [2, d]")
    if not 0 <= signal_count <= d:
        raise ConfigurationError("signal_count must lie in [0, d]")
    mu2 = np.zeros(d)
    mu2[:signal_count] = signal_value
    spec = TwoClassGaussianSpec(n_per_class, d, np.zeros(d), mu2)
    data = gen_two_class(spec, seed)
    labels = data.y
    n = labels.size
    seps, seps_2d = [], []
    pcs = np.empty((len(m_list) * n, 2))
    summary = {}
    figures = []
    for i, m in enumerate(m_list):
        if rank_by == "index":
            cols = np.arange(m)
        else:
            cols = np.sort(_t_stat_order(data.X, labels)[:m])
        Xm = data.X[:, cols]
        scores = pca(Dataset(Xm), 2).scores
        sep_m = _separation(Xm, labels)
        sep_2d = _separation(scores, labels)
        seps.append(sep_m)
        seps_2d.append(sep_2d)
        summary["separation_m%d" % m] = sep_m
        pcs[i * n:(i + 1) * n] = scores
        figures.append(("scatter", "noise_accumulation_m%d.svg" % m,
                        {"class %d" % c: (scores[labels == c, 0], scores[labels == c, 1])
                         for c in (0, 1)},
                        {"title": "first two principal components, m=%d" % m,
                         "xlabel": "pc1", "ylabel": "pc2"}))
    figures.append(("line", "noise_accumulation_separation.svg",
                    {"selected space": (m_list, seps), "2-d projection": (m_list, seps_2d)},
                    {"title": "class separation vs number of features",
                     "xlabel": "m", "ylabel": "separation"}))
    return ExperimentReport(
        experiment="noise_accumulation",
        params={"m_list": m_list, "n_per_class": n_per_class, "d": d,
                "signal_count": signal_count, "signal_value": signal_value,
                "seed": seed, "rank_by": rank_by},
        tables={
            "separation": (["m", "separation", "separation_2d"], [m_list, seps, seps_2d]),
            "projections": (["m", "row", "class", "pc1", "pc2"],
                            [np.repeat(m_list, n), np.tile(np.arange(n), len(m_list)),
                             np.tile(labels.astype(np.int64), len(m_list)),
                             pcs[:, 0], pcs[:, 1]]),
        },
        summary=summary,
        wall_clock=time.perf_counter() - t0,
        figures=figures,
    )


def spurious_correlation_experiment(seed=0, n=60, d_list=(800, 6400), reps=200,
                                    subset_size=4, method="greedy", paper_scale=False):
    """Monte Carlo distribution of r_hat and R_hat on pure-noise designs.

    Each (d, replicate) pair gets its own RNG stream derived from the master
    seed, so results do not depend on execution order. The tables hold the
    per-replicate values and their quantiles. paper_scale bumps the
    replicate count to 1000; the desk default of 200 keeps the run in
    seconds while leaving the medians stable.
    """
    t0 = time.perf_counter()
    _require_ints(n=n, d_list=d_list, reps=reps, subset_size=subset_size)
    reps = 1000 if paper_scale else reps
    d_list = [int(d) for d in d_list]
    if not d_list or min(d_list) < 2:
        raise ConfigurationError("d_list entries must be >= 2")
    if reps < 1 or n < 3:
        raise ConfigurationError("need reps >= 1 and n >= 3")
    if subset_size > min(d_list) - 1:
        raise ConfigurationError("subset_size must be < min(d_list)")
    summary = {}
    r_groups, R_groups = {}, {}
    qs = (0.05, 0.25, 0.5, 0.75, 0.95)
    r_hats = np.empty((len(d_list), reps))
    R_hats = np.empty((len(d_list), reps))
    quantiles = np.empty((2 * len(d_list), len(qs)))
    for i, d in enumerate(d_list):
        r_all = r_hats[i]
        R_all = R_hats[i]
        for rep in range(reps):
            rng = np.random.default_rng([seed, d, rep])
            rep_out = max_multiple_corr(Dataset._from_finite(rng.standard_normal((n, d))),
                                        subset_size, method)
            r_all[rep] = rep_out.r_hat
            R_all[rep] = rep_out.R_hat
        for row, arr in ((2 * i, r_all), (2 * i + 1, R_all)):
            quantiles[row] = [np.quantile(arr, q) for q in qs]
        r_groups.setdefault("d=%d" % d, []).extend(r_all)
        R_groups.setdefault("d=%d" % d, []).extend(R_all)
        summary["median_r_hat_d%d" % d] = float(np.median(r_all))
        summary["median_R_hat_d%d" % d] = float(np.median(R_all))
    return ExperimentReport(
        experiment="spurious",
        params={"n": n, "d_list": d_list, "reps": reps, "subset_size": subset_size,
                "seed": seed, "method": method, "paper_scale": paper_scale},
        tables={
            "values": (["d", "rep", "r_hat", "R_hat"],
                       [np.repeat(d_list, reps), np.tile(np.arange(reps), len(d_list)),
                        r_hats.ravel(), R_hats.ravel()]),
            "quantiles": (["d", "stat", "q05", "q25", "q50", "q75", "q95"],
                          [np.repeat(d_list, 2), ["r_hat", "R_hat"] * len(d_list),
                           *quantiles.T]),
        },
        summary=summary,
        wall_clock=time.perf_counter() - t0,
        figures=[
            ("histogram", "spurious_r_hat.svg", r_groups,
             {"title": "max single-column correlation (null data)", "xlabel": "r_hat"}),
            ("histogram", "spurious_R_hat.svg", R_groups,
             {"title": "max multiple correlation, subsets of %d" % subset_size,
              "xlabel": "R_hat"}),
        ],
    )


def penalty_curves(lam=1.0, t_min=-3.0, t_max=3.0, points=601):
    """Penalty value curves on a sign-symmetric grid for the whole family."""
    _require_ints(points=points)
    if points < 2:
        raise ConfigurationError("points must be >= 2")
    t0 = time.perf_counter()
    grid = np.linspace(t_min, t_max, points)
    specs = [
        PenaltySpec("hard", lam),
        PenaltySpec("soft", lam),
        PenaltySpec("scad", lam, 2.1),
        PenaltySpec("scad", lam, 3.7),
        PenaltySpec("scad", lam, 100.0),
        PenaltySpec("mcp", lam, 1.0),
        PenaltySpec("mcp", lam, 3.0),
        PenaltySpec("mcp", lam, 100.0),
    ]
    series = {spec.label(): (grid, penalty_value(spec, grid)) for spec in specs}
    return ExperimentReport(
        experiment="penalty_curves",
        params={"lam": lam, "t_min": t_min, "t_max": t_max, "points": points},
        tables={"curves": (["penalty", "t", "value"],
                           [[label for label in series for _ in grid],
                            np.tile(grid, len(series)),
                            np.concatenate([v for _, v in series.values()])])},
        summary={"n_penalties": len(specs)},
        wall_clock=time.perf_counter() - t0,
        figures=[("line", "penalty_curves.svg", series,
                  {"title": "penalty functions", "xlabel": "t", "ylabel": "P(t)"})],
    )


def projection_error_experiment(d_list=(100, 500, 2500), k_list=(10, 25, 50, 100, 250),
                                n=400, spike_count=10, spike_sd=5.0, seed=0):
    """Median pairwise-distance distortion: principal components vs random
    projection, across data width d and target dimension k.

    Combinations with k > min(n, d) are skipped (no valid projection of that
    rank). One dataset is drawn per d; both methods see the same data.
    """
    t0 = time.perf_counter()
    _require_ints(d_list=d_list, k_list=k_list, n=n, spike_count=spike_count)
    d_list = [int(d) for d in d_list]
    k_list = [int(k) for k in k_list]
    if min(k_list) < 1:
        raise ConfigurationError("k values must be >= 1")
    ds, ks, methods, errs = [], [], [], []
    summary = {}
    curves = {}   # d -> method -> (k values, errors)
    for d in d_list:
        data = gen_spiked(n, d, min(spike_count, d), spike_sd, seed=[seed, d])
        orig = pairwise_distances(data.X)
        usable = [k for k in k_list if k <= min(n, d)]
        if not usable:
            continue
        # The top-k directions are the first k of the top max(usable).
        scores = pca(data, max(usable)).scores
        series = curves.setdefault(d, {"pca": ([], []), "rp": ([], [])})
        for k in usable:
            red = pairwise_distances(scores[:, :k])
            err_pca = median_relative_error(orig, red)
            rp = random_projection(data, k, seed=[seed, d, k])
            err_rp = median_relative_error(orig, pairwise_distances(rp.apply(data.X)))
            ds.extend((d, d))
            ks.extend((k, k))
            methods.extend(("pca", "rp"))
            errs.extend((err_pca, err_rp))
            summary["d%d_k%d" % (d, k)] = "pca=%.4f,rp=%.4f" % (err_pca, err_rp)
            for method, err in (("pca", err_pca), ("rp", err_rp)):
                series[method][0].append(k)
                series[method][1].append(err)
    return ExperimentReport(
        experiment="projection_error",
        params={"d_list": d_list, "k_list": k_list, "n": n,
                "spike_count": spike_count, "spike_sd": spike_sd, "seed": seed},
        tables={"errors": (["d", "k", "method", "median_relative_error"],
                           [ds, ks, methods, errs])},
        summary=summary,
        wall_clock=time.perf_counter() - t0,
        figures=[("line", "projection_error_d%d.svg" % d, curves[d],
                  {"title": "median distance distortion, d=%d" % d, "xlabel": "k",
                   "ylabel": "median relative error"}) for d in sorted(curves)],
    )


def variance_experiment(seed=0, n=60, d=800, reps=500, support_size=4, noise_sd=1.0):
    """Noise-variance estimates on a null model (all coefficients zero).

    Per replicate: the plug-in estimate after greedy selection of the
    support_size columns most correlated with the response (data dredging),
    the same plug-in on an a-priori fixed support (the first support_size
    columns), and the refitted cross-validation estimate driven by the same
    greedy selector. The truth is noise_sd**2; the first estimate collapses
    toward zero while the other two stay centered.
    """
    t0 = time.perf_counter()
    _require_ints(n=n, d=d, reps=reps, support_size=support_size)
    if reps < 1:
        raise ConfigurationError("reps must be >= 1")
    if not 1 <= support_size < n // 2:
        raise ConfigurationError("support_size must lie in [1, n/2)")
    spec = LinearModelSpec(n=n, d=d, beta={}, noise_sd=noise_sd)
    fixed = np.arange(support_size)
    arr = np.empty((reps, 3))  # dredged, fixed and rcv estimates per replicate
    for rep in range(reps):
        data = gen_linear(spec, [seed, rep])
        dredged = greedy_spurious_support(data, support_size)
        est_dredged = residual_variance(data, dredged).sigma2_hat
        est_fixed = residual_variance(data, fixed).sigma2_hat
        est_rcv = rcv_variance(
            data, lambda ds: greedy_spurious_support(ds, support_size), [seed, rep, 1]
        ).sigma2_hat
        arr[rep] = est_dredged, est_fixed, est_rcv
    means = arr.mean(axis=0)
    truth = noise_sd ** 2
    summary = {
        "mean_dredged": float(means[0]),
        "mean_fixed": float(means[1]),
        "mean_rcv": float(means[2]),
        "truth": truth,
    }
    return ExperimentReport(
        experiment="variance",
        params={"seed": seed, "n": n, "d": d, "reps": reps,
                "support_size": support_size, "noise_sd": noise_sd},
        tables={"estimates": (["rep", "dredged_support", "fixed_support", "rcv"],
                              [np.arange(reps), arr[:, 0], arr[:, 1], arr[:, 2]])},
        summary=summary,
        wall_clock=time.perf_counter() - t0,
        figures=[("histogram", "variance_estimates.svg",
                  {"dredged support": arr[:, 0], "fixed support": arr[:, 1],
                   "refitted cv": arr[:, 2]},
                  {"title": "noise variance estimates (truth %.3g)" % truth,
                   "xlabel": "sigma^2 estimate"})],
    )


def endogeneity_experiment(seed=0, n=200, d=200, support_size=3, support_strength=2.0,
                           coupled_count=30, coupling=0.8, mode="direct",
                           noise_sd=1.0, permutations=100, folds=5, grid_size=20):
    """Planted-endogeneity run next to an exogenous control.

    Each scenario draws a sparse linear model, fits the Lasso at a
    cross-validated lambda, and compares residual correlations against the
    row-permutation null. The fit at that lambda is coordinate descent
    started from the full-data homotopy point there, which lasso_path has
    already certified, so it confirms the point in a sweep or two. The
    planted scenario couples `coupled_count` off-support columns into the
    noise with the given strength and mode; the control uses the same layout
    with no coupling.
    """
    t0 = time.perf_counter()
    _require_ints(n=n, d=d, support_size=support_size, coupled_count=coupled_count,
                  permutations=permutations, folds=folds, grid_size=grid_size)
    if not (np.isfinite(noise_sd) and noise_sd > 0):
        raise ValidationError("noise_sd must be > 0: with zero noise the residual "
                              "correlations are undefined")
    if support_size + coupled_count > d:
        raise ConfigurationError("support_size + coupled_count must fit in d")
    scenarios = ["planted", "exogenous"]
    tails, q95s, flags, sizes, lams = [], [], [], [], []
    corr_labels, corr_kinds, corr_values = [], [], []
    over_labels, over_columns, over_x, over_x2 = [], [], [], []
    summary = {}
    figures = []
    moments = {}  # scenario -> (corr_x, corr_x2) of its selected columns
    for idx, (scenario, w) in enumerate(zip(scenarios, (coupling, 0.0))):
        endo = {support_size + j: w for j in range(coupled_count)} if w else {}
        spec = LinearModelSpec(
            n=n, d=d, beta={j: support_strength for j in range(support_size)},
            noise_sd=noise_sd, endogenous_set=endo, endogenous_mode=mode,
        )
        data = standardize(gen_linear(spec, [seed, idx]))
        lam_max = float(np.max(np.abs(data.X.T @ data.y)) / data.n)
        grid = np.geomspace(lam_max, 0.01 * lam_max, grid_size)
        lam_star, _ = cross_validate(data, grid, folds, [seed, idx, 1])
        start = lasso_path(data, [lam_star]).betas[0]
        fit = coord_descent_l1(data, lam_star, beta_init=start)
        if not fit.converged:
            raise SolverError("endogeneity_experiment: the %s fit at lambda=%.6g did not "
                              "converge" % (scenario, lam_star))
        diag = endogeneity_diagnostic(data, fit, permutations, [seed, idx, 2])
        thresh = diag.null_quantile(0.95)
        tails.append(diag.tail_statistic)
        q95s.append(thresh)
        flags.append(int(diag.flagged()))
        sizes.append(fit.active_set.size)
        lams.append(lam_star)
        summary["%s_flagged" % scenario] = int(diag.flagged())
        # The 2 (d + permutations * d) correlation rows stay columns, with no
        # per-row objects: two lists of shared labels and one float64 array.
        raw, permuted = diag.raw_correlations, diag.permuted_correlations
        corr_labels += [scenario] * (raw.size + permuted.size)
        corr_kinds += ["raw"] * raw.size + ["permuted"] * permuted.size
        corr_values += [raw, permuted]
        figures.append(("histogram", "endogeneity_%s.svg" % scenario,
                        {"raw": raw, "permuted": permuted},
                        {"title": "residual correlations, %s scenario" % scenario,
                         "xlabel": "correlation"}))
        if fit.active_set.size:
            refit = ols_refit(data, fit.active_set)
            over = overid_check(data, refit, fit.active_set)
            over_labels += [scenario] * over.selected.size
            over_columns += over.selected.tolist()
            over_x += over.corr_x.tolist()
            over_x2 += over.corr_x2.tolist()
            moments[scenario] = (over.corr_x, over.corr_x2)
    if moments:
        figures.append(("scatter", "overid_moments.svg", moments,
                        {"title": "selected columns: residual moment correlations",
                         "xlabel": "corr(X_j, resid)", "ylabel": "corr(X_j^2, resid)"}))
    return ExperimentReport(
        experiment="endogeneity",
        params={"seed": seed, "n": n, "d": d, "support_size": support_size,
                "support_strength": support_strength, "coupled_count": coupled_count,
                "coupling": coupling, "mode": mode, "noise_sd": noise_sd,
                "permutations": permutations, "folds": folds, "grid_size": grid_size},
        tables={
            "summary": (["scenario", "tail_statistic", "null_q95", "flagged",
                         "support_size", "lambda_star"],
                        [scenarios, tails, q95s, flags, sizes, lams]),
            "correlations": (["scenario", "kind", "value"],
                             [corr_labels, corr_kinds, np.concatenate(corr_values)]),
            "overid": (["scenario", "column", "corr_x", "corr_x2"],
                       [over_labels, over_columns, over_x, over_x2]),
        },
        summary=summary,
        wall_clock=time.perf_counter() - t0,
        figures=figures,
    )
