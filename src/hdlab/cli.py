"""Command-line interface.

Subcommands:
  fit        penalized / constrained sparse regression on a CSV dataset
  screen     marginal screening of a CSV dataset
  diagnose   spurious | variance | endogeneity | overid experiments
  reduce     pca / random-projection dimension reduction of a CSV dataset
  reproduce  canned experiments by id (1, 2, 4, 11, endo)

Every command writes CSV artifacts into --out. reproduce and diagnose run
an experiment from experiments.py, write its report and draw the figures the
report carries; reproduce passes an experiment only the settings given by a
flag or a config key, and one it does not take is invalid input. Exit
status: 0 on success, 2 on invalid input or solver failure, 3 when a
reproduce or diagnose run fails one of its built-in sanity checks.
"""

import argparse
import inspect
import os
import sys
import time

import numpy as np

from . import kernels
from .data import is_int, read_csv, standardize
from .errors import ConfigurationError, SolverError, ValidationError
from .experiments import (
    endogeneity_experiment,
    noise_accumulation_experiment,
    penalty_curves,
    projection_error_experiment,
    spurious_correlation_experiment,
    variance_experiment,
)
from .penalties import parse_penalty, penalty_derivative
from .report import _runtime, write_kv, write_table
from .screening import sis_select
from .solvers import (
    HighConfidenceSetSpec,
    best_subset_l0,
    coord_descent_l1,
    cross_validate,
    dantzig_selector,
    default_gamma_n,
    ista,
    kkt_violation,
    lla,
)
from .svgplot import histogram_svg, line_chart_svg, scatter_svg


def _load_data(args, need_y):
    data = read_csv(args.data, y_col=args.y_col)
    if need_y and data.y is None:
        raise ValidationError(
            "no response column %r in %s; use --y-col" % (args.y_col, args.data)
        )
    if getattr(args, "standardize", False):
        data = standardize(data)
    return data


def _parse_grid(text):
    try:
        grid = [float(v) for v in str(text).split(",") if v.strip() != ""]
    except ValueError:
        raise ConfigurationError("bad --lambda-grid %r" % text)
    if not grid:
        raise ConfigurationError("empty --lambda-grid")
    return np.asarray(grid)


def _solver(args):
    """The selected solver as one handle (data, lam, init) -> FitResult.

    The handle serves every cross-validation fit and the final fit. For
    dantzig, lam is the constraint radius gamma_n. A penalty that cd cannot
    minimize is rejected here, before any fit runs.
    """
    kw = {"tol": args.tol} if args.tol is not None else {}
    if args.solver == "cd":
        # Any lam > 0 will do: only the family is checked.
        family = parse_penalty(args.penalty, 1.0, args.gamma).family
        if family != "soft":
            raise ConfigurationError(
                "cd minimizes the soft (L1) penalty; use --solver lla for %s" % family
            )
        return lambda ds, lam, init: coord_descent_l1(ds, lam, **kw)
    if args.solver == "ista":
        if args.step is not None:
            kw["step"] = args.step
        return lambda ds, lam, init: ista(
            ds, parse_penalty(args.penalty, lam, args.gamma), **kw)
    if args.solver == "lla":
        return lambda ds, lam, init: lla(
            ds, parse_penalty(args.penalty, lam, args.gamma), **kw)
    if args.solver == "l0":
        return lambda ds, lam, init: best_subset_l0(ds, lam)
    if args.solver == "dantzig":
        return lambda ds, lam, init: dantzig_selector(HighConfidenceSetSpec(ds, lam))
    raise ConfigurationError("unknown solver %r" % args.solver)


def cmd_fit(args):
    t0 = time.perf_counter()
    if args.gamma_n is not None and (args.lam is not None or args.lambda_grid is not None):
        raise ConfigurationError(
            "--gamma-n is the dantzig radius, as --lambda is; do not combine it "
            "with --lambda or --lambda-grid")
    if args.gamma_n_scale is not None and (
            args.solver != "dantzig" or args.lam is not None
            or args.lambda_grid is not None or args.gamma_n is not None):
        raise ConfigurationError(
            "--gamma-n-scale scales the default dantzig radius only; do not "
            "combine it with --lambda, --lambda-grid, --gamma-n or another solver")
    solve = _solver(args)
    data = _load_data(args, need_y=True)
    os.makedirs(args.out, exist_ok=True)
    extras = {}
    if args.standardize:
        extras["intercept"] = data.transform[2]  # the mean of y
    if args.lambda_grid is not None:
        grid = _parse_grid(args.lambda_grid)
        # cd leaves the grid to the exact Lasso path, which needs no tolerance.
        lam, curve = cross_validate(data, grid, args.cv_folds, args.seed,
                                    solver=None if args.solver == "cd" else solve)
        write_table(os.path.join(args.out, "fit_cv.csv"), ["lambda", "cv_mse"],
                    [grid, curve])
        extras["lambda_star"] = lam
    elif args.lam is not None:
        lam = args.lam
    elif args.solver != "dantzig":
        raise ConfigurationError("pass --lambda or --lambda-grid")
    elif args.gamma_n is not None:
        lam = args.gamma_n
    else:
        lam = default_gamma_n(data, 1.0 if args.gamma_n_scale is None else args.gamma_n_scale)
    if args.solver == "dantzig":
        extras["gamma_n"] = lam
    fit = solve(data, lam, None)
    if not fit.converged:
        raise SolverError("fit: the %s fit at lambda=%.6g did not converge" % (args.solver, lam))
    if args.solver == "cd":
        extras["kkt_violation"] = kkt_violation(data, fit.beta_hat, lam)
    elif args.solver == "lla":
        # Folded-concave stationarity: the L1 conditions at weights P'(|b|).
        pen = parse_penalty(args.penalty, lam, args.gamma)
        extras["kkt_violation"] = kkt_violation(
            data, fit.beta_hat, penalty_derivative(pen, np.abs(fit.beta_hat)))

    coef_path = os.path.join(args.out, "fit_coefficients.csv")
    write_table(coef_path, ["index", "name", "coefficient"],
                [range(data.d), [data.name_of(j) for j in range(data.d)], fit.beta_hat])
    meta = [
        ("solver", args.solver),
        ("penalty", args.penalty),
        ("lambda", repr(float(lam))),
        ("n", data.n),
        ("d", data.d),
        ("seed", args.seed),
        ("objective", repr(fit.objective)),
        ("iterations", fit.iterations),
        ("converged", fit.converged),
        ("active_set_size", fit.active_set.size),
        ("kernel_backend", kernels.BACKEND),
    ]
    meta.extend(sorted((k, repr(float(v))) for k, v in extras.items()))
    meta.extend(_runtime())
    meta.append(("wall_clock", "%.3f" % (time.perf_counter() - t0)))
    write_kv(os.path.join(args.out, "fit_run.txt"), meta)
    print("fit: solver=%s active=%d/%d objective=%.6g -> %s"
          % (args.solver, fit.active_set.size, data.d, fit.objective, coef_path))
    return 0


def cmd_screen(args):
    data = _load_data(args, need_y=True)
    os.makedirs(args.out, exist_ok=True)
    res = sis_select(data, delta=args.delta, top_k=args.top_k)
    mag = np.abs(res.marginal_beta)
    order = np.lexsort((np.arange(data.d), -mag))
    path = os.path.join(args.out, "screen_ranking.csv")
    write_table(path, ["rank", "index", "name", "marginal_beta", "selected"],
                [range(1, data.d + 1), order, [data.name_of(j) for j in order],
                 res.marginal_beta[order], np.isin(order, res.survivors).astype(int)])
    print("screen: kept %d of %d (%s) -> %s"
          % (res.survivors.size, data.d, res.rule, path))
    return 0


def cmd_diagnose(args):
    """Run the experiment that KIND names, then finish as reproduce does."""
    kw = {"seed": args.seed, "n": args.n}
    if args.kind == "spurious":
        experiment = spurious_correlation_experiment
        kw.update(d_list=args.d, reps=args.reps, subset_size=args.subset_size,
                  method=args.method)
    elif args.kind == "variance":
        experiment = variance_experiment
        kw.update(d=args.d_single, reps=args.reps, support_size=args.support_size,
                  noise_sd=args.noise_sd)
    else:  # endogeneity, and overid: the same run with quadratic coupling
        experiment = endogeneity_experiment
        kw.update(d=args.d_single, coupled_count=args.coupled_count,
                  coupling=args.coupling, noise_sd=args.noise_sd,
                  mode="quadratic" if args.kind == "overid" else args.mode,
                  permutations=args.permutations)
    return _finish(experiment(**kw), args.out)


def cmd_reduce(args):
    from .dimred import distortion, pca, random_projection

    data = _load_data(args, need_y=False)
    os.makedirs(args.out, exist_ok=True)
    if args.method == "pca":
        proj = pca(data, args.k)
    else:
        proj = random_projection(data, args.k, args.seed,
                                 orthonormalize=args.orthonormalize)
    Z = proj.apply(data.X)
    header = ["z%d" % (j + 1) for j in range(args.k)]
    columns = list(Z.T)
    if data.y is not None:
        header.append("y")
        columns.append(data.y)
    write_table(os.path.join(args.out, "reduced.csv"), header, columns)
    rep = distortion(data, proj)
    write_table(os.path.join(args.out, "distortion.csv"),
                ["method", "k", "median_relative_error"],
                [[rep.method], [rep.k], [rep.median_relative_error]])
    print("reduce: %s k=%d median distortion %.4f -> %s"
          % (args.method, args.k, rep.median_relative_error,
             os.path.join(args.out, "reduced.csv")))
    return 0


def _coerce(text):
    text = text.strip()
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    if "," in text:
        return tuple(_coerce(part) for part in text.split(","))
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def read_config(path):
    """Parse a plain key=value file; '#' starts a comment line."""
    out = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigurationError("%s:%d: expected key=value" % (path, lineno))
            key, value = line.split("=", 1)
            out[key.strip().replace("-", "_")] = _coerce(value)
    return out


def _first(*vals):
    for v in vals:
        if v is not None:
            return v
    return None


_FIGURES = {
    "1": noise_accumulation_experiment,
    "2": spurious_correlation_experiment,
    "4": penalty_curves,
    "11": projection_error_experiment,
    "endo": endogeneity_experiment,
}


def _sanity(rep):
    """The report's built-in sanity checks; returns the problems found."""
    def columns(name):
        return [np.asarray(c) for c in rep.tables[name][1]]

    problems = []
    if rep.experiment == "noise_accumulation":
        m, sep, sep2 = columns("separation")
        bad = ~((np.isfinite(sep) & (sep > 0)) & (np.isfinite(sep2) & (sep2 > 0)))
        problems += ["non-positive separation at m=%s" % v for v in m[bad].tolist()]
    elif rep.experiment == "spurious":
        d, r, r_hat, R_hat = columns("values")
        bad = (R_hat < r_hat - 1e-9) | ~((r_hat >= 0.0) & (r_hat <= 1.0 + 1e-12))
        problems += ["replicate %s/%s: R_hat %.12g < r_hat %.12g" % row
                     for row in zip(*(c[bad].tolist() for c in (d, r, R_hat, r_hat)))]
    elif rep.experiment == "penalty_curves":
        label, t, v = columns("curves")
        bad = ~(np.isfinite(v) & (v >= -1e-15))
        problems += ["bad value %r at %s t=%s" % row
                     for row in zip(*(c[bad].tolist() for c in (v, label, t)))]
        for name in dict.fromkeys(label.tolist()):
            at = label == name
            ts, vs = np.sort(t[at]), v[at][np.argsort(t[at])]
            # The value at the grid point nearest -t, where one lies within 1e-9.
            near = np.clip(np.searchsorted(ts, -ts), 1, ts.size - 1)
            near -= np.abs(ts[near - 1] + ts) <= np.abs(ts[near] + ts)
            asym = (np.abs(ts[near] + ts) <= 1e-9 * (1 + abs(ts))) & (np.abs(vs[near] - vs) > 1e-9)
            if asym.any():
                problems.append("%s asymmetric at t=%s" % (name, ts[asym.argmax()].tolist()))
    elif rep.experiment == "projection_error":
        d, k, method, err = columns("errors")
        bad = ~(np.isfinite(err) & (err >= 0))
        problems += ["bad error %r at d=%s k=%s %s" % row
                     for row in zip(*(c[bad].tolist() for c in (err, d, k, method)))]
    elif rep.experiment == "endogeneity":
        tail = columns("summary")[1]
        problems += ["tail statistic %r outside [0, 1]" % v
                     for v in tail[~((tail >= 0.0) & (tail <= 1.0))].tolist()]
    return problems


def _draw(rep, outdir):
    """Write the report's figures next to its tables."""
    # Looked up per call, so a replaced cli.histogram_svg (say) is the one used.
    plot = {"histogram": histogram_svg, "line": line_chart_svg, "scatter": scatter_svg}
    for kind, filename, data, labels in rep.figures:
        plot[kind](data, os.path.join(outdir, filename), **labels)


def _finish(rep, outdir):
    """Write the report, draw its SVGs and run its sanity checks.

    Returns the exit status: 3 when a sanity check fails, else 0.
    """
    for p in rep.write(outdir):
        print("wrote %s" % p)
    _draw(rep, outdir)
    problems = _sanity(rep)
    if problems:
        for p in problems:
            print("sanity check failed: %s" % p, file=sys.stderr)
        return 3
    for k, v in rep.summary.items():
        print("%s=%s" % (k, v))
    return 0


def cmd_reproduce(args):
    kwargs = read_config(args.config) if args.config else {}
    figure = _first(args.figure, kwargs.pop("figure", None))
    if figure is None:
        raise ConfigurationError("pass --figure or put figure=... in the config file")
    figure = str(figure)
    if figure not in _FIGURES:
        raise ConfigurationError("unknown figure %r (choose 1|2|4|11|endo)" % figure)
    out = _first(args.out, kwargs.pop("out", None), "reports")
    # A flag wins over its config key; an experiment that does not take the
    # setting fails the bind below, so nothing the user gave is dropped.
    for key, flag in (("seed", args.seed), ("paper_scale", args.paper_scale)):
        if flag is not None:
            kwargs[key] = flag
    seed = kwargs.get("seed", 0)
    if not is_int(seed):
        raise ConfigurationError("seed must be an integer, got %r" % (seed,))
    for key in ("m_list", "d_list", "k_list"):
        if key in kwargs and not isinstance(kwargs[key], tuple):
            kwargs[key] = (kwargs[key],)
    try:  # bind, not a name lookup: a wrapped entry taking **kwargs still runs
        inspect.signature(_FIGURES[figure]).bind(**kwargs)
    except TypeError as exc:
        raise ConfigurationError("figure %s: %s" % (figure, exc)) from None
    return _finish(_FIGURES[figure](**kwargs), out)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hdlab",
        description="Sparse regression, screening, diagnostics and dimension "
                    "reduction for wide datasets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a sparse linear model to CSV data")
    p_fit.add_argument("--data", required=True, help="input CSV path")
    p_fit.add_argument("--y-col", default="y", help="response column name")
    p_fit.add_argument("--penalty", default="soft",
                       help="soft | hard | scad:GAMMA | mcp:GAMMA")
    p_fit.add_argument("--gamma", type=float, default=None,
                       help="penalty gamma when not given inline")
    p_fit.add_argument("--lambda", dest="lam", type=float, default=None,
                       help="penalty strength; with --solver dantzig, the "
                            "constraint radius gamma_n")
    p_fit.add_argument("--lambda-grid", default=None,
                       help="comma-separated grid for cross-validation; with "
                            "--solver dantzig, a grid of radii")
    p_fit.add_argument("--cv-folds", type=int, default=5)
    p_fit.add_argument("--solver", default="cd",
                       choices=["cd", "ista", "lla", "dantzig", "l0"])
    p_fit.add_argument("--seed", type=int, default=0)
    p_fit.add_argument("--tol", type=float, default=None,
                       help="solver tolerance (solver default when omitted); with "
                            "--solver cd it applies to the final fit only, not to "
                            "--lambda-grid cross-validation, which runs the exact "
                            "Lasso path")
    p_fit.add_argument("--step", type=float, default=None,
                       help="ista step size, at most 1/L for the top eigenvalue L of "
                            "X'X/n (1/L when omitted); with --lambda-grid it must "
                            "not exceed 1/L of any training fold either")
    p_fit.add_argument("--gamma-n", type=float, default=None,
                       help="dantzig constraint radius, the same setting as "
                            "--lambda: give one of --gamma-n, --lambda and "
                            "--lambda-grid")
    p_fit.add_argument("--gamma-n-scale", type=float, default=None,
                       help="scale on the default dantzig radius, "
                            "sd(y) * sqrt(2 * n * log(d)) (1 when omitted); "
                            "only with --solver dantzig and no radius given")
    p_fit.add_argument("--standardize", action="store_true",
                       help="standardize columns and center y before fitting")
    p_fit.add_argument("--out", default="hdlab_out")
    p_fit.set_defaults(func=cmd_fit)

    p_scr = sub.add_parser("screen", help="rank features by marginal strength")
    p_scr.add_argument("--data", required=True)
    p_scr.add_argument("--y-col", default="y")
    p_scr.add_argument("--delta", type=float, default=None,
                       help="keep |marginal| >= delta")
    p_scr.add_argument("--top-k", type=int, default=None,
                       help="keep the k largest magnitudes")
    p_scr.add_argument("--standardize", action="store_true")
    p_scr.add_argument("--out", default="hdlab_out")
    p_scr.set_defaults(func=cmd_screen)

    p_dia = sub.add_parser("diagnose", help="run a diagnostic experiment")
    p_dia.add_argument("kind", choices=["spurious", "variance", "endogeneity", "overid"])
    p_dia.add_argument("--n", type=int, default=60)
    p_dia.add_argument("--d", type=lambda s: [int(v) for v in s.split(",")],
                       default=[800, 6400], help="comma-separated widths (spurious)")
    p_dia.add_argument("--d-single", type=int, default=800,
                       help="width for variance/endogeneity/overid")
    p_dia.add_argument("--reps", type=int, default=200)
    p_dia.add_argument("--subset-size", type=int, default=4)
    p_dia.add_argument("--support-size", type=int, default=4)
    p_dia.add_argument("--method", default="greedy", choices=["greedy", "exact"])
    p_dia.add_argument("--noise-sd", type=float, default=1.0)
    p_dia.add_argument("--coupled-count", type=int, default=30)
    p_dia.add_argument("--coupling", type=float, default=0.8)
    p_dia.add_argument("--mode", default="direct", choices=["direct", "quadratic"])
    p_dia.add_argument("--permutations", type=int, default=100)
    p_dia.add_argument("--seed", type=int, default=0)
    p_dia.add_argument("--out", default="hdlab_out")
    p_dia.set_defaults(func=cmd_diagnose)

    p_red = sub.add_parser("reduce", help="project CSV data to k dimensions")
    p_red.add_argument("--data", required=True)
    p_red.add_argument("--y-col", default="y")
    p_red.add_argument("--method", required=True, choices=["pca", "rp"])
    p_red.add_argument("--k", type=int, required=True)
    p_red.add_argument("--seed", type=int, default=0)
    p_red.add_argument("--orthonormalize", action="store_true",
                       help="orthonormalize the random basis")
    p_red.add_argument("--out", default="hdlab_out")
    p_red.set_defaults(func=cmd_reduce)

    p_rep = sub.add_parser("reproduce", help="run a canned experiment")
    p_rep.add_argument("--figure", default=None,
                       help="experiment id: 1 | 2 | 4 | 11 | endo")
    p_rep.add_argument("--seed", type=int, default=None)
    p_rep.add_argument("--paper-scale", action="store_true", default=None,
                       help="full-size replicate counts")
    p_rep.add_argument("--out", default=None)
    p_rep.add_argument("--config", default=None,
                       help="key=value file; keys may replace flags and "
                            "experiment parameters")
    p_rep.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
