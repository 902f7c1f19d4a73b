import csv
import os
import platform
import shlex
import shutil
import subprocess

import numpy as np
import pytest

from hdlab import (
    Dataset,
    HighConfidenceSetSpec,
    LinearModelSpec,
    PenaltySpec,
    best_subset_l0,
    coord_descent_l1,
    dantzig_selector,
    gen_linear,
    kkt_violation,
    lla,
    penalty_derivative,
    read_csv,
    sis_select,
    standardize,
    write_csv,
)
from hdlab import cli, experiments
from hdlab.cli import build_parser, main, read_config

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")


@pytest.fixture()
def csv_data(tmp_path):
    spec = LinearModelSpec(n=50, d=6, beta={0: 2.0, 2: -1.0}, noise_sd=0.5)
    data = standardize(gen_linear(spec, 7))
    path = tmp_path / "train.csv"
    write_csv(data, path)
    return str(path), data


def read_kv(path):
    out = {}
    with open(path) as fh:
        for line in fh:
            key, value = line.rstrip("\n").split("=", 1)
            out[key] = value
    return out


def read_table(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def assert_same_tables(a, b):
    """Both directories hold the same CSV tables and the same SVG figures,
    byte for byte."""
    for ext in (".csv", ".svg"):
        names = sorted(f for f in os.listdir(a) if f.endswith(ext))
        assert names and names == sorted(f for f in os.listdir(b) if f.endswith(ext))
        for name in names:
            with open(os.path.join(a, name), "rb") as fa, \
                    open(os.path.join(b, name), "rb") as fb:
                assert fa.read() == fb.read(), name


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_solver_rejected_by_argparse(self, csv_data):
        path, _ = csv_data
        with pytest.raises(SystemExit):
            main(["fit", "--data", path, "--solver", "sgd"])

    def test_readme_command_lines_parse(self):
        with open(README) as fh:
            text = fh.read()
        block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
        lines = [line for line in block.splitlines() if line.startswith("hdlab ")]
        assert len(lines) >= 5
        for line in lines:
            build_parser().parse_args(shlex.split(line)[1:])


class TestFit:
    def test_lasso_fixed_lambda(self, tmp_path, csv_data, capsys):
        path, data = csv_data
        out = str(tmp_path / "out")
        code = main(["fit", "--data", path, "--lambda", "0.1", "--out", out])
        assert code == 0
        header, rows = read_table(os.path.join(out, "fit_coefficients.csv"))
        assert header == ["index", "name", "coefficient"]
        fit = coord_descent_l1(data, 0.1)
        got = np.array([float(r[2]) for r in rows])
        assert np.array_equal(got, fit.beta_hat)
        meta = read_kv(os.path.join(out, "fit_run.txt"))
        assert meta["solver"] == "cd"
        assert meta["n"] == "50" and meta["d"] == "6"
        assert meta["converged"] == "True"
        assert meta["kernel_backend"] == "python"
        assert float(meta["kkt_violation"]) < 1e-8
        assert "wall_clock" in meta
        assert "fit:" in capsys.readouterr().out

    def test_cross_validated_lambda(self, tmp_path, csv_data):
        path, data = csv_data
        out = str(tmp_path / "out")
        code = main(["fit", "--data", path, "--lambda-grid", "0.5,0.1,0.02",
                     "--cv-folds", "5", "--seed", "3", "--out", out])
        assert code == 0
        header, rows = read_table(os.path.join(out, "fit_cv.csv"))
        assert header == ["lambda", "cv_mse"]
        assert [float(r[0]) for r in rows] == [0.5, 0.1, 0.02]
        meta = read_kv(os.path.join(out, "fit_run.txt"))
        assert float(meta["lambda_star"]) in (0.5, 0.1, 0.02)
        assert meta["lambda"] == meta["lambda_star"]

    def test_folded_penalty_via_reweighting(self, tmp_path, csv_data):
        path, _ = csv_data
        out = str(tmp_path / "out")
        code = main(["fit", "--data", path, "--solver", "lla", "--penalty",
                     "scad:3.7", "--lambda", "0.15", "--out", out])
        assert code == 0
        meta = read_kv(os.path.join(out, "fit_run.txt"))
        assert meta["penalty"] == "scad:3.7"

    def test_sidecars_record_the_runtime(self, tmp_path, csv_data, monkeypatch):
        # fit_run.txt and a reproduce sidecar both end with the runtime keys,
        # then wall_clock.
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        path, _ = csv_data
        out = str(tmp_path / "out")
        assert main(["fit", "--data", path, "--lambda", "0.1", "--out", out]) == 0
        assert main(["reproduce", "--figure", "4", "--out", out]) == 0
        runtime = ["python", "numpy", "blas", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"]
        for name in ("fit_run.txt", "penalty_curves_params.txt"):
            meta = read_kv(os.path.join(out, name))
            assert list(meta)[-6:] == runtime + ["wall_clock"], name
            assert meta["python"] == platform.python_version()
            assert meta["numpy"] == np.__version__
            assert meta["OPENBLAS_NUM_THREADS"] == "1"
            assert meta["OMP_NUM_THREADS"] == "unset"

    def test_lla_records_its_stationarity(self, tmp_path):
        # The README quick-start model: fit_run.txt carries the KKT
        # violation at the weights P'(|b|), as --solver cd carries it at lam.
        raw = gen_linear(LinearModelSpec(n=100, d=400, beta={0: 2.0, 3: -1.5},
                                         noise_sd=0.5), seed=7)
        path = str(tmp_path / "train.csv")
        write_csv(standardize(raw), path)
        out = str(tmp_path / "out")
        assert main(["fit", "--data", path, "--solver", "lla", "--penalty", "scad:3.7",
                     "--lambda", "0.1", "--out", out]) == 0
        data = read_csv(path)
        pen = PenaltySpec("scad", 0.1, 3.7)
        fit = lla(data, pen)
        _, rows = read_table(os.path.join(out, "fit_coefficients.csv"))
        assert np.array_equal([float(r[2]) for r in rows], fit.beta_hat)
        meta = read_kv(os.path.join(out, "fit_run.txt"))
        want = kkt_violation(data, fit.beta_hat,
                             penalty_derivative(pen, np.abs(fit.beta_hat)))
        assert meta["kkt_violation"] == repr(want)
        assert meta["converged"] == "True"
        assert float(meta["kkt_violation"]) <= 2e-8

    @pytest.mark.parametrize("solver", [["--solver", "cd"], ["--solver", "ista"],
                                        ["--solver", "lla", "--penalty", "scad:3.7"]],
                             ids=["cd", "ista", "lla"])
    def test_zero_tol_is_rejected(self, tmp_path, csv_data, capsys, solver):
        # --tol 0 is a given value, not an omitted one: the solver checks it.
        path, _ = csv_data
        out = tmp_path / "o"
        code = main(["fit", "--data", path, "--lambda", "0.1", "--tol", "0"] + solver
                    + ["--out", str(out)])
        assert code == 2
        assert "tol must be positive" in capsys.readouterr().err

    def test_cd_rejects_nonconvex_penalty(self, tmp_path, csv_data, capsys):
        path, _ = csv_data
        code = main(["fit", "--data", path, "--penalty", "mcp:3",
                     "--lambda", "0.1", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "lla" in capsys.readouterr().err

    def test_cd_rejects_nonconvex_penalty_before_cv(self, tmp_path, csv_data, capsys):
        path, _ = csv_data
        out = str(tmp_path / "o")
        code = main(["fit", "--data", path, "--penalty", "scad:3.7",
                     "--lambda-grid", "0.5,0.1,0.02", "--out", out])
        assert code == 2
        assert "lla" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "fit_cv.csv"))

    def test_missing_lambda_is_an_error(self, tmp_path, csv_data, capsys):
        path, _ = csv_data
        code = main(["fit", "--data", path, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "--lambda" in capsys.readouterr().err

    def test_unconverged_fit_exits_2_without_coefficients(self, tmp_path, csv_data,
                                                          monkeypatch, capsys):
        real = cli.coord_descent_l1

        def unconverged(*args, **kwargs):
            fit = real(*args, **kwargs)
            fit.converged = False
            return fit

        monkeypatch.setattr(cli, "coord_descent_l1", unconverged)
        out = tmp_path / "o"
        assert main(["fit", "--data", csv_data[0], "--lambda", "0.1", "--out", str(out)]) == 2
        assert "did not converge" in capsys.readouterr().err
        assert not (out / "fit_coefficients.csv").exists()

    def test_refused_grid_fit_leaves_an_earlier_run_untouched(self, tmp_path, csv_data,
                                                              monkeypatch, capsys):
        # fit_cv.csv is written only after the final fit is accepted, so the
        # directory never pairs a new CV curve with an earlier run's fit.
        out = tmp_path / "o"
        assert main(["fit", "--data", csv_data[0], "--lambda", "0.1", "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert sorted(before) == ["fit_coefficients.csv", "fit_run.txt"]
        real = cli.coord_descent_l1

        def unconverged(*args, **kwargs):
            fit = real(*args, **kwargs)
            fit.converged = False
            return fit

        monkeypatch.setattr(cli, "coord_descent_l1", unconverged)
        assert main(["fit", "--data", csv_data[0], "--lambda-grid", "0.5,0.1",
                     "--out", str(out)]) == 2
        assert "did not converge" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_ista_rejects_oversized_step(self, tmp_path, csv_data):
        # --step 0 is refused too, not read as "no step given".
        path, _ = csv_data
        for step in ("100.0", "0"):
            code = main(["fit", "--data", path, "--solver", "ista", "--lambda",
                         "0.1", "--step", step, "--out", str(tmp_path / "o")])
            assert code == 2, step

    def test_ista_step_reaches_every_cv_fit(self, tmp_path, csv_data, monkeypatch):
        path, _ = csv_data
        steps = []
        real = cli.ista

        def spy(data, penalty, **kw):
            steps.append(kw.get("step"))
            return real(data, penalty, **kw)

        monkeypatch.setattr(cli, "ista", spy)
        code = main(["fit", "--data", path, "--solver", "ista", "--step", "0.25",
                     "--lambda-grid", "0.5,0.1,0.02", "--cv-folds", "3",
                     "--out", str(tmp_path / "o")])
        assert code == 0
        assert steps == [0.25] * (3 * 3 + 1)  # every fold and grid value, then the final fit

    def test_ista_step_is_checked_against_every_training_fold(self, tmp_path, csv_data,
                                                              capsys):
        # 0.6 is below 1/L of the whole 50x6 design (0.676) but above 1/L of
        # one training fold (0.553), and every cross-validation fit checks
        # the step against its own fold.
        path, _ = csv_data
        single = str(tmp_path / "single")
        assert main(["fit", "--data", path, "--solver", "ista", "--step", "0.6",
                     "--lambda", "0.1", "--out", single]) == 0
        out = str(tmp_path / "o")
        code = main(["fit", "--data", path, "--solver", "ista", "--step", "0.6",
                     "--lambda-grid", "0.5,0.1,0.02", "--out", out])
        assert code == 2
        assert "exceeds 1/L" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "fit_cv.csv"))

    def test_exhaustive_solver(self, tmp_path, csv_data):
        path, data = csv_data
        out = str(tmp_path / "out")
        code = main(["fit", "--data", path, "--solver", "l0", "--lambda",
                     "0.05", "--out", out])
        assert code == 0
        _, rows = read_table(os.path.join(out, "fit_coefficients.csv"))
        got = np.array([float(r[2]) for r in rows])
        assert np.array_equal(got, best_subset_l0(data, 0.05).beta_hat)

    def test_constrained_solver_default_radius(self, tmp_path, csv_data):
        path, _ = csv_data
        out = str(tmp_path / "out")
        code = main(["fit", "--data", path, "--solver", "dantzig", "--out", out])
        assert code == 0
        meta = read_kv(os.path.join(out, "fit_run.txt"))
        assert float(meta["gamma_n"]) > 0.0

    def test_dantzig_lambda_is_the_radius(self, tmp_path, csv_data):
        path, _ = csv_data
        # Read as the CLI reads it: X'X moves in its last bits with the layout.
        data = read_csv(path)
        fits = []
        for radius in (0.3, 300.0):
            out = str(tmp_path / str(radius))
            assert main(["fit", "--data", path, "--solver", "dantzig",
                         "--lambda", str(radius), "--out", out]) == 0
            meta = read_kv(os.path.join(out, "fit_run.txt"))
            assert float(meta["lambda"]) == float(meta["gamma_n"]) == radius
            _, rows = read_table(os.path.join(out, "fit_coefficients.csv"))
            fits.append(np.array([float(r[2]) for r in rows]))
            want = dantzig_selector(HighConfidenceSetSpec(data, radius)).beta_hat
            assert np.array_equal(fits[-1], want)
        assert not np.array_equal(fits[0], fits[1])

    @pytest.mark.parametrize("radius", [["--lambda", "0.3"], ["--lambda-grid", "0.5,0.1"]],
                             ids=["lambda", "lambda-grid"])
    def test_gamma_n_with_a_lambda_is_invalid(self, tmp_path, csv_data, capsys, radius):
        path, _ = csv_data
        out = tmp_path / "o"
        code = main(["fit", "--data", path, "--solver", "dantzig", "--gamma-n", "5"]
                    + radius + ["--out", str(out)])
        assert code == 2
        assert "--gamma-n" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("given", [
        ["--solver", "dantzig", "--lambda", "0.3"],
        ["--solver", "dantzig", "--lambda-grid", "0.5,0.1"],
        ["--solver", "dantzig", "--gamma-n", "5"],
        ["--solver", "cd", "--lambda", "0.1"],
        ["--solver", "lla", "--lambda", "0.1"],
    ], ids=["lambda", "lambda-grid", "gamma-n", "cd", "lla"])
    def test_gamma_n_scale_without_the_default_radius_is_invalid(
            self, tmp_path, csv_data, capsys, given):
        path, _ = csv_data
        out = tmp_path / "o"
        code = main(["fit", "--data", path, "--gamma-n-scale", "2"] + given
                    + ["--out", str(out)])
        assert code == 2
        assert "--gamma-n-scale" in capsys.readouterr().err
        assert not out.exists()

    def test_gamma_n_scale_scales_the_default_radius(self, tmp_path, csv_data):
        path, _ = csv_data
        radii = []
        for scale in ([], ["--gamma-n-scale", "1"], ["--gamma-n-scale", "2"]):
            out = str(tmp_path / str(len(radii)))
            assert main(["fit", "--data", path, "--solver", "dantzig"] + scale
                        + ["--out", out]) == 0
            radii.append(float(read_kv(os.path.join(out, "fit_run.txt"))["gamma_n"]))
        assert radii[0] == radii[1] > 0.0
        assert radii[2] == 2.0 * radii[0]

    def test_dantzig_on_csv_equals_the_in_memory_fit(self, tmp_path, csv_data):
        # read_csv returns C-contiguous arrays, as gen_linear does, so X'X
        # and the selector have the same last bits as on the data in memory.
        path, data = csv_data
        back = read_csv(path)
        assert back.X.flags.c_contiguous and back.y.flags.c_contiguous
        assert read_csv(path, y_col=None).X.flags.c_contiguous
        out = str(tmp_path / "out")
        assert main(["fit", "--data", path, "--solver", "dantzig", "--lambda", "0.3",
                     "--out", out]) == 0
        _, rows = read_table(os.path.join(out, "fit_coefficients.csv"))
        want = dantzig_selector(HighConfidenceSetSpec(data, 0.3)).beta_hat
        assert np.array_equal([float(r[2]) for r in rows], want)

    def test_dantzig_size_cap_is_invalid_input(self, tmp_path, csv_data, capsys,
                                               monkeypatch):
        import hdlab.solvers as solvers

        monkeypatch.setattr(solvers, "DANTZIG_MAX_D", 5)
        path, _ = csv_data
        code = main(["fit", "--data", path, "--solver", "dantzig",
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "screen" in capsys.readouterr().err

    def test_standardize_flag(self, tmp_path):
        spec = LinearModelSpec(n=40, d=4, beta={1: 1.0}, noise_sd=0.5)
        raw = gen_linear(spec, 11)
        path = tmp_path / "raw.csv"
        write_csv(raw, path)
        code = main(["fit", "--data", str(path), "--lambda", "0.1",
                     "--standardize", "--out", str(tmp_path / "o")])
        assert code == 0

    def test_standardize_records_the_intercept(self, tmp_path, csv_data):
        spec = LinearModelSpec(n=40, d=4, beta={1: 1.0}, noise_sd=0.5)
        raw = gen_linear(spec, 11)
        coefs = []
        for shift in (0.0, 5.0):
            path = tmp_path / ("raw%g.csv" % shift)
            write_csv(Dataset(raw.X, raw.y + shift), path)
            out = str(tmp_path / ("o%g" % shift))
            assert main(["fit", "--data", str(path), "--lambda", "0.1",
                         "--standardize", "--out", out]) == 0
            meta = read_kv(os.path.join(out, "fit_run.txt"))
            assert meta["intercept"] == repr(float(read_csv(path).y.mean()))
            _, rows = read_table(os.path.join(out, "fit_coefficients.csv"))
            coefs.append(np.array([float(r[2]) for r in rows]))
        assert float(meta["intercept"]) == pytest.approx(raw.y.mean() + 5.0, abs=1e-12)
        assert np.allclose(coefs[1], coefs[0], rtol=0.0, atol=1e-12)
        out = str(tmp_path / "plain")
        assert main(["fit", "--data", csv_data[0], "--lambda", "0.1", "--out", out]) == 0
        assert "intercept" not in read_kv(os.path.join(out, "fit_run.txt"))

    def test_unstandardized_input_fails_cleanly(self, tmp_path, capsys):
        spec = LinearModelSpec(n=40, d=4, beta={1: 1.0}, noise_sd=0.5)
        raw = gen_linear(spec, 11)
        path = tmp_path / "raw.csv"
        write_csv(raw, path)
        code = main(["fit", "--data", str(path), "--lambda", "0.1",
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "standardize" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        code = main(["fit", "--data", str(tmp_path / "nope.csv"),
                     "--lambda", "0.1", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestScreen:
    def test_ranking_table(self, tmp_path, csv_data, capsys):
        path, data = csv_data
        out = str(tmp_path / "out")
        code = main(["screen", "--data", path, "--top-k", "3", "--out", out])
        assert code == 0
        header, rows = read_table(os.path.join(out, "screen_ranking.csv"))
        assert header == ["rank", "index", "name", "marginal_beta", "selected"]
        assert [int(r[0]) for r in rows] == list(range(1, 7))
        selected = [int(r[1]) for r in rows if r[4] == "1"]
        want = sis_select(data, top_k=3).survivors
        assert sorted(selected) == want.tolist()
        mags = [abs(float(r[3])) for r in rows]
        assert mags == sorted(mags, reverse=True)
        assert "top_k=3" in capsys.readouterr().out

    def test_requires_response(self, tmp_path, capsys):
        data = standardize(gen_linear(
            LinearModelSpec(n=30, d=4, beta={}), 3))
        path = tmp_path / "x.csv"
        write_csv(data, path)
        code = main(["screen", "--data", str(path), "--y-col", "target",
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "target" in capsys.readouterr().err


class TestDiagnose:
    def test_spurious(self, tmp_path):
        out = str(tmp_path / "out")
        code = main(["diagnose", "spurious", "--n", "12", "--d", "5,8",
                     "--reps", "3", "--subset-size", "2", "--seed", "1",
                     "--out", out])
        assert code == 0
        for name in ("spurious_values.csv", "spurious_quantiles.csv",
                     "spurious_params.txt", "spurious_r_hat.svg",
                     "spurious_R_hat.svg"):
            assert os.path.exists(os.path.join(out, name)), name

    def test_variance(self, tmp_path):
        out = str(tmp_path / "out")
        code = main(["diagnose", "variance", "--n", "30", "--d-single", "40",
                     "--reps", "3", "--support-size", "2", "--out", out])
        assert code == 0
        assert os.path.exists(os.path.join(out, "variance_estimates.csv"))
        assert os.path.exists(os.path.join(out, "variance_estimates.svg"))

    def test_endogeneity(self, tmp_path):
        out = str(tmp_path / "out")
        code = main(["diagnose", "endogeneity", "--n", "60", "--d-single", "30",
                     "--coupled-count", "8", "--permutations", "10",
                     "--out", out])
        assert code == 0
        for name in ("endogeneity_summary.csv", "endogeneity_correlations.csv",
                     "endogeneity_planted.svg", "endogeneity_exogenous.svg"):
            assert os.path.exists(os.path.join(out, name)), name

    def test_overid_forces_quadratic_mode(self, tmp_path):
        out = str(tmp_path / "out")
        code = main(["diagnose", "overid", "--n", "60", "--d-single", "30",
                     "--coupled-count", "8", "--permutations", "10",
                     "--out", out])
        assert code == 0
        kv = read_kv(os.path.join(out, "endogeneity_params.txt"))
        assert kv["mode"] == "quadratic"
        assert os.path.exists(os.path.join(out, "overid_moments.svg"))

    def test_bad_config(self, tmp_path):
        code = main(["diagnose", "spurious", "--n", "2", "--out",
                     str(tmp_path / "o")])
        assert code == 2

    def test_spurious_matches_reproduce(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["diagnose", "spurious", "--n", "12", "--d", "5,8",
                     "--reps", "3", "--subset-size", "2", "--seed", "1",
                     "--out", a]) == 0
        cfg = tmp_path / "spurious.cfg"
        cfg.write_text("figure=2\nn=12\nd_list=5,8\nreps=3\nsubset_size=2\n")
        assert main(["reproduce", "--config", str(cfg), "--seed", "1",
                     "--out", b]) == 0
        assert_same_tables(a, b)

    def test_endogeneity_matches_reproduce(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["diagnose", "endogeneity", "--n", "60", "--d-single", "30",
                     "--coupled-count", "8", "--permutations", "10",
                     "--out", a]) == 0
        cfg = tmp_path / "endo.cfg"
        cfg.write_text("figure=endo\nn=60\nd=30\ncoupled_count=8\npermutations=10\n")
        assert main(["reproduce", "--config", str(cfg), "--out", b]) == 0
        assert_same_tables(a, b)
        assert "overid_moments.svg" in os.listdir(b)

    def test_figures_go_through_the_svgplot_names(self, tmp_path, monkeypatch):
        # perfbench's traced runs time the figures by wrapping these three
        # cli attributes, so drawing must look them up there.
        drawn = []
        for name in ("histogram_svg", "line_chart_svg", "scatter_svg"):
            def spy(data, path, _name=name, _real=getattr(cli, name), **labels):
                drawn.append((_name, os.path.basename(path)))
                return _real(data, path, **labels)
            monkeypatch.setattr(cli, name, spy)
        assert main(["diagnose", "endogeneity", "--n", "60", "--d-single", "30",
                     "--coupled-count", "8", "--permutations", "10",
                     "--out", str(tmp_path / "endo")]) == 0
        assert sorted(drawn) == [("histogram_svg", "endogeneity_exogenous.svg"),
                                 ("histogram_svg", "endogeneity_planted.svg"),
                                 ("scatter_svg", "overid_moments.svg")]
        del drawn[:]
        assert main(["reproduce", "--figure", "4", "--out", str(tmp_path / "pen")]) == 0
        assert drawn == [("line_chart_svg", "penalty_curves.svg")]

    def test_failed_sanity_check_exits_3(self, tmp_path, monkeypatch, capsys):
        real = cli.endogeneity_experiment

        def corrupted(**kw):
            rep = real(**kw)
            rep.tables["summary"][1][1][0] = 1.5  # the first tail statistic, outside [0, 1]
            return rep

        monkeypatch.setattr(cli, "endogeneity_experiment", corrupted)
        code = main(["diagnose", "endogeneity", "--n", "60", "--d-single", "30",
                     "--coupled-count", "8", "--permutations", "10",
                     "--out", str(tmp_path / "o")])
        assert code == 3
        assert "sanity check failed" in capsys.readouterr().err


    def test_unconverged_final_fit_exits_2(self, tmp_path, monkeypatch, capsys):
        coord_descent_l1 = experiments.coord_descent_l1

        def unconverged(*args, **kwargs):
            fit = coord_descent_l1(*args, **kwargs)
            fit.converged = False
            return fit

        monkeypatch.setattr(experiments, "coord_descent_l1", unconverged)
        assert main(["diagnose", "endogeneity", "--n", "60", "--d-single", "30",
                     "--coupled-count", "8", "--permutations", "10",
                     "--out", str(tmp_path / "d")]) == 2
        assert main(["reproduce", "--figure", "endo", "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err.count("did not converge") == 2

    def test_asymmetric_penalty_curve_exits_3(self, tmp_path, capsys):
        # np.linspace(-3, 3, 21) puts 2.0999999999999996, not 2.1, opposite
        # t = -2.1, so the check must find a point's mirror by nearness.
        rep = cli.penalty_curves(points=21)
        label, t, values = rep.tables["curves"][1]
        i = next(k for k in range(t.size) if label[k] == "hard" and t[k] == -2.1)
        assert 2.1 not in t
        assert cli._finish(rep, str(tmp_path)) == 0
        values[i] += 1e-6
        assert cli._finish(rep, str(tmp_path)) == 3
        assert "hard asymmetric at t=-2.1" in capsys.readouterr().err

class TestReduce:
    def test_pca(self, tmp_path, csv_data):
        path, data = csv_data
        out = str(tmp_path / "out")
        code = main(["reduce", "--data", path, "--method", "pca", "--k", "2",
                     "--out", out])
        assert code == 0
        header, rows = read_table(os.path.join(out, "reduced.csv"))
        assert header == ["z1", "z2", "y"]
        assert len(rows) == data.n
        got_y = np.array([float(r[2]) for r in rows])
        assert np.array_equal(got_y, data.y)
        dheader, drows = read_table(os.path.join(out, "distortion.csv"))
        assert dheader == ["method", "k", "median_relative_error"]
        assert drows[0][0] == "pca" and drows[0][1] == "2"

    def test_random_projection(self, tmp_path, csv_data):
        path, _ = csv_data
        out = str(tmp_path / "out")
        code = main(["reduce", "--data", path, "--method", "rp", "--k", "3",
                     "--seed", "4", "--orthonormalize", "--out", out])
        assert code == 0
        _, drows = read_table(os.path.join(out, "distortion.csv"))
        assert drows[0][0] == "rp"

    def test_k_out_of_range(self, tmp_path, csv_data):
        path, _ = csv_data
        code = main(["reduce", "--data", path, "--method", "pca", "--k", "9",
                     "--out", str(tmp_path / "o")])
        assert code == 2


class TestReproduce:
    def test_penalty_figure(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        code = main(["reproduce", "--figure", "4", "--out", out])
        assert code == 0
        for name in ("penalty_curves_curves.csv", "penalty_curves_params.txt",
                     "penalty_curves.svg"):
            assert os.path.exists(os.path.join(out, name)), name
        assert "n_penalties=8" in capsys.readouterr().out

    def test_unknown_figure(self, tmp_path, capsys):
        code = main(["reproduce", "--figure", "3", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "unknown figure" in capsys.readouterr().err

    def test_figure_required(self, tmp_path):
        assert main(["reproduce", "--out", str(tmp_path / "o")]) == 2

    def test_config_file_drives_the_run(self, tmp_path):
        out = tmp_path / "cfg_out"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# tiny null-data run\n"
            "figure=2\n"
            "n=10\n"
            "d_list=4,6\n"
            "reps=2\n"
            "subset-size=1\n"
            "seed=5\n"
            "out=%s\n" % out
        )
        code = main(["reproduce", "--config", str(cfg)])
        assert code == 0
        _, rows = read_table(os.path.join(str(out), "spurious_values.csv"))
        assert len(rows) == 4
        kv = read_kv(os.path.join(str(out), "spurious_params.txt"))
        assert kv["seed"] == "5" and kv["subset_size"] == "1"

    def test_flag_overrides_config_seed(self, tmp_path):
        base = "figure=2\nn=10\nd_list=4\nreps=2\nsubset-size=1\n"
        cfg5 = tmp_path / "seed5.cfg"
        cfg5.write_text(base + "seed=5\n")
        cfg7 = tmp_path / "seed7.cfg"
        cfg7.write_text(base + "seed=7\n")
        a, b, c = (str(tmp_path / name) for name in "abc")
        assert main(["reproduce", "--config", str(cfg5), "--seed", "7",
                     "--out", a]) == 0
        assert main(["reproduce", "--config", str(cfg5), "--out", b]) == 0
        assert main(["reproduce", "--config", str(cfg7), "--out", c]) == 0

        def values(path):
            with open(os.path.join(path, "spurious_values.csv"), "rb") as fh:
                return fh.read()

        assert values(a) == values(c)  # the flag won
        assert values(a) != values(b)  # and it actually changed the draw

    def test_reruns_are_byte_identical(self, tmp_path):
        args = ["reproduce", "--figure", "1", "--seed", "3"]
        cfg = tmp_path / "small.cfg"
        cfg.write_text("m_list=2,6\nn_per_class=15\nd=8\nsignal_count=2\n")
        a = str(tmp_path / "a")
        b = str(tmp_path / "b")
        assert main(args + ["--config", str(cfg), "--out", a]) == 0
        assert main(args + ["--config", str(cfg), "--out", b]) == 0
        for name in ("noise_accumulation_separation.csv",
                     "noise_accumulation_projections.csv"):
            with open(os.path.join(a, name), "rb") as fa, \
                    open(os.path.join(b, name), "rb") as fb:
                assert fa.read() == fb.read()

    @pytest.mark.parametrize("body, names, argv", [
        ("figure=2\nn=10\nd_list=4\nreps=2\nbogus_key=3\n", "bogus_key", []),
        ("figure=endo\nseed=1.5\n", "seed", []),
        ("figure=endo\nseed=true\n", "seed", []),
        ("", "paper_scale", ["--figure", "1", "--paper-scale"]),
        ("figure=11\npaper_scale=true\n", "paper_scale", []),
        ("", "seed", ["--figure", "4", "--seed", "3"]),
        ("figure=endo\ngrid_size=3.0\n", "grid_size", []),
        ("figure=11\nd_list=20\nk_list=2.5\n", "k_list", []),
    ], ids=["unknown-key", "float-seed", "bool-seed", "paper-scale-flag",
            "paper-scale-key", "seed-flag", "float-grid-size", "float-k-list"])
    def test_bad_config_key_is_invalid_input(self, tmp_path, capsys, body, names, argv):
        # A setting the experiment does not take, or a count that is not an
        # integer, whether from a flag or a config key.
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(body)
        out = tmp_path / "o"
        assert main(["reproduce", "--config", str(cfg), "--out", str(out)] + argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and names in err
        assert not out.exists()

    def test_paper_scale_runs_a_thousand_replicates(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("figure=2\nn=8\nd_list=3\nsubset_size=1\n")
        out = str(tmp_path / "o")
        assert main(["reproduce", "--config", str(cfg), "--paper-scale",
                     "--out", out]) == 0
        _, rows = read_table(os.path.join(out, "spurious_values.csv"))
        assert len(rows) == 1000
        params = os.path.join(out, "spurious_params.txt")
        kv = read_kv(params)
        assert kv["reps"] == "1000" and kv["paper_scale"] == "True"
        assert read_config(params)["paper_scale"] is True


class TestConfigParsing:
    def test_read_config(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("# comment\nalpha=1\nbeta=2.5\nflag=true\n"
                       "name=endo\npair=3,4\nwith-dash=7\n")
        out = read_config(str(cfg))
        assert out == {"alpha": 1, "beta": 2.5, "flag": True, "name": "endo",
                       "pair": (3, 4), "with_dash": 7}

    def test_bad_line(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("just a line\n")
        from hdlab import ConfigurationError
        with pytest.raises(ConfigurationError):
            read_config(str(cfg))


@pytest.mark.skipif(shutil.which("hdlab") is None,
                    reason="console script not on PATH")
def test_console_entry_point(tmp_path):
    out = str(tmp_path / "out")
    proc = subprocess.run(["hdlab", "reproduce", "--figure", "4", "--out", out],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert os.path.exists(os.path.join(out, "penalty_curves.svg"))
