import csv
import io
import os

import numpy as np
import pytest

from hdlab import (ConfigurationError, PenaltySpec, SolverError, ValidationError, experiments,
                   penalty_value)
from hdlab.experiments import (
    endogeneity_experiment,
    noise_accumulation_experiment,
    penalty_curves,
    projection_error_experiment,
    spurious_correlation_experiment,
    variance_experiment,
)
from hdlab.report import _cell
from hdlab.solvers import kkt_violation, lasso_path


SMALL_NOISE = dict(m_list=(2, 10, 60), n_per_class=40, d=60,
                   signal_count=5, signal_value=3.0, seed=0)


class TestNoiseAccumulation:
    def test_separation_decays_as_noise_features_enter(self):
        rep = noise_accumulation_experiment(**SMALL_NOISE)
        header, rows = rep.table("separation")
        assert header == ["m", "separation", "separation_2d"]
        by_m = {row[0]: row for row in rows}
        assert by_m[10][1] > by_m[60][1]
        assert rep.summary["separation_m10"] == by_m[10][1]

    def test_two_kept_features_make_projection_lossless(self):
        rep = noise_accumulation_experiment(**SMALL_NOISE)
        row = rep.table("separation")[1][0]
        assert row[0] == 2
        assert row[1] == pytest.approx(row[2], abs=1e-9)

    def test_projection_table_layout(self):
        rep = noise_accumulation_experiment(**SMALL_NOISE)
        header, rows = rep.table("projections")
        assert header == ["m", "row", "class", "pc1", "pc2"]
        assert len(rows) == 3 * 80
        assert {row[2] for row in rows} == {0, 1}

    def test_no_signal_means_no_separation(self):
        rep = noise_accumulation_experiment(m_list=(2, 30), n_per_class=50, d=40,
                                            signal_count=0, seed=1)
        for row in rep.table("separation")[1]:
            assert row[1] < 0.5

    def test_t_statistic_ranking_at_full_width_changes_nothing(self):
        a = noise_accumulation_experiment(m_list=(20,), n_per_class=30, d=20,
                                          signal_count=4, seed=2, rank_by="index")
        b = noise_accumulation_experiment(m_list=(20,), n_per_class=30, d=20,
                                          signal_count=4, seed=2, rank_by="t_stat")
        assert a.table("separation")[1] == b.table("separation")[1]

    def test_t_statistic_ranking_concentrates_signal(self):
        rep = noise_accumulation_experiment(m_list=(5,), n_per_class=60, d=100,
                                            signal_count=5, seed=3, rank_by="t_stat")
        assert rep.summary["separation_m5"] > 1.5

    def test_deterministic(self):
        a = noise_accumulation_experiment(**SMALL_NOISE)
        b = noise_accumulation_experiment(**SMALL_NOISE)
        assert a.table("separation")[1] == b.table("separation")[1]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            noise_accumulation_experiment(rank_by="pvalue")
        with pytest.raises(ConfigurationError):
            noise_accumulation_experiment(m_list=(2, 2), d=10)
        with pytest.raises(ConfigurationError):
            noise_accumulation_experiment(m_list=(1,), d=10)
        with pytest.raises(ConfigurationError):
            noise_accumulation_experiment(m_list=(2,), d=10, signal_count=11)


class TestSpuriousCorrelationExperiment:
    def test_wraps_the_monte_carlo(self):
        rep = spurious_correlation_experiment(seed=1, n=12, d_list=(5, 9),
                                              reps=3, subset_size=2)
        assert rep.params["paper_scale"] is False
        assert rep.params["reps"] == 3
        assert len(rep.table("values")[1]) == 6

    def test_paper_scale_forces_thousand_replicates(self):
        rep = spurious_correlation_experiment(seed=2, n=6, d_list=(3,),
                                              reps=7, subset_size=1,
                                              paper_scale=True)
        assert rep.params["paper_scale"] is True
        assert rep.params["reps"] == 1000
        assert len(rep.table("values")[1]) == 1000


class TestPenaltyCurves:
    def test_curve_table_layout(self):
        rep = penalty_curves()
        header, rows = rep.table("curves")
        assert header == ["penalty", "t", "value"]
        labels = {row[0] for row in rows}
        assert labels == {"hard", "soft", "scad(2.1)", "scad(3.7)", "scad(100)",
                          "mcp(1)", "mcp(3)", "mcp(100)"}
        assert len(rows) == 8 * 601
        ts = sorted({row[1] for row in rows})
        assert ts[0] == -3.0 and ts[-1] == 3.0

    def test_soft_curve_is_absolute_value(self):
        rep = penalty_curves(lam=1.0)
        soft = [(row[1], row[2]) for row in rep.table("curves")[1] if row[0] == "soft"]
        assert all(v == abs(t) for t, v in soft)

    def test_unit_clipping_collapses_mcp_onto_hard(self):
        rep = penalty_curves()
        rows = rep.table("curves")[1]
        hard = {row[1]: row[2] for row in rows if row[0] == "hard"}
        mcp1 = {row[1]: row[2] for row in rows if row[0] == "mcp(1)"}
        assert max(abs(hard[t] - mcp1[t]) for t in hard) < 1e-12

    def test_large_gamma_approaches_the_convex_curve(self):
        rep = penalty_curves()
        rows = rep.table("curves")[1]
        soft = {row[1]: row[2] for row in rows if row[0] == "soft"}
        wide = {row[1]: row[2] for row in rows if row[0] == "scad(100)"}
        assert max(abs(soft[t] - wide[t]) for t in soft) < 0.05

    def test_matches_direct_evaluation(self):
        rep = penalty_curves(lam=0.5, points=11)
        rows = [r for r in rep.table("curves")[1] if r[0] == "mcp(3)"]
        spec = PenaltySpec("mcp", 0.5, 3.0)
        for t, v in [(r[1], r[2]) for r in rows]:
            assert v == penalty_value(spec, t)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            penalty_curves(points=1)


class TestProjectionErrorExperiment:
    def test_grid_and_skipping(self):
        rep = projection_error_experiment(d_list=(20, 60), k_list=(2, 10, 30),
                                          n=25, seed=0)
        header, rows = rep.table("errors")
        assert header == ["d", "k", "method", "median_relative_error"]
        combos = {(row[0], row[1], row[2]) for row in rows}
        # k=30 exceeds min(n, d) everywhere, so only k in {2, 10} appears.
        assert combos == {(d, k, m) for d in (20, 60) for k in (2, 10)
                          for m in ("pca", "rp")}
        assert all(0.0 <= row[3] <= 1.5 for row in rows)
        assert "d20_k10" in rep.summary

    def test_pca_beats_rp_on_spiked_data_at_ample_k(self):
        rep = projection_error_experiment(d_list=(100,), k_list=(25,), n=60, seed=1)
        err = {row[2]: row[3] for row in rep.table("errors")[1]}
        assert err["pca"] < err["rp"]

    def test_deterministic(self):
        a = projection_error_experiment(d_list=(30,), k_list=(5,), n=20, seed=2)
        b = projection_error_experiment(d_list=(30,), k_list=(5,), n=20, seed=2)
        assert a.table("errors")[1] == b.table("errors")[1]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            projection_error_experiment(k_list=(0, 5))

    def test_numpy_integer_counts_are_accepted(self):
        a = projection_error_experiment(d_list=np.array([30]), k_list=(np.int64(5),),
                                        n=np.int32(20), seed=2)
        b = projection_error_experiment(d_list=(30,), k_list=(5,), n=20, seed=2)
        assert a.table("errors")[1] == b.table("errors")[1]

    @pytest.mark.parametrize("kw", [dict(n=20.0), dict(k_list=(5, True)),
                                    dict(d_list=(30.5,))],
                             ids=["float-n", "bool-k", "float-d"])
    def test_non_integer_counts_are_rejected(self, kw):
        args = dict(d_list=(30,), k_list=(5,), n=20)
        args.update(kw)
        with pytest.raises(ConfigurationError, match=next(iter(kw))):
            projection_error_experiment(**args)


class TestVarianceExperiment:
    def test_dredging_bias_shows_up(self):
        rep = variance_experiment(seed=0, n=40, d=100, reps=10, support_size=3)
        assert rep.summary["truth"] == 1.0
        assert rep.summary["mean_dredged"] < rep.summary["mean_rcv"]
        header, rows = rep.table("estimates")
        assert header == ["rep", "dredged_support", "fixed_support", "rcv"]
        assert len(rows) == 10
        assert all(min(row[1:]) > 0.0 for row in rows)

    def test_truth_tracks_noise_scale(self):
        rep = variance_experiment(seed=1, n=40, d=50, reps=10, support_size=3,
                                  noise_sd=2.0)
        assert rep.summary["truth"] == 4.0
        assert 3.0 < rep.summary["mean_fixed"] < 5.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            variance_experiment(reps=0)
        with pytest.raises(ConfigurationError):
            variance_experiment(n=40, support_size=0)
        with pytest.raises(ConfigurationError):
            variance_experiment(n=40, support_size=20)


SMALL_ENDO = dict(seed=0, n=100, d=60, support_size=3, coupled_count=15,
                  coupling=1.0, permutations=20, folds=4, grid_size=8)


class TestEndogeneityExperiment:
    def test_report_layout(self):
        rep = endogeneity_experiment(**SMALL_ENDO)
        header, rows = rep.table("summary")
        assert header == ["scenario", "tail_statistic", "null_q95", "flagged",
                          "support_size", "lambda_star"]
        assert [row[0] for row in rows] == ["planted", "exogenous"]
        assert all(row[3] in (0, 1) for row in rows)
        assert rep.summary["planted_flagged"] in (0, 1)
        assert rep.summary["exogenous_flagged"] in (0, 1)
        corr = rep.table("correlations")[1]
        assert len(corr) == 2 * (60 + 20 * 60)
        assert {row[0] for row in corr} == {"planted", "exogenous"}
        over_header, over_rows = rep.table("overid")
        assert over_header == ["scenario", "column", "corr_x", "corr_x2"]
        assert len(over_rows) == sum(row[4] for row in rows)

    def test_deterministic(self):
        a = endogeneity_experiment(**SMALL_ENDO)
        b = endogeneity_experiment(**SMALL_ENDO)
        assert a.table("summary")[1] == b.table("summary")[1]

    @pytest.mark.parametrize("config", [SMALL_ENDO, dict(seed=0)], ids=["small", "defaults"])
    def test_final_fit_starts_from_the_path_point(self, monkeypatch, config):
        # The fit at lambda* is warm-started from the certified homotopy
        # point, so coordinate descent only confirms it. It keeps the
        # positional (data, lambda*) call that run traces capture.
        calls = []
        coord_descent_l1 = experiments.coord_descent_l1

        def spy(*args, **kwargs):
            fit = coord_descent_l1(*args, **kwargs)
            calls.append((args, fit))
            return fit

        monkeypatch.setattr(experiments, "coord_descent_l1", spy)
        rep = endogeneity_experiment(**config)
        summary = rep.table("summary")[1]
        assert len(calls) == len(summary) == 2
        for ((data, lam), fit), row in zip(calls, summary):
            assert lam == row[5] and fit.active_set.size == row[4]
            assert fit.converged and fit.iterations <= 2
            assert kkt_violation(data, fit.beta_hat, lam) <= 1e-12
            start = lasso_path(data, [lam]).betas[0]
            assert np.max(np.abs(fit.beta_hat - start)) <= 1e-12

    def test_unconverged_final_fit_raises(self, monkeypatch):
        # The flag and the support size come from the final fit, so a fit
        # that did not converge is a solver failure, not a reported result.
        coord_descent_l1 = experiments.coord_descent_l1

        def unconverged(*args, **kwargs):
            fit = coord_descent_l1(*args, **kwargs)
            fit.converged = False
            return fit

        monkeypatch.setattr(experiments, "coord_descent_l1", unconverged)
        with pytest.raises(SolverError, match="planted fit .* did not converge"):
            endogeneity_experiment(**SMALL_ENDO)

    def test_correlations_are_columns(self, tmp_path):
        # The values are one float64 array, which the writer formats a block
        # at a time; the bytes are csv.writer's over the table's rows.
        rep = endogeneity_experiment(seed=1, n=60, d=80, support_size=3, coupled_count=10,
                                     permutations=20, folds=4, grid_size=8)
        header, (labels, kinds, values) = rep.tables["correlations"]
        assert isinstance(values, np.ndarray) and values.dtype == np.float64
        assert len(labels) == len(kinds) == values.size == 2 * (80 + 20 * 80)
        rep.write(tmp_path)
        buf = io.StringIO(newline="")
        csv.writer(buf).writerows([header] + [[_cell(v) for v in row]
                                              for row in rep.table("correlations")[1]])
        assert (tmp_path / "endogeneity_correlations.csv").read_bytes() == \
            buf.getvalue().encode()

    def test_validation(self):
        with pytest.raises(ValidationError):
            endogeneity_experiment(noise_sd=0.0)
        with pytest.raises(ConfigurationError):
            endogeneity_experiment(d=10, support_size=3, coupled_count=8)


class TestReportWriting:
    def test_round_trip_and_reproducible_bytes(self, tmp_path):
        rep = penalty_curves(points=21)
        first = rep.write(tmp_path / "a")
        second = rep.write(tmp_path / "b")
        assert [os.path.basename(p) for p in first] == \
            ["penalty_curves_curves.csv", "penalty_curves_params.txt"]
        with open(first[0], "rb") as fa, open(second[0], "rb") as fb:
            assert fa.read() == fb.read()
        with open(first[0], newline="") as fh:
            rows = list(csv.reader(fh))
        header, table_rows = rep.table("curves")
        assert rows[0] == header
        assert len(rows) == 1 + len(table_rows)
        parsed = [float(x) for x in rows[1][1:]]
        assert parsed == [table_rows[0][1], table_rows[0][2]]

    def test_metadata_file_contents(self, tmp_path):
        rep = variance_experiment(seed=3, n=40, d=30, reps=2, support_size=2)
        paths = rep.write(tmp_path)
        meta = [p for p in paths if p.endswith("variance_params.txt")]
        assert len(meta) == 1
        with open(meta[0]) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "experiment=variance"
        assert lines[-1].startswith("wall_clock=")
        assert any(line.startswith("summary.mean_rcv=") for line in lines)
        assert any(line == "seed=3" for line in lines)

    def test_metadata_records_numpy_blas_and_threads(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        rep = penalty_curves(points=5)
        table, meta = rep.write(tmp_path / "a")
        with open(meta) as fh:
            pairs = [line.split("=", 1) for line in fh.read().splitlines()]
        keys = [k for k, _ in pairs]
        kv = dict(pairs)
        assert kv["numpy"] == np.__version__
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert kv["blas"] == "%s %s" % (blas["name"], blas["version"])
        assert kv["OPENBLAS_NUM_THREADS"] == "1"
        assert kv["OMP_NUM_THREADS"] == "unset"
        assert keys[-5:-1] == ["numpy", "blas", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"]
        assert keys[-1] == "wall_clock"
        # The tables record none of it.
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        again = rep.write(tmp_path / "b")[0]
        with open(table, "rb") as fa, open(again, "rb") as fb:
            assert fa.read() == fb.read()
