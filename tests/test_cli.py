import os

import numpy as np
import pytest
from helpers import recording_pool

from arealbayes import cli, fileio, svc
from arealbayes.cli import main
from arealbayes.mcmc import ChainArchive, McmcConfig


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def simulated(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("sim")
    assert run(["simulate", "--outdir", outdir, "--rows", "8", "--cols", "8",
                "--seed", "3", "--model", "M3"]) == 0
    return outdir


class TestSimulate:
    def test_emits_all_inputs(self, simulated):
        for name in (
            "adjacency.csv", "areas.csv", "indicators_raw.csv", "extremes.csv",
            "strata.csv", "rates.csv", "truth.csv",
        ):
            assert (simulated / name).exists(), name

    def test_suppression_writes_empty_cells(self, tmp_path):
        assert run(["simulate", "--outdir", tmp_path, "--rows", "4", "--cols", "4",
                    "--seed", "1", "--suppressed", "3"]) == 0
        table = fileio.read_strata(tmp_path / "strata.csv")
        suppressed_rows = np.isnan(table.deaths).all(axis=1)
        assert suppressed_rows.sum() == 3

    def test_negative_seed_is_one_line_error(self, tmp_path, capsys):
        capsys.readouterr()
        assert run(["simulate", "--outdir", tmp_path / "sim", "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert err == "error: ValidationError: seed must be a non-negative integer, got -1\n"
        assert not (tmp_path / "sim").exists()


class TestPrep:
    def test_outputs_standardized_imputed_counts_covariates(self, simulated, tmp_path):
        assert run([
            "prep", "--outdir", tmp_path,
            "--indicators-raw", simulated / "indicators_raw.csv",
            "--areas", simulated / "areas.csv",
            "--extremes", simulated / "extremes.csv",
            "--strata", simulated / "strata.csv",
        ]) == 0
        panel = fileio.read_indicators(tmp_path / "indicators.csv")
        assert np.isfinite(panel.values).all()
        means = panel.values.mean(axis=0)
        assert np.max(np.abs(means)) < 0.2  # imputation shifts the exact zero
        ids, observed, expected = fileio.read_counts(tmp_path / "counts.csv")
        assert np.isfinite(expected).all()
        assert abs(observed.sum() - expected.sum()) < 1e-6  # derived rates balance
        cov_ids, ice, factors, names = fileio.read_covariates(tmp_path / "covariates.csv")
        assert np.all((ice >= -1) & (ice <= 1))
        assert factors.shape == (64, 0)

    def test_schema_error_is_one_line_and_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "indicators_raw.csv"
        bad.write_text("area_id,x\n0,1.0\n1,zap\n")
        code = run(["prep", "--outdir", tmp_path, "--indicators-raw", bad])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: SchemaError:")
        assert "indicators_raw.csv:3" in err
        assert "'x'" in err


class TestShortRows:
    """One row narrower than the schema, per hand-read input; the other
    files each command needs are well formed."""

    GOOD = {
        "strata.csv": "area_id,stratum,population,deaths\na,young,100,3\nb,young,80,1\n",
        "extremes.csv": "area_id,privileged,deprived,total\na,10,5,20\nb,4,9,20\n",
        "adj.csv": "src,dst,weight\n0,1,1.0\n",
    }

    @pytest.mark.parametrize("flags, name, text, columns", [
        (["prep", "--strata"], "strata.csv",
         "area_id,stratum,population,deaths\na,young,100,3\nb,young\n",
         "3 columns area_id,stratum,population"),
        (["prep", "--strata", "strata.csv", "--rates"], "rates.csv",
         "stratum,rate\nyoung\n", "2 columns stratum,rate"),
        (["prep", "--extremes"], "bad_extremes.csv",
         "area_id,privileged,deprived,total\na,10,5,20\nb,4,9\n",
         "4 columns area_id,privileged,deprived,total"),
        (["prep", "--extremes", "extremes.csv", "--factor-scores"], "scores.csv",
         "area_id,score\na,0.5\nb\n", "2 columns area_id,score"),
        (["diagnose", "--morans-i", "--column", "x", "--adjacency", "adj.csv", "--input"],
         "bad_x.csv", "area_id,x\na,1.0\nb\n", "2 columns area_id,x"),
    ], ids=["strata", "rates", "extremes", "factor-scores", "morans-i"])
    def test_short_row_is_one_line_schema_error(self, tmp_path, capsys, flags, name, text,
                                                columns):
        for good, content in self.GOOD.items():
            (tmp_path / good).write_text(content)
        (tmp_path / name).write_text(text)
        argv = [tmp_path / f if f.endswith(".csv") else f for f in flags] + [tmp_path / name]
        if argv[0] == "prep":
            argv[1:1] = ["--outdir", tmp_path / "out"]
        capsys.readouterr()
        assert run(argv) == 2
        lineno = text.count("\n")
        assert capsys.readouterr().err == (
            f"error: SchemaError: {tmp_path / name}:{lineno}: expected {columns}\n"
        )


class TestBlankFirstLine:
    """Each CSV a command reads as ids and numbers, starting with a blank
    line: the header is missing, so the error names line 1."""

    GOOD = {
        **TestShortRows.GOOD,
        "indicators_raw.csv": "area_id,x\na,1.0\nb,2.0\n",
        "counts.csv": "area_id,observed,expected\na,3,2.5\nb,1,1.5\n",
        "covariates.csv": "area_id,ice\na,0.1\nb,-0.2\n",
        "rates.csv": "stratum,rate\nyoung,0.01\n",
        "scores.csv": "area_id,score\na,0.5\nb,-0.5\n",
        "x.csv": "area_id,x\na,1.0\nb,2.0\n",
    }
    STAGE2 = ["fit-stage2", "--model", "M1", "--adjacency", "adj.csv", "--out", "out.csv"]

    @pytest.mark.parametrize("flags, name", [
        (["prep", "--indicators-raw"], "indicators_raw.csv"),
        (STAGE2 + ["--covariates", "covariates.csv", "--counts"], "counts.csv"),
        (STAGE2 + ["--counts", "counts.csv", "--covariates"], "covariates.csv"),
        (["prep", "--strata", "strata.csv", "--rates"], "rates.csv"),
        (["prep", "--extremes"], "extremes.csv"),
        (["prep", "--extremes", "extremes.csv", "--factor-scores"], "scores.csv"),
        (["diagnose", "--morans-i", "--column", "x", "--adjacency", "adj.csv", "--input"],
         "x.csv"),
    ], ids=["indicators", "counts", "covariates", "rates", "extremes", "factor-scores",
            "morans-i"])
    def test_blank_first_line_is_one_line_schema_error(self, tmp_path, capsys, flags, name):
        for good, content in self.GOOD.items():
            (tmp_path / good).write_text(content)
        bad = tmp_path / f"blank_{name}"
        bad.write_text("\n" + self.GOOD[name])
        argv = [tmp_path / f if f.endswith(".csv") else f for f in flags] + [bad]
        if argv[0] == "prep":
            argv[1:1] = ["--outdir", tmp_path / "out"]
        capsys.readouterr()
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: SchemaError: {bad}:1: ")

    def test_factor_scores_without_extremes_is_an_error(self, tmp_path, capsys):
        (tmp_path / "scores.csv").write_text(self.GOOD["scores.csv"])
        capsys.readouterr()
        assert run(["prep", "--outdir", tmp_path / "out",
                    "--factor-scores", tmp_path / "scores.csv"]) == 2
        assert capsys.readouterr().err == (
            "error: ValidationError: --factor-scores needs --extremes, "
            "whose area ids the scores join\n"
        )
        assert not (tmp_path / "out").exists()


class TestFitStage1:
    def test_retained_draw_arithmetic(self, simulated, tmp_path):
        prep_dir = tmp_path / "prep"
        assert run([
            "prep", "--outdir", prep_dir,
            "--indicators-raw", simulated / "indicators_raw.csv",
            "--areas", simulated / "areas.csv",
        ]) == 0
        out = tmp_path / "stage1.csv"
        assert run([
            "fit-stage1",
            "--indicators", prep_dir / "indicators.csv",
            "--adjacency", simulated / "adjacency.csv",
            "--out", out,
            "--iters", "2000", "--burnin", "500", "--thin", "5",
            "--chains", "2", "--seed", "11",
        ]) == 0
        archive = fileio.read_archive(out)
        assert archive.n_chains == 2
        assert archive.n_retained == 300
        assert archive.iterations[0] == 505
        assert archive.iterations[-1] == 2000

    def test_config_retaining_no_draw_is_one_line_error(self, full_pipeline, tmp_path, capsys):
        work, simulated = full_pipeline
        out = tmp_path / "stage1.csv"
        capsys.readouterr()
        assert run([
            "fit-stage1", "--indicators", work / "indicators.csv",
            "--adjacency", simulated / "adjacency.csv", "--out", out,
            "--iters", "10", "--burnin", "5", "--thin", "10", "--chains", "1",
        ]) == 2
        assert capsys.readouterr().err == (
            "error: ValidationError: n_iter - burn_in = 5 is below thin = 10, "
            "so the fit would retain no draws\n"
        )
        assert not out.exists()

    def test_dimension_mismatch_names_both_files(self, simulated, tmp_path, capsys):
        short = tmp_path / "short.csv"
        short.write_text("area_id,x,y\n0,0.1,0.2\n1,,0.3\n2,0.0,0.1\n")
        code = run([
            "fit-stage1", "--indicators", short,
            "--adjacency", simulated / "adjacency.csv",
            "--areas", simulated / "areas.csv",
            "--out", tmp_path / "a.csv",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "short.csv" in err and "areas.csv" in err


@pytest.fixture(scope="module")
def full_pipeline(tmp_path_factory, simulated):
    """simulate -> prep -> fit-stage1 -> scores -> prep -> fit-stage2."""
    work = tmp_path_factory.mktemp("pipeline")
    assert run([
        "prep", "--outdir", work,
        "--indicators-raw", simulated / "indicators_raw.csv",
        "--areas", simulated / "areas.csv",
        "--extremes", simulated / "extremes.csv",
        "--strata", simulated / "strata.csv",
    ]) == 0
    assert run([
        "fit-stage1",
        "--indicators", work / "indicators.csv",
        "--adjacency", simulated / "adjacency.csv",
        "--out", work / "stage1.csv",
        "--iters", "600", "--burnin", "200", "--thin", "4",
        "--chains", "2", "--seed", "21",
    ]) == 0
    assert run([
        "summarize", "--archive", work / "stage1.csv",
        "--what", "factor-scores", "--factor-name", "health",
        "--areas", simulated / "areas.csv",
        "--out", work / "scores.csv",
    ]) == 0
    assert run([
        "prep", "--outdir", work,
        "--extremes", simulated / "extremes.csv",
        "--factor-scores", work / "scores.csv",
    ]) == 0
    assert run([
        "fit-stage2",
        "--counts", work / "counts.csv",
        "--covariates", work / "covariates.csv",
        "--adjacency", simulated / "adjacency.csv",
        "--model", "M3", "--out", work / "stage2.csv",
        "--iters", "2500", "--burnin", "800", "--thin", "5",
        "--chains", "2", "--seed", "22",
    ]) == 0
    return work, simulated


class TestFitStage2AndSummaries:
    def test_pipeline_files_exist(self, full_pipeline):
        work, _ = full_pipeline
        archive = fileio.read_archive(work / "stage2.csv")
        assert set(archive.param_names) == {"beta", "phi", "v", "tau_phi", "tau_v"}

    def test_m4_runs_on_same_covariates(self, full_pipeline):
        work, simulated = full_pipeline
        assert run([
            "fit-stage2",
            "--counts", work / "counts.csv",
            "--covariates", work / "covariates.csv",
            "--adjacency", simulated / "adjacency.csv",
            "--model", "M4", "--out", work / "stage2_m4.csv",
            "--iters", "300", "--burnin", "100", "--thin", "4",
            "--chains", "1", "--seed", "23",
        ]) == 0
        archive = fileio.read_archive(work / "stage2_m4.csv")
        assert "delta" in archive.param_names

    def test_laplace_mode(self, full_pipeline):
        work, simulated = full_pipeline
        out = work / "laplace.csv"
        assert run([
            "fit-stage2",
            "--counts", work / "counts.csv",
            "--covariates", work / "covariates.csv",
            "--adjacency", simulated / "adjacency.csv",
            "--model", "M3", "--out", out, "--laplace",
            "--tau-phi", "5", "--tau-v", "5",
        ]) == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "term,estimate,sd"
        assert len(rows) == 4  # header + intercept, ice, health

    @pytest.mark.parametrize("flags, message", [
        (["--tau-phi", "-1"], "tau_phi must be finite and positive, got -1.0"),
        (["--tau-phi", "0"], "tau_phi must be finite and positive, got 0.0"),
        (["--tau-phi", "nan"], "tau_phi must be finite and positive, got nan"),
        (["--tau-grid", "1,-2"], "tau_v must be finite and positive, got -2.0"),
        (["--tau-grid", "1,abc"], "--tau-grid must be a comma list of numbers, got '1,abc'"),
        (["--tau-grid", "1,,2"], "--tau-grid must be a comma list of numbers, got '1,,2'"),
        (["--tau-grid", "1,4", "--tau-phi", "7"],
         "--tau-grid sets every precision; drop --tau-phi"),
        (["--tau-v", "2", "--tau-grid", "1", "--tau-delta", "3"],
         "--tau-grid sets every precision; drop --tau-v, --tau-delta"),
    ])
    def test_laplace_bad_precision_is_one_line_error(self, full_pipeline, tmp_path, capsys,
                                                     flags, message):
        work, simulated = full_pipeline
        out = tmp_path / "laplace.csv"
        capsys.readouterr()
        assert run([
            "fit-stage2",
            "--counts", work / "counts.csv",
            "--covariates", work / "covariates.csv",
            "--adjacency", simulated / "adjacency.csv",
            "--model", "M3", "--out", out, "--laplace", *flags,
        ]) == 2
        assert capsys.readouterr().err == f"error: ValidationError: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("model", ["M1", "M2"])
    def test_tau_grid_without_precisions_is_one_line_error(self, full_pipeline, tmp_path, capsys,
                                                           model):
        work, simulated = full_pipeline
        out = tmp_path / "laplace.csv"
        capsys.readouterr()
        assert run([
            "fit-stage2",
            "--counts", work / "counts.csv",
            "--covariates", work / "covariates.csv",
            "--adjacency", simulated / "adjacency.csv",
            "--model", model, "--out", out, "--laplace", "--tau-grid", "1,4",
        ]) == 2
        assert capsys.readouterr().err == (
            f"error: ValidationError: --tau-grid needs a rung with precisions; {model} has none\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("flags, named", [
        (["--tau-phi", "5"], "--tau-phi"),
        (["--tau-delta", "nan", "--tau-v", "-1"], "--tau-v, --tau-delta"),
        (["--tau-grid", "1,-2"], "--tau-grid"),
    ])
    def test_precision_flags_without_laplace_are_one_line_error(
        self, full_pipeline, tmp_path, capsys, flags, named
    ):
        work, simulated = full_pipeline
        out = tmp_path / "stage2.csv"
        capsys.readouterr()
        assert run([
            "fit-stage2",
            "--counts", work / "counts.csv",
            "--covariates", work / "covariates.csv",
            "--adjacency", simulated / "adjacency.csv",
            "--model", "M1", "--out", out, *flags,
        ]) == 2
        assert capsys.readouterr().err == (
            f"error: ValidationError: {named} need --laplace; MCMC samples the precisions\n"
        )
        assert not out.exists()

    def test_laplace_gets_only_the_given_precisions(self, full_pipeline, tmp_path, monkeypatch):
        work, simulated = full_pipeline
        seen = []
        fit = svc.fit_stage2_laplace
        monkeypatch.setattr(
            svc, "fit_stage2_laplace", lambda *args: seen.append(args[3]) or fit(*args)
        )
        out = tmp_path / "laplace.csv"
        assert run([
            "fit-stage2",
            "--counts", work / "counts.csv",
            "--covariates", work / "covariates.csv",
            "--adjacency", simulated / "adjacency.csv",
            "--model", "M3", "--out", out, "--laplace", "--tau-v", "5",
        ]) == 0
        assert seen == [{"tau_v": 5.0}]
        # the precision not given is the library's default
        spec, observed, graph, _, _ = cli._load_stage2_inputs(cli._build_parser().parse_args(
            ["fit-stage2", "--counts", str(work / "counts.csv"),
             "--covariates", str(work / "covariates.csv"),
             "--adjacency", str(simulated / "adjacency.csv"), "--model", "M3", "--out", "x"]
        ))
        expected = fit(spec, observed, graph, {"tau_phi": 2.0, "tau_v": 5.0})
        estimates = [float(line.split(",")[1]) for line in out.read_text().splitlines()[1:]]
        assert estimates == expected.state.beta.tolist()

    def test_laplace_tau_grid(self, full_pipeline, capsys):
        work, simulated = full_pipeline
        out = work / "laplace_grid.csv"
        argv = [str(a) for a in (
            "fit-stage2",
            "--counts", work / "counts.csv",
            "--covariates", work / "covariates.csv",
            "--adjacency", simulated / "adjacency.csv",
            "--model", "M3", "--out", out, "--laplace", "--tau-grid", "1,10,40",
        )]
        capsys.readouterr()
        assert run(argv) == 0
        printed = capsys.readouterr().out

        spec, observed, graph, _, _ = cli._load_stage2_inputs(cli._build_parser().parse_args(argv))
        grid = [{"tau_phi": a, "tau_v": b} for a in (1.0, 10.0, 40.0) for b in (1.0, 10.0, 40.0)]
        best, table = svc.laplace_precision_grid(spec, observed, graph, grid)
        assert [point for point, _ in table] == grid
        top = max(table, key=lambda row: row[1])[0]
        assert f"empirical Bayes selected {top}" in printed
        assert {"tau_phi": best.state.tau_phi, "tau_v": best.state.tau_v} == top

        lines = out.read_text().strip().splitlines()
        assert lines[0] == "term,estimate,sd"
        cells = [line.split(",") for line in lines[1:]]
        assert [c[0] for c in cells] == ["intercept", "ice", "health"]
        # the table writes floats by repr, so they read back exactly
        assert [float(c[1]) for c in cells] == best.state.beta.tolist()
        assert [float(c[2]) for c in cells] == best.beta_sd.tolist()

    def test_summaries(self, full_pipeline):
        work, simulated = full_pipeline
        archive_bytes = (work / "stage2.csv").read_bytes()
        common = [
            "--counts", work / "counts.csv",
            "--covariates", work / "covariates.csv",
            "--adjacency", simulated / "adjacency.csv",
            "--model", "M3",
        ]
        for what, header in [
            ("fixed-effects", "term,mean,sd,q025,q975,rate_ratio,rr_q025,rr_q975"),
            ("hyperparameters", "param,mean,mode,q025,q975"),
            ("relative-risk", "area_id,rr_mean,rr_q025,rr_q975"),
            ("risk-exceedance", "area_id,p_rr_gt_1.25,p_rr_gt_1.5,p_rr_gt_2.0"),
        ]:
            out = work / f"{what}.csv"
            assert run([
                "summarize", "--archive", work / "stage2.csv",
                "--what", what, "--out", out, *common,
            ]) == 0
            assert out.read_text().splitlines()[0] == header
        # summarize never mutates archives
        assert (work / "stage2.csv").read_bytes() == archive_bytes
        # qualitative sign pattern of the generative truth: segregation
        # effect negative with interval excluding 0, factor effect positive
        rows = (work / "fixed-effects.csv").read_text().splitlines()
        ice = dict(zip(rows[0].split(","), rows[2].split(",")))
        factor = dict(zip(rows[0].split(","), rows[3].split(",")))
        assert float(ice["q975"]) < 0
        assert float(factor["mean"]) > 0

    def test_stage1_summaries(self, full_pipeline):
        work, simulated = full_pipeline
        for what in ("loadings", "quintiles", "exceedance"):
            out = work / f"{what}.csv"
            assert run([
                "summarize", "--archive", work / "stage1.csv",
                "--what", what, "--out", out,
                "--areas", simulated / "areas.csv",
            ]) == 0
            assert out.exists()

    def test_diagnose_archive(self, full_pipeline, capsys):
        work, _ = full_pipeline
        out = work / "diag.csv"
        assert run([
            "diagnose", "--archive", work / "stage2.csv",
            "--params", "beta,tau_v", "--out", out,
        ]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("param,index,rhat,ess")
        assert len(lines) == 1 + 3 + 1  # 3 beta coords + tau_v

    def test_all_counts_suppressed_is_one_line_error(self, full_pipeline, tmp_path, capsys):
        work, simulated = full_pipeline
        header, *rows = (work / "counts.csv").read_text().splitlines()
        counts = tmp_path / "counts.csv"
        counts.write_text("\n".join([header] + [
            ",".join([area, "", expected]) for area, _, expected in (r.split(",") for r in rows)
        ]) + "\n")
        for extra in ([], ["--laplace", "--tau-phi", "5", "--tau-v", "5"]):
            code = run([
                "fit-stage2", "--counts", counts,
                "--covariates", work / "covariates.csv",
                "--adjacency", simulated / "adjacency.csv",
                "--model", "M3", "--out", tmp_path / "stage2.csv",
                "--iters", "50", "--burnin", "10", "--thin", "1",
                "--chains", "1", "--seed", "24", *extra,
            ])
            assert code == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1
            assert err.startswith("error: ValidationError: no area carries likelihood")

    def test_malformed_archive_is_one_line_error(self, full_pipeline, tmp_path, capsys):
        work, _ = full_pipeline
        archive = tmp_path / "stage2.csv"
        header, first, *rest = (work / "stage2.csv").read_text().splitlines(keepends=True)
        archive.write_text(header + first.replace("0,", "0,x", 1) + "".join(rest))
        (tmp_path / "stage2.csv.meta").write_bytes((work / "stage2.csv.meta").read_bytes())
        code = run(["diagnose", "--archive", archive])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: SchemaError:")
        assert "stage2.csv:2: expected 5 cells: integer chain, iter and index" in err

    def test_diagnose_morans_i(self, full_pipeline, capsys):
        work, simulated = full_pipeline
        assert run([
            "diagnose", "--morans-i",
            "--input", work / "covariates.csv", "--column", "ice",
            "--adjacency", simulated / "adjacency.csv",
        ]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "variable,morans_i,z_score,p_value"


class TestBadAdjacency:
    @pytest.mark.parametrize("cells, message", [
        ("-1,2,1.0", "area indices must be nonnegative integers, got edge (-1, 2)"),
        ("1,2,nan", "non-finite weight nan on edge (1, 2)"),
    ])
    def test_one_line_validation_error_and_exit_2(self, tmp_path, capsys, cells, message):
        (tmp_path / "x.csv").write_text("area_id,x\n0,1.0\n1,2.5\n2,0.5\n3,4.0\n")
        (tmp_path / "adj.csv").write_text(f"src,dst,weight\n0,1,1.0\n{cells}\n2,3,1.0\n")
        code = run(["diagnose", "--morans-i", "--input", tmp_path / "x.csv",
                    "--column", "x", "--adjacency", tmp_path / "adj.csv"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err == f"error: ValidationError: {message}\n"


class TestDiagnoseGolden:
    def test_diagnose_csv_bytes_on_a_fixed_archive(self, tmp_path):
        # Pinned output of `diagnose` on a seeded archive. The sd of beta[1]
        # is one of the values whose last bit changes when the squared
        # deviations are taken as numpy's exactly rounded array square
        # instead of through libm pow, so the bytes pin that too.
        rng = np.random.default_rng(46)
        config = McmcConfig(n_chains=2, n_iter=120, burn_in=60, thin=1, seed=5)
        chains = []
        for _ in range(2):
            beta = np.cumsum(rng.standard_normal((60, 2)), axis=0) * 0.1 + [1.0, -2.0]
            chains.append({"beta": beta, "tau": np.exp(rng.standard_normal(60))})
        archive = ChainArchive(
            chains, config.retained_iterations(), config, metadata={"model": "fixture"}
        )
        fileio.write_archive(archive, tmp_path / "archive.csv")
        out = tmp_path / "diagnose.csv"
        assert run(["diagnose", "--archive", tmp_path / "archive.csv", "--out", out]) == 0
        assert out.read_bytes() == (
            b"param,index,rhat,ess,mean,sd,q025,median,q975\n"
            b"beta,0,1.2001503459884557,9.04161254075289,1.227195415680452,"
            b"0.27844924294810347,0.7744682223565121,1.1760033775004062,1.7702148546318783\n"
            b"beta,1,2.5254076662521774,9.058584549804529,-2.0502192905829317,"
            b"0.3666653882662238,-2.7662633031209953,-1.9896351274384094,-1.47190188578267\n"
            b"tau,0,1.022401190127211,120.0,1.6616615051806034,"
            b"2.4478424345700556,0.09395956405316434,0.9087271589545387,6.299214691111982\n"
        )


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, simulated, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("iters = 400\nburnin = 100\nthin = 4\nchains = 1\nseed = 5\n")
        prep_dir = tmp_path / "p"
        run([
            "prep", "--outdir", prep_dir,
            "--indicators-raw", simulated / "indicators_raw.csv",
            "--areas", simulated / "areas.csv",
        ])
        out = tmp_path / "s1.csv"
        assert run([
            "--config", conf, "fit-stage1",
            "--indicators", prep_dir / "indicators.csv",
            "--adjacency", simulated / "adjacency.csv",
            "--out", out, "--thin", "2",
        ]) == 0
        archive = fileio.read_archive(out)
        assert archive.config.n_iter == 400  # from config
        assert archive.config.thin == 2      # flag wins
        assert archive.config.n_chains == 1


class TestThreads:
    def _fit(self, full_pipeline, command, out, *extra):
        work, simulated = full_pipeline
        inputs = {
            "fit-stage1": ["--indicators", work / "indicators.csv",
                           "--iters", "200", "--burnin", "50", "--thin", "5"],
            "fit-stage2": ["--counts", work / "counts.csv",
                           "--covariates", work / "covariates.csv", "--model", "M3",
                           "--iters", "300", "--burnin", "100", "--thin", "5"],
        }[command]
        return run([command, *inputs, "--adjacency", simulated / "adjacency.csv",
                    "--out", out, "--seed", "31", *extra])

    def _workers(self, full_pipeline, tmp_path, monkeypatch, *extra, config=None):
        """The worker counts fit-stage1 hands to the fit and to the archive
        write, and the sizes of the pools they start (fit first; stage 1
        archives four parameters, so the write has four blocks per chain)."""
        seen = []
        fit, write = cli.fit_stage1, fileio.write_archive

        def recording_fit(*args, n_workers):
            seen.append(n_workers)
            return fit(*args, n_workers=n_workers)

        def recording_write(archive, path, n_workers):
            seen.append(n_workers)
            write(archive, path, n_workers)

        monkeypatch.setattr(cli, "fit_stage1", recording_fit)
        monkeypatch.setattr(fileio, "write_archive", recording_write)
        sizes = recording_pool(monkeypatch)
        work, simulated = full_pipeline
        top = ["--config", config] if config else []
        assert run([*top, "fit-stage1", "--indicators", work / "indicators.csv",
                    "--adjacency", simulated / "adjacency.csv", "--out", tmp_path / "w.csv",
                    "--iters", "60", "--burnin", "20", "--thin", "4", *extra]) == 0
        return seen, sizes

    @pytest.mark.parametrize("command", ["fit-stage1", "fit-stage2"])
    def test_worker_count_does_not_change_the_outputs(self, full_pipeline, tmp_path, command):
        for threads in ("1", "2"):
            assert self._fit(full_pipeline, command, tmp_path / f"t{threads}.csv",
                             "--chains", "3", "--threads", threads) == 0
        for suffix in ("", ".meta", ".npy"):
            parallel = (tmp_path / f"t2.csv{suffix}").read_bytes()
            assert parallel == (tmp_path / f"t1.csv{suffix}").read_bytes()

    @pytest.mark.parametrize("cpus, chains, expected",
                             [(1, 2, 1), (2, 2, 2), (4, 3, 3), (8, 1, 1)])
    def test_default_is_one_worker_per_chain_up_to_the_cpus(
        self, full_pipeline, tmp_path, monkeypatch, cpus, chains, expected
    ):
        # without --threads the fit runs one worker per chain and the write
        # one per archive block, each up to the CPUs; one worker starts no pool
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        seen, sizes = self._workers(full_pipeline, tmp_path, monkeypatch, "--chains", str(chains))
        assert seen == [None, None]
        assert sizes == [n for n in (expected, min(4 * chains, cpus)) if n > 1]

    def test_cpu_count_where_affinity_is_unknown(self, full_pipeline, tmp_path, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert self._workers(full_pipeline, tmp_path, monkeypatch) == ([None, None], [])
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert self._workers(full_pipeline, tmp_path, monkeypatch, "--chains", "3") == (
            [None, None], [3, 8])

    def test_flag_and_config_win(self, full_pipeline, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        assert self._workers(full_pipeline, tmp_path, monkeypatch, "--threads", "1") == (
            [1, 1], [])
        conf = tmp_path / "run.conf"
        conf.write_text("threads = 5\n")
        assert self._workers(full_pipeline, tmp_path, monkeypatch, config=conf) == (
            [5, 5], [2, 5])

    @pytest.mark.parametrize("command, threads",
                             [("fit-stage1", "0"), ("fit-stage1", "-2"), ("fit-stage2", "0")])
    def test_threads_below_one_is_one_line_error(
        self, full_pipeline, tmp_path, capsys, command, threads
    ):
        capsys.readouterr()
        assert self._fit(full_pipeline, command, tmp_path / "x.csv", "--threads", threads) == 2
        err = capsys.readouterr().err
        assert err == f"error: ValidationError: --threads must be at least 1, got {threads}\n"
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("command", ["fit-stage1", "fit-stage2"])
    def test_negative_seed_is_one_line_error(self, full_pipeline, tmp_path, capsys, command):
        capsys.readouterr()
        assert self._fit(full_pipeline, command, tmp_path / "x.csv", "--seed", "-1") == 2
        err = capsys.readouterr().err
        assert err == "error: ValidationError: seed must be a non-negative integer, got -1\n"
        assert not (tmp_path / "x.csv").exists()
