"""Batch front-end wiring the pipeline end to end.

Subcommands: simulate, prep, fit-stage1, fit-stage2, diagnose, summarize.
A plain-text ``key = value`` config file (``--config``) supplies defaults
for any long flag; explicit flags win. Outputs are written atomically;
the exit code is 0 on success and nonzero with a one-line
``error: <kind>: <message>`` on stderr otherwise. The same config and
seed always produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import itertools
import sys

import numpy as np

from . import fileio, icar, prep, simulate, svc
from .errors import DimensionMismatchError, SchemaError, ValidationError
from .factor import FactorModelSpec, fit_stage1, summarize_loadings, factor_quintiles, factor_exceedance
from .graph import build_graph, morans_i, subgraph
from .mcmc import McmcConfig, check_seed, effective_sample_size, gelman_rubin, posterior_summary
from .svc import SvcModelSpec

DEFAULT_LOADINGS = "1,1.2,-0.8,1.5,0.5"
DEFAULT_NOISE = "0.25,0.25,0.25,0.25,0.25"


def _add_mcmc_flags(parser):
    parser.add_argument("--iters", type=int, default=2000, help="iterations per chain")
    parser.add_argument("--burnin", type=int, default=500)
    parser.add_argument("--thin", type=int, default=5)
    parser.add_argument("--chains", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--threads", type=int, default=None,
                        help="worker processes for the chains and the archive write "
                             "(default: one per chain or archive block, up to the usable CPUs)")


def _mcmc_config(args) -> McmcConfig:
    return McmcConfig(
        n_chains=args.chains,
        n_iter=args.iters,
        burn_in=args.burnin,
        thin=args.thin,
        seed=args.seed,
    )


def _n_workers(args) -> int | None:
    """``--threads``, checked; None leaves the count to each pool's default."""
    if args.threads is not None and args.threads < 1:
        raise ValidationError(f"--threads must be at least 1, got {args.threads}")
    return args.threads


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arealbayes",
        description="Two-stage Bayesian spatial modelling on areal graphs",
    )
    parser.add_argument("--config", help="key = value file of flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic lattice dataset")
    p.add_argument("--outdir", required=True)
    p.add_argument("--rows", type=int, default=10)
    p.add_argument("--cols", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--model", choices=svc.RUNGS, default="M4",
                   help="generative rung for the count data")
    p.add_argument("--loadings", default=DEFAULT_LOADINGS)
    p.add_argument("--noise-variances", default=DEFAULT_NOISE)
    p.add_argument("--missing-rate", type=float, default=0.03)
    p.add_argument("--suppressed", type=int, default=0)
    p.add_argument("--beta0", type=float, default=0.0)
    p.add_argument("--beta1", type=float, default=-0.8)
    p.add_argument("--factor-effect", type=float, default=0.4)

    p = sub.add_parser("prep", help="standardize, impute, ICE, expected counts")
    p.add_argument("--outdir", required=True)
    p.add_argument("--indicators-raw")
    p.add_argument("--areas")
    p.add_argument("--extremes", help="CSV area_id,privileged,deprived,total")
    p.add_argument("--strata")
    p.add_argument("--rates")
    p.add_argument("--impute-stat", choices=("mean", "median"), default="mean")
    p.add_argument("--factor-scores", action="append", default=[],
                   help="factor score CSV to merge into covariates.csv (repeatable)")

    p = sub.add_parser("fit-stage1", help="fit the spatial latent factor model")
    p.add_argument("--indicators", required=True)
    p.add_argument("--adjacency", required=True)
    p.add_argument("--areas")
    p.add_argument("--out", required=True)
    p.add_argument("--anchor", type=int, default=0)
    _add_mcmc_flags(p)

    p = sub.add_parser("fit-stage2", help="fit a Poisson SVC model rung")
    p.add_argument("--counts", required=True)
    p.add_argument("--covariates", required=True)
    p.add_argument("--adjacency", required=True)
    p.add_argument("--model", choices=svc.RUNGS, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--exclude-factor", action="append", default=[])
    p.add_argument("--include-all-factors", action="store_true",
                   help="keep factors that the collinearity default would drop")
    p.add_argument("--missing-covariate", choices=("error", "impute", "drop"),
                   default="error")
    p.add_argument("--diffuse-precision-prior", action="store_true",
                   help="Gamma(1, 0.0005) instead of Gamma(1, 0.5) on precisions")
    p.add_argument("--laplace", action="store_true",
                   help="Laplace mode at fixed precisions instead of MCMC")
    for name in svc.PRECISION_NAMES:
        p.add_argument(f"--{name.replace('_', '-')}", type=float,
                       help="fixed precision for --laplace (default 2)")
    p.add_argument("--tau-grid", help="comma list; empirical-Bayes grid for --laplace")
    _add_mcmc_flags(p)

    p = sub.add_parser("diagnose", help="convergence diagnostics or Moran's I")
    p.add_argument("--archive")
    p.add_argument("--params", help="comma list; default all")
    p.add_argument("--morans-i", action="store_true")
    p.add_argument("--input", help="CSV with area_id column (for --morans-i)")
    p.add_argument("--column", help="column of --input to test")
    p.add_argument("--adjacency")
    p.add_argument("--out")

    p = sub.add_parser("summarize", help="posterior summaries to CSV")
    p.add_argument("--archive", required=True)
    p.add_argument(
        "--what",
        required=True,
        choices=(
            "loadings", "factor-scores", "quintiles", "exceedance",
            "fixed-effects", "hyperparameters", "relative-risk",
            "risk-exceedance", "delta",
        ),
    )
    p.add_argument("--out", required=True)
    p.add_argument("--areas")
    p.add_argument("--names", help="comma list of indicator names for loadings")
    p.add_argument("--factor-name", default="factor1")
    p.add_argument("--draw", type=int, default=None,
                   help="propagate this retained draw instead of the posterior mean "
                        "(factor-scores only; sensitivity analyses)")
    p.add_argument("--percentile", type=float, default=0.80)
    p.add_argument("--thresholds", default="1.25,1.5,2.0")
    p.add_argument("--counts")
    p.add_argument("--covariates")
    p.add_argument("--adjacency")
    p.add_argument("--model", choices=svc.RUNGS)
    p.add_argument("--exclude-factor", action="append", default=[])
    p.add_argument("--include-all-factors", action="store_true")
    return parser


def _floats(text: str) -> np.ndarray:
    return np.array([float(tok) for tok in text.split(",") if tok.strip()])


def _check_ids(ids_a, ids_b, file_a, file_b):
    if list(ids_a) != list(ids_b):
        raise DimensionMismatchError(
            f"area ids disagree between {file_a} ({len(ids_a)} rows) and "
            f"{file_b} ({len(ids_b)} rows)"
        )


def _load_graph(adjacency_path, n_areas):
    edges = fileio.read_adjacency(adjacency_path)
    return build_graph(edges, n_areas=n_areas)


# ---------------------------------------------------------------------------


def _cmd_simulate(args) -> int:
    from pathlib import Path

    check_seed(args.seed)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    graph = simulate.make_lattice(args.rows, args.cols)
    n = graph.n_areas
    loadings = _floats(args.loadings)
    noise = _floats(args.noise_variances)
    rng = np.random.default_rng(np.random.SeedSequence([args.seed, 11]))

    area_ids = [str(i) for i in range(n)]
    names = [f"cell_{i // args.cols}_{i % args.cols}" for i in range(n)]
    band = max(args.rows // 5, 1)
    groups = [f"state{(i // args.cols) // band}" for i in range(n)]
    fileio.write_adjacency(outdir / "adjacency.csv", graph)
    fileio.write_areas(outdir / "areas.csv", area_ids, names, groups)

    panel, eta_true = simulate.simulate_stage1(
        graph, loadings, noise, seed=args.seed
    )
    raw = panel.values.copy()
    scales = 2.0 + np.arange(panel.n_indicators)
    offsets = 10.0 * (1.0 + np.arange(panel.n_indicators))
    raw = offsets[None, :] + scales[None, :] * raw
    holes = rng.random(raw.shape) < args.missing_rate
    for col in range(raw.shape[1]):  # never blank out a whole column
        if holes[:, col].sum() >= n - 2:
            holes[2:, col] = False
    raw[holes] = np.nan
    raw_panel = prep.IndicatorPanel(area_ids, panel.columns, raw, groups=groups)
    fileio.write_indicators(outdir / "indicators_raw.csv", raw_panel)

    # smooth segregation covariate in (-1, 1) and its extreme counts
    ice_field = simulate.sample_icar(graph, 1.0, rng)
    ice_true = 0.8 * np.tanh(ice_field / 2.0)
    total = np.full(n, 1000.0)
    privileged = total * (1.0 + ice_true) / 2.0
    deprived = total * (1.0 - ice_true) / 2.0
    fileio.write_table(
        outdir / "extremes.csv",
        ("area_id", "privileged", "deprived", "total"),
        zip(area_ids, privileged, deprived, total),
    )
    ice = prep.compute_ice(privileged, deprived, total)

    # two-stratum populations and reference rates
    pop = np.column_stack(
        [
            np.round(rng.uniform(300, 700, size=n)),
            np.round(rng.uniform(200, 500, size=n)),
        ]
    )
    rates = np.array([0.012, 0.03])
    strata_labels = ["age_0_64", "age_65_74"]
    fileio.write_rates(outdir / "rates.csv", strata_labels, rates)

    # stage-2 truth at the requested rung
    factors = eta_true[:, None]
    theta = args.beta0 + args.beta1 * ice
    delta_true = np.zeros(n)
    v_true = np.zeros(n)
    phi_true = np.zeros(n)
    if args.model in ("M2", "M3", "M4"):
        theta = theta + args.factor_effect * eta_true
    if args.model in ("M3", "M4"):
        v_true = simulate.sample_icar(graph, 0.1, rng)
        phi_true = rng.standard_normal(n) * np.sqrt(0.05)
        theta = theta + v_true + phi_true
    if args.model == "M4":
        delta_true = simulate.sample_icar(graph, 0.09, rng)
        theta = theta + ice * delta_true

    mu = np.exp(theta)
    deaths = rng.poisson(mu[:, None] * pop * rates[None, :]).astype(float)
    if args.suppressed:
        hide = rng.choice(n, size=args.suppressed, replace=False)
        deaths[hide, :] = np.nan
    table = prep.StrataTable(area_ids, strata_labels, pop, deaths)
    fileio.write_strata(outdir / "strata.csv", table)

    fileio.write_table(
        outdir / "truth.csv",
        ("area_id", "eta", "ice", "v", "phi", "delta", "log_mu"),
        zip(area_ids, eta_true, ice, v_true, phi_true, delta_true, theta),
    )
    print(f"simulated {args.rows}x{args.cols} lattice ({args.model}) into {outdir}")
    return 0


def _cmd_prep(args) -> int:
    from pathlib import Path

    if args.factor_scores and not args.extremes:
        raise ValidationError("--factor-scores needs --extremes, whose area ids the scores join")
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    area_ids = None
    groups = None
    if args.areas:
        area_ids, _, groups = fileio.read_areas(args.areas)

    if args.indicators_raw:
        panel = fileio.read_indicators(args.indicators_raw)
        if area_ids is not None:
            _check_ids(panel.area_ids, area_ids, args.indicators_raw, args.areas)
            panel.groups = groups
        panel = prep.standardize(panel)
        if panel.groups is not None:
            panel = prep.impute_by_group(panel, stat=args.impute_stat)
        fileio.write_indicators(outdir / "indicators.csv", panel)
        print(f"wrote {outdir / 'indicators.csv'}")

    if args.strata:
        table = fileio.read_strata(args.strata)
        rates = None
        if args.rates:
            rate_strata, rates = fileio.read_rates(args.rates)
            if rate_strata != table.strata:
                raise DimensionMismatchError(
                    f"strata disagree between {args.strata} and {args.rates}"
                )
        expected = prep.expected_counts(table, rates)
        if table.deaths is None:
            raise ValidationError(
                f"{args.strata} has no deaths column; cannot build counts.csv"
            )
        observed = table.deaths.sum(axis=1)
        fileio.write_counts(outdir / "counts.csv", table.area_ids, observed, expected)
        print(f"wrote {outdir / 'counts.csv'}")

    if args.extremes:
        ice_ids, privileged, deprived, total = fileio.read_extremes(args.extremes)
        ice = prep.compute_ice(privileged, deprived, total)
        factors, factor_names = [], []
        for path in args.factor_scores:
            ids, scores, name = fileio.read_scores(path)
            _check_ids(ids, ice_ids, path, args.extremes)
            factors.append(scores)
            factor_names.append(name)
        fileio.write_covariates(outdir / "covariates.csv", ice_ids, ice,
                                np.column_stack(factors) if factors else None, factor_names)
        print(f"wrote {outdir / 'covariates.csv'}")
    return 0


def _cmd_fit_stage1(args) -> int:
    panel = fileio.read_indicators(args.indicators)
    if args.areas:
        ids, _, groups = fileio.read_areas(args.areas)
        _check_ids(panel.area_ids, ids, args.indicators, args.areas)
        panel.groups = groups
    graph = _load_graph(args.adjacency, panel.n_areas)
    spec = FactorModelSpec(n_indicators=panel.n_indicators, anchor_index=args.anchor)
    config, n_workers = _mcmc_config(args), _n_workers(args)
    archive = fit_stage1(panel, graph, spec, config, n_workers=n_workers)
    archive.metadata["indicator_names"] = ";".join(panel.columns)
    fileio.write_archive(archive, args.out, n_workers)
    print(
        f"stage 1 fit: {archive.n_chains} chains x {archive.n_retained} retained "
        f"draws -> {args.out}"
    )
    return 0


def _apply_factor_exclusions(factors, factor_names, args):
    """Collinearity default: drop social & economic style factors unless told not to."""
    drop = {name.lower() for name in args.exclude_factor}
    if not args.include_all_factors:
        for name in factor_names:
            low = name.lower()
            if "social" in low and "econ" in low:
                drop.add(low)
    keep = [k for k, name in enumerate(factor_names) if name.lower() not in drop]
    return factors[:, keep], [factor_names[k] for k in keep]


def _load_stage2_inputs(args, policy, precision_prior_rate=0.5):
    """The stage-2 inputs, areas missing a covariate handled by ``policy``,
    and the policy if some area was, else None."""
    count_ids, observed, expected = fileio.read_counts(args.counts)
    cov_ids, ice, factors, factor_names = fileio.read_covariates(args.covariates)
    _check_ids(count_ids, cov_ids, args.counts, args.covariates)
    factors, factor_names = _apply_factor_exclusions(factors, factor_names, args)
    graph = _load_graph(args.adjacency, len(count_ids))

    missing = ~np.isfinite(ice)
    if factors.size:
        missing |= ~np.isfinite(factors).all(axis=1)
    if missing.any():
        if policy == "error":
            raise ValidationError(
                f"{int(missing.sum())} area(s) have missing covariates; fit-stage2 "
                "handles them with --missing-covariate impute or drop"
            )
        if policy == "impute":
            ice = np.where(missing & ~np.isfinite(ice), np.nanmean(ice), ice)
            if factors.size:
                col_means = np.nanmean(factors, axis=0)
                bad = ~np.isfinite(factors)
                factors[bad] = np.broadcast_to(col_means, factors.shape)[bad]
        else:  # drop
            keep = ~missing
            graph, original = subgraph(graph, keep)
            count_ids = [count_ids[i] for i in original]
            observed = observed[original]
            expected = expected[original]
            ice = ice[original]
            factors = factors[original]
    spec = SvcModelSpec(
        rung=args.model,
        covariate=ice,
        offsets=expected,
        latent_factors=factors if args.model != "M1" and factors.size else (
            np.zeros((len(count_ids), 0)) if args.model != "M1" else None
        ),
        precision_prior_rate=precision_prior_rate,
    )
    return spec, observed, graph, count_ids, factor_names, policy if missing.any() else None


def _cmd_fit_stage2(args) -> int:
    flags = [name for name in (*svc.PRECISION_NAMES, "tau_grid") if getattr(args, name) is not None]
    if flags and not args.laplace:
        named = ", ".join("--" + name.replace("_", "-") for name in flags)
        raise ValidationError(f"{named} need --laplace; MCMC samples the precisions")
    precisions = {name: getattr(args, name) for name in flags if name != "tau_grid"}
    if args.tau_grid is not None:
        if precisions:
            named = ", ".join("--" + name.replace("_", "-") for name in precisions)
            raise ValidationError(f"--tau-grid sets every precision; drop {named}")
        try:
            values = [float(v) for v in args.tau_grid.split(",")]
        except ValueError:
            raise ValidationError(
                f"--tau-grid must be a comma list of numbers, got {args.tau_grid!r}"
            ) from None
    spec, observed, graph, count_ids, factor_names, applied = _load_stage2_inputs(
        args, args.missing_covariate, 0.0005 if args.diffuse_precision_prior else 0.5)
    if args.laplace:
        if args.tau_grid is not None:
            if not spec.has_convolution:
                raise ValidationError(
                    f"--tau-grid needs a rung with precisions; {spec.rung} has none"
                )
            active = ["tau_phi", "tau_v"] + (["tau_delta"] if spec.has_svc else [])
            grid = [
                dict(zip(active, point))
                for point in itertools.product(values, repeat=len(active))
            ]
            fit, table = svc.laplace_precision_grid(spec, observed, graph, grid)
            print(f"empirical Bayes selected {table[int(np.argmax([t[1] for t in table]))][0]}")
        else:
            fit = svc.fit_stage2_laplace(spec, observed, graph, precisions)
        names = ["intercept", "ice"] + factor_names
        fileio.write_table(
            args.out,
            ("term", "estimate", "sd"),
            zip(names, fit.state.beta, fit.beta_sd),
        )
        print(
            f"laplace mode ({spec.rung}) gradient max-norm {fit.gradient_norm:.2e} "
            f"-> {args.out}"
        )
        return 0
    config, n_workers = _mcmc_config(args), _n_workers(args)
    archive = svc.fit_stage2_mcmc(spec, observed, graph, config, n_workers=n_workers)
    archive.metadata["factor_names"] = ";".join(factor_names)
    if applied is not None:
        archive.metadata["missing_covariate"] = applied
    fileio.write_archive(archive, args.out, n_workers)
    print(
        f"stage 2 fit ({spec.rung}): {archive.n_chains} chains x "
        f"{archive.n_retained} retained draws -> {args.out}"
    )
    return 0


def _cmd_diagnose(args) -> int:
    rows = []
    if args.morans_i:
        if not (args.input and args.column and args.adjacency):
            raise ValidationError("--morans-i needs --input, --column and --adjacency")
        _, x = fileio.read_column(args.input, args.column)
        graph = _load_graph(args.adjacency, len(x))
        res = morans_i(graph, x)
        rows.append((args.column, res.statistic, res.z_score, res.p_value))
        header_out = ("variable", "morans_i", "z_score", "p_value")
    else:
        if not args.archive:
            raise ValidationError("diagnose needs --archive or --morans-i")
        archive = fileio.read_archive(args.archive)
        params = args.params.split(",") if args.params else archive.param_names
        header_out = ("param", "index", "rhat", "ess", "mean", "sd", "q025", "median", "q975")
        for name in params:
            shape = archive.shape(name)
            width = shape[0] if shape else 1
            for idx in range(width):
                index = idx if shape else None
                summ = posterior_summary(archive, name, index)
                rhat = (
                    gelman_rubin(archive, name, index)
                    if archive.n_chains >= 2
                    else float("nan")
                )
                ess = effective_sample_size(archive, name, index)
                rows.append(
                    (name, idx, rhat, ess, summ.mean, summ.sd, summ.q025, summ.median, summ.q975)
                )
    if args.out:
        fileio.write_table(args.out, header_out, rows)
        print(f"wrote {args.out}")
    else:
        print(",".join(header_out))
        for row in rows:
            print(",".join(fileio.format_cell(c) for c in row))
    return 0


def _cmd_summarize(args) -> int:
    archive = fileio.read_archive(args.archive)
    what = args.what
    area_ids = None
    if args.areas:
        area_ids, _, _ = fileio.read_areas(args.areas)

    def ids(n):
        if area_ids is not None:
            if len(area_ids) != n:
                raise DimensionMismatchError(
                    f"{args.areas} has {len(area_ids)} areas, archive has {n}"
                )
            return area_ids
        return [str(i) for i in range(n)]

    if what == "loadings":
        names = (
            args.names.split(",")
            if args.names
            else archive.metadata.get("indicator_names", "").split(";") or None
        )
        if names and len(names) != archive.shape("lambda")[0]:
            names = None
        rows = [
            (r.indicator, r.mean, r.lower, r.upper, int(r.anchored))
            for r in summarize_loadings(archive, names)
        ]
        fileio.write_table(args.out, ("indicator", "mean", "q025", "q975", "anchored"), rows)
    elif what == "factor-scores":
        draws = archive.get("eta")
        if args.draw is not None:
            if not 0 <= args.draw < draws.shape[0]:
                raise ValidationError(
                    f"--draw {args.draw} out of range (archive has {draws.shape[0]} draws)"
                )
            scores = draws[args.draw]
        else:
            scores = draws.mean(axis=0)
        fileio.write_table(
            args.out, ("area_id", args.factor_name), zip(ids(len(scores)), scores)
        )
    elif what == "quintiles":
        means, quintiles = factor_quintiles(archive)
        fileio.write_table(
            args.out,
            ("area_id", "score", "quintile"),
            zip(ids(len(means)), means, quintiles),
        )
    elif what == "exceedance":
        probs = factor_exceedance(archive, percentile=args.percentile)
        fileio.write_table(
            args.out, ("area_id", "exceedance_prob"), zip(ids(len(probs)), probs)
        )
    else:
        if not (args.counts and args.covariates and args.model and args.adjacency):
            raise ValidationError(
                f"--what {what} needs --counts, --covariates, --adjacency and --model"
            )
        # the fit's missing-covariate policy, as fit-stage2 recorded it
        policy = archive.metadata.get("missing_covariate", "error")
        spec, observed, graph, count_ids, factor_names, _ = _load_stage2_inputs(args, policy)
        spec.check_draws(archive)
        if what == "fixed-effects":
            names = ["intercept", "ice"] + factor_names[:spec.n_factors]
            rows = []
            for k, name in enumerate(names):
                summ = posterior_summary(archive, "beta", k)
                rr = svc.rate_ratio(archive.get("beta", k))
                rows.append(
                    (name, summ.mean, summ.sd, summ.q025, summ.q975,
                     rr.point, rr.lower, rr.upper)
                )
            fileio.write_table(
                args.out,
                ("term", "mean", "sd", "q025", "q975", "rate_ratio", "rr_q025", "rr_q975"),
                rows,
            )
        elif what == "hyperparameters":
            names = [name for name in archive.param_names if name.startswith("tau")]
            if not names:
                raise ValidationError(
                    f"rung {spec.rung} samples no precisions; --what hyperparameters "
                    "needs an M3 or M4 archive")
            rows = []
            for name in names:
                s = svc.precision_summary(archive, name)
                rows.append((name, s["mean"], s["mode"], s["lower"], s["upper"]))
            fileio.write_table(
                args.out, ("param", "mean", "mode", "q025", "q975"), rows
            )
        elif what == "relative-risk":
            mean, lo, hi = svc.relative_risk_summary(archive, spec)
            fileio.write_table(
                args.out,
                ("area_id", "rr_mean", "rr_q025", "rr_q975"),
                zip(count_ids, mean, lo, hi),
            )
        elif what == "risk-exceedance":
            thresholds = tuple(float(t) for t in args.thresholds.split(","))
            probs = svc.risk_exceedance(archive, spec, thresholds)
            header = ["area_id"] + [f"p_rr_gt_{t}" for t in thresholds]
            rows = (
                [count_ids[i]] + list(probs[i]) for i in range(len(count_ids))
            )
            fileio.write_table(args.out, header, rows)
        elif what == "delta":
            draws = archive.get("delta")
            lo, hi = np.quantile(draws, [0.025, 0.975], axis=0)
            fileio.write_table(
                args.out,
                ("area_id", "delta_mean", "delta_q025", "delta_q975"),
                zip(count_ids, draws.mean(axis=0), lo, hi),
            )
    print(f"wrote {args.out}")
    return 0


COMMANDS = {
    "simulate": _cmd_simulate,
    "prep": _cmd_prep,
    "fit-stage1": _cmd_fit_stage1,
    "fit-stage2": _cmd_fit_stage2,
    "diagnose": _cmd_diagnose,
    "summarize": _cmd_summarize,
}


def main(argv=None) -> int:
    parser = _build_parser()
    # two-pass parse so --config can supply defaults that flags override
    probe, _ = parser.parse_known_args(argv)
    if probe.config:
        defaults = fileio.read_config(probe.config)
        converted = {}
        for key, value in defaults.items():
            converted[key.replace("-", "_")] = value
        for sub_action in parser._subparsers._group_actions:
            for sub in sub_action.choices.values():
                known = {a.dest for a in sub._actions}
                sub.set_defaults(**{k: _coerce(sub, k, v) for k, v in converted.items() if k in known})
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (ValidationError, SchemaError, DimensionMismatchError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: RuntimeError: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: OSError: {exc}", file=sys.stderr)
        return 4


def _coerce(subparser, dest, value):
    for action in subparser._actions:
        if action.dest == dest and action.type is not None:
            return action.type(value)
        if action.dest == dest and isinstance(action.const, bool):
            return value.lower() in ("1", "true", "yes")
    return value


if __name__ == "__main__":
    sys.exit(main())
