"""The three benchmark workloads.

A workload has a ``setup(seed, workdir)`` that generates its inputs,
builds the graph and the model specs, and a ``round()`` that runs a fixed
list of operations through the package's public functions (or its CLI)
and checks every output. Each fit, grid, test statistic and CLI step is one
operation; it fails if it raises, exits non-zero or fails its check.

The package is reached through module attributes (``svc.fit_stage2_mcmc``
and so on) at call time, so the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import math
import statistics
import time
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

import gen
import oracles
from arealbayes import cli, factor, graph, mcmc, prep, svc


class Op(NamedTuple):
    name: str
    seconds: float
    failures: list


class Round(NamedTuple):
    ops: list
    ess_per_s: float
    pipeline_s: float
    layer: dict  # ESS figures the trace report cannot take from spans


def attempt(ops: list, name: str, fn: Callable, *args, check=None, **kwargs):
    """Run one timed operation, then its check; record it in ``ops``.

    Returns the operation's output, or None when it raised.
    """
    start = time.perf_counter()
    try:
        out = fn(*args, **kwargs)
    except Exception as exc:  # the benchmark records the failure and goes on
        ops.append(Op(name, time.perf_counter() - start, [f"{type(exc).__name__}: {exc}"]))
        return None
    elapsed = time.perf_counter() - start
    try:
        failures = check(out) if check is not None else []
    except Exception as exc:  # an output the check cannot even read is wrong
        failures = [f"check raised {type(exc).__name__}: {exc}"]
    ops.append(Op(name, elapsed, failures))
    return out


def skipped(ops: list, name: str, reason: str) -> None:
    ops.append(Op(name, 0.0, [f"not run: {reason}"]))


def close(a, b, rtol: float, atol: float = 0.0) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= atol + rtol * np.abs(b)))


def stage1_scalars(per_param: dict, anchor: int = 0) -> dict[str, list[np.ndarray]]:
    """Free stage-1 scalars (loadings except the anchor, intercepts, noise
    variances) as per-chain series; ``per_param[name]`` holds per-chain
    (draws, width) arrays."""
    out = {}
    for name in ("lambda", "alpha", "sigma2"):
        width = per_param[name][0].shape[1]
        for k in range(width):
            if name == "lambda" and k == anchor:
                continue
            out[f"{name}[{k}]"] = [c[:, k] for c in per_param[name]]
    return out


def stage2_scalars(per_param: dict) -> dict[str, list[np.ndarray]]:
    """Stage-2 scalars: beta components and the precisions."""
    out = {f"beta[{k}]": [c[:, k] for c in per_param["beta"]]
           for k in range(per_param["beta"][0].shape[1])}
    for name in ("tau_phi", "tau_v", "tau_delta"):
        if name in per_param:
            out[name] = [np.ravel(c) for c in per_param[name]]
    return out


def field_ess_min(per_param: dict) -> float:
    """Worst ESS over every component of the v, phi and delta fields."""
    worst = math.inf
    for name in ("v", "phi", "delta"):
        if name in per_param:
            chains = per_param[name]
            for k in range(chains[0].shape[1]):
                worst = min(worst, oracles.ess_geyer([c[:, k] for c in chains]))
    return worst


def zero_sum_failures(name: str, draws: np.ndarray, labels: np.ndarray) -> list[str]:
    """Every multi-area component of every draw must sum to zero."""
    sizes = np.bincount(labels)
    worst = 0.0
    for c in np.flatnonzero(sizes > 1):
        sums = draws[:, labels == c].sum(axis=1)
        worst = max(worst, float(np.abs(sums).max()) / sizes[c])
    if worst > 1e-9:
        return [f"{name} draws do not sum to zero per component (worst mean {worst:.3e})"]
    return []


def retained(flags) -> int:
    """Retained draws over all chains for a CLI fit's MCMC flags."""
    f = dict(zip(flags[::2], map(int, flags[1::2])))
    return f["--chains"] * ((f["--iters"] - f["--burnin"]) // f["--thin"])


def criterion_failures(name: str, got: float, expected: float) -> list[str]:
    return [] if close(got, expected, 1e-9) else [f"{name} {got!r} != oracle {expected!r}"]


# ---------------------------------------------------------------------------


class M4Lattice:
    """Stage-2 M4 MCMC on a 15x15 rook lattice, then DIC and WAIC, once
    for each of a fixed set of chain seeds."""

    name = "m4-lattice"
    known_faults: frozenset = frozenset()
    CONFIG = dict(n_chains=2, n_iter=2500, burn_in=1000, thin=3)
    # constant, with the data: the ESS is summed over these fits
    CHAIN_SEEDS = (602, 603, 604)

    def setup(self, seed: int, workdir: Path) -> None:
        d = gen.m4_inputs()
        self.d = d
        self.graph = graph.build_graph(d["edges"], n_areas=d["n"])
        self.spec = svc.SvcModelSpec(
            rung="M4", covariate=d["x"], offsets=d["offsets"],
            latent_factors=d["factor"][:, None],
        )
        self.configs = [mcmc.McmcConfig(seed=s, **self.CONFIG) for s in self.CHAIN_SEEDS]
        self.X = np.column_stack([np.ones(d["n"]), d["x"], d["factor"]])
        self.labels = np.zeros(d["n"], dtype=int)

    def check_fit(self, archive) -> list[str]:
        d, failures = self.d, []
        beta = archive.get("beta")
        lo, hi = np.quantile(beta, [0.025, 0.975], axis=0)
        for k, b in enumerate(d["beta"]):
            if not lo[k] <= b <= hi[k]:
                failures.append(f"beta[{k}] 95% interval [{lo[k]:.3f}, {hi[k]:.3f}] misses {b}")
        r = np.corrcoef(archive.get("delta").mean(axis=0), d["delta"])[0, 1]
        if not r >= 0.7:
            failures.append(f"corr(delta_hat, delta) = {r:.3f} < 0.7")
        failures += zero_sum_failures("v", archive.get("v"), self.labels)
        failures += zero_sum_failures("delta", archive.get("delta"), self.labels)
        return failures

    def fit_and_criteria(self, ops: list, config) -> tuple[float, float, float, dict]:
        """One fit, then DIC and WAIC; returns the fit's worst-scalar ESS,
        its seconds, the seconds of all three operations and the ESS
        figures of the traced report."""
        d, first = self.d, len(ops)
        archive = attempt(ops, "fit_stage2_mcmc", svc.fit_stage2_mcmc, self.spec,
                          d["counts"], self.graph, config, check=self.check_fit)
        if archive is None:
            skipped(ops, "compute_dic", "fit failed")
            skipped(ops, "compute_waic", "fit failed")
            return 0.0, ops[first].seconds, ops[first].seconds, {}
        theta = (archive.get("beta") @ self.X.T + archive.get("phi") + archive.get("v")
                 + archive.get("delta") * d["x"][None, :])
        dic, waic = oracles.poisson_dic_waic(theta, d["counts"], d["offsets"])
        for name, fn, expected in (("compute_dic", svc.compute_dic, dic),
                                   ("compute_waic", svc.compute_waic, waic)):
            attempt(ops, name, fn, archive, self.spec, d["counts"],
                    check=lambda got, nm=name, e=expected: criterion_failures(nm, got, e))
        per_param = {p: archive.per_chain(p) for p in archive.param_names}
        ess = oracles.min_ess(stage2_scalars(per_param))
        return (ess, ops[first].seconds, sum(op.seconds for op in ops[first:]),
                {"svc.ess_min": ess, "svc.field_ess_min": field_ess_min(per_param)})

    def round(self) -> Round:
        ops = []
        fits = [self.fit_and_criteria(ops, c) for c in self.configs]
        ess, fit_s, _, _ = zip(*fits)
        layer = {key: statistics.fmean(f[3].get(key, 0.0) for f in fits)
                 for key in ("svc.ess_min", "svc.field_ess_min")}
        return Round(ops, sum(ess) / sum(fit_s), sum(f[2] for f in fits), layer)


# ---------------------------------------------------------------------------


class CountyMap:
    """build_graph, stage-1 fit, Moran's I and an M3 empirical-Bayes grid
    on an irregular ~900-area map with components, islands, missing cells
    and suppressed counts; plus the island-policy probe on fixed inputs."""

    name = "county-map"
    # Fails on every run today: per-component centering pins island eta to 0.
    known_faults = frozenset({"island_policy"})
    CONFIG = dict(n_chains=2, n_iter=1500, burn_in=300, thin=1)
    # constant, with the map and panel: the ESS is summed over these fits
    CHAIN_SEEDS = (901, 902, 903, 904)
    GRID = ({"tau_phi": 10.0, "tau_v": 5.0}, {"tau_phi": 40.0, "tau_v": 20.0})
    PROBE_CONFIG = dict(n_chains=2, n_iter=3000, burn_in=500, thin=1, seed=4243)

    def setup(self, seed: int, workdir: Path) -> None:
        d = gen.county_inputs(seed)
        self.d = d
        n = d["n"]
        self.graph = graph.build_graph(d["edges"], n_areas=n)
        ids = [str(i) for i in range(n)]
        cols = [f"ind{k + 1}" for k in range(d["values"].shape[1])]
        self.panel = prep.IndicatorPanel(ids, cols, d["values"])
        self.spec1 = factor.FactorModelSpec(n_indicators=len(cols))
        self.configs = [mcmc.McmcConfig(seed=s, **self.CONFIG) for s in self.CHAIN_SEEDS]
        self.islands = np.bincount(d["labels"])[d["labels"]] == 1

        p = gen.island_probe_inputs()
        self.probe = p
        self.probe_graph = graph.build_graph(p["edges"], n_areas=p["n"])
        self.probe_panel = prep.IndicatorPanel(
            [str(i) for i in range(p["n"])], ["a", "b", "c"], p["values"])
        self.probe_spec = factor.FactorModelSpec(n_indicators=3)
        self.probe_config = mcmc.McmcConfig(**self.PROBE_CONFIG)

    def check_stage1(self, archive) -> list[str]:
        d, keep = self.d, ~self.islands
        eta = archive.get("eta")
        r = np.corrcoef(eta.mean(axis=0)[keep], d["eta"][keep])[0, 1]
        failures = [] if r >= 0.9 else [f"corr(eta_hat, eta) on non-islands = {r:.3f} < 0.9"]
        return failures + zero_sum_failures("eta", eta, d["labels"])

    @staticmethod
    def check_moran(res, oracle: tuple[float, float], permutation: bool) -> list[str]:
        stat, var = oracle
        failures = []
        if not close(res.statistic, stat, 1e-9, 1e-12):
            failures.append(f"Moran's I {res.statistic!r} != dense oracle {stat!r}")
        if permutation:
            if not (0.0 < res.p_value <= 1.0 and res.variance > 0):
                failures.append(f"permutation p {res.p_value} / variance {res.variance} invalid")
        elif not close(res.variance, var, 1e-9):
            failures.append(f"analytic variance {res.variance!r} != dense oracle {var!r}")
        return failures

    def check_grid(self, out, fits, X) -> list[str]:
        best, table = out
        d, failures = self.d, []
        Qp = gen.dense_precision(d["n"], d["edges"], island_proper=True)
        if len(fits) != len(self.GRID) or len(table) != len(self.GRID):
            return [f"grid evaluated {len(fits)} fits / {len(table)} rows for {len(self.GRID)} points"]
        for (point, logml), fit in zip(table, fits):
            s = fit.state
            g = oracles.laplace_gradient(
                X, d["counts"], d["offsets"], Qp, d["labels"],
                s.beta, s.phi, s.v.values, point["tau_phi"], point["tau_v"])
            if not g < 1e-6:
                failures.append(f"oracle gradient {g:.3e} at mode for {point}")
            if logml != fit.log_marginal:
                failures.append(f"table log marginal for {point} differs from its fit")
        top = max(range(len(table)), key=lambda k: table[k][1])
        chosen = {"tau_phi": best.state.tau_phi, "tau_v": best.state.tau_v}
        if chosen != table[top][0] or best.log_marginal != table[top][1]:
            failures.append(f"selected {chosen}, largest log marginal at {table[top][0]}")
        return failures

    def check_islands(self, archive) -> list[str]:
        """Island eta: positive posterior sd near the closed-form conditional
        sd ``1 / sqrt(1 + sum_p lambda_p^2 / sigma2_p)`` at posterior means."""
        labels = self.probe["labels"]
        islands = np.flatnonzero(np.bincount(labels)[labels] == 1)
        eta = archive.get("eta")[:, islands]
        lam = archive.get("lambda").mean(axis=0)
        s2 = archive.get("sigma2").mean(axis=0)
        observed = np.isfinite(self.probe["values"][islands])
        expected = 1.0 / np.sqrt(1.0 + observed @ (lam**2 / s2))
        sd = eta.std(axis=0, ddof=1)
        bad = [(int(i), s, e) for i, s, e in zip(islands, sd, expected)
               if not (s > 0 and abs(s / e - 1.0) < 0.15)]
        return [f"island {i}: posterior sd of eta {s:.3g}, expected {e:.3g}" for i, s, e in bad]

    def round(self) -> Round:
        d, ops, ess, fit_s = self.d, [], [], []
        archives = []
        for config in self.configs:
            archive = attempt(ops, "fit_stage1", factor.fit_stage1, self.panel, self.graph,
                              self.spec1, config, check=self.check_stage1)
            fit_s.append(ops[-1].seconds)
            if archive is not None:
                archives.append(archive)
                per_param = {p: archive.per_chain(p) for p in archive.param_names}
                ess.append(oracles.min_ess(stage1_scalars(per_param)))
        later = ["morans_i_analytic", "morans_i_permutation", "laplace_precision_grid"]
        if not archives:
            for name in later:
                skipped(ops, name, "every stage-1 fit failed")
        else:
            # posterior-mean scores over every draw of every fit
            eta_hat = np.mean([a.get("eta").mean(axis=0) for a in archives], axis=0)
            oracle = oracles.morans_dense(oracles.dense_weights(d["n"], d["edges"]), eta_hat)
            attempt(ops, "morans_i_analytic", graph.morans_i, self.graph, eta_hat,
                    check=lambda r: self.check_moran(r, oracle, False))
            attempt(ops, "morans_i_permutation", graph.morans_i, self.graph, eta_hat,
                    method="permutation", check=lambda r: self.check_moran(r, oracle, True))
            spec3 = svc.SvcModelSpec(rung="M3", covariate=d["x"], offsets=d["offsets"],
                                     latent_factors=eta_hat[:, None])
            X = np.column_stack([np.ones(d["n"]), d["x"], eta_hat])
            fits = []
            inner = svc.fit_stage2_laplace

            def capture(*args, **kwargs):
                fits.append(inner(*args, **kwargs))
                return fits[-1]

            svc.fit_stage2_laplace = capture
            try:
                attempt(ops, "laplace_precision_grid", svc.laplace_precision_grid,
                        spec3, d["counts"], self.graph, self.GRID,
                        check=lambda out: self.check_grid(out, fits, X))
            finally:
                svc.fit_stage2_laplace = inner
        pipeline = sum(op.seconds for op in ops if op.name in ["fit_stage1", *later])
        attempt(ops, "island_policy", factor.fit_stage1, self.probe_panel, self.probe_graph,
                self.probe_spec, self.probe_config, check=self.check_islands)
        if len(ess) < len(fit_s):  # a failed fit has no ESS
            ess = [0.0]
        return Round(ops, sum(ess) / sum(fit_s), pipeline,
                     {"factor.ess_min": statistics.fmean(ess)})


# ---------------------------------------------------------------------------


class CliPipeline:
    """The CLI chain from raw CSVs to risk tables, in-process, 10x10 map."""

    name = "cli-pipeline"
    known_faults: frozenset = frozenset()
    # 2 chains x 900 retained draws each: three quarters of the reference
    # protocol's archive, so that the chain fits the run budget beside the
    # other workloads
    STAGE1 = ("--iters", "2800", "--burnin", "1000", "--thin", "2", "--chains", "2")
    STAGE2 = ("--iters", "1200", "--burnin", "300", "--thin", "1", "--chains", "2")
    STAGE1_SEED = 78  # constant, with the panel: the ESS is measured on this fit

    def setup(self, seed: int, workdir: Path) -> None:
        self.raw, self.work = workdir / "raw", workdir / "work"
        self.work.mkdir(parents=True, exist_ok=True)
        self.d = gen.cli_inputs(seed, self.raw)
        self.seed = seed

    def _cli(self, argv):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main([str(a) for a in argv])
        if rc != 0:
            raise RuntimeError(f"exit {rc}: {sink.getvalue().strip()}")
        return rc

    def step(self, ops, name, argv, check=None):
        return attempt(ops, name, self._cli, argv,
                       check=(lambda _rc: check()) if check else None) is not None

    # -- checks on the files each step wrote --------------------------------

    def check_prep(self) -> list[str]:
        d, failures = self.d, []
        counts = oracles.read_table(self.work / "counts.csv")
        expected = d["pop"] @ gen.RATES
        if counts["area_id"] != d["ids"] or not close(oracles.floats(counts["expected"]), expected, 1e-12):
            failures.append("expected counts differ from sum(population x rate)")
        if not close(oracles.floats(counts["observed"]), d["deaths"].sum(axis=1), 0.0):
            failures.append("observed counts differ from summed deaths")
        cov = oracles.read_table(self.work / "covariates.csv")
        if not close(oracles.floats(cov["ice"]), d["ice"], 1e-9, 1e-12):
            failures.append("ICE differs from the generated segregation index")
        ind = oracles.read_table(self.work / "indicators.csv")
        values = np.column_stack([oracles.floats(ind[c]) for c in list(ind)[1:]])
        if not np.isfinite(values).all() or not close(values.mean(axis=0), np.zeros(values.shape[1]), 0.0, 0.1):
            failures.append("indicators are not imputed and standardized")
        return failures

    def check_stage1(self) -> list[str]:
        self.stage1 = oracles.read_archive_csv(self.work / "stage1.csv")
        eta = np.concatenate(self.stage1["eta"])
        shape = (retained(self.STAGE1), self.d["n"])
        failures = [] if eta.shape == shape else [f"stage-1 archive holds {eta.shape}, not {shape}"]
        return failures + zero_sum_failures("eta", eta, np.zeros(self.d["n"], dtype=int))

    def check_scores(self) -> list[str]:
        scores = oracles.read_table(self.work / "scores.csv")
        mean = np.concatenate(self.stage1["eta"]).mean(axis=0)
        if scores["area_id"] != self.d["ids"] or not close(oracles.floats(scores["health"]), mean, 1e-12, 1e-15):
            return ["factor scores differ from the archive's posterior means"]
        return []

    def check_merge(self) -> list[str]:
        cov = oracles.read_table(self.work / "covariates.csv")
        scores = oracles.read_table(self.work / "scores.csv")
        if cov.get("health") != scores["health"]:
            return ["covariates.csv does not carry the factor scores"]
        return []

    def check_stage2(self) -> list[str]:
        self.stage2 = oracles.read_archive_csv(self.work / "stage2.csv")
        labels = np.zeros(self.d["n"], dtype=int)
        v, delta = np.concatenate(self.stage2["v"]), np.concatenate(self.stage2["delta"])
        shape = (retained(self.STAGE2), self.d["n"])
        failures = [] if v.shape == shape else [f"stage-2 archive holds {v.shape}, not {shape}"]
        return failures + zero_sum_failures("v", v, labels) + zero_sum_failures("delta", delta, labels)

    def check_diagnose(self) -> list[str]:
        diag = oracles.read_table(self.work / "diagnose.csv")
        expected = [(p, k) for p in sorted(self.stage2) for k in range(self.stage2[p][0].shape[1])]
        got = list(zip(diag["param"], map(int, diag["index"])))
        if got != expected:
            return [f"diagnose lists {len(got)} scalars, archive has {len(expected)}"]
        means = [math.fsum(column) / len(column) for column in
                 (np.concatenate(self.stage2[p])[:, k] for p, k in expected)]
        rhat, ess = oracles.floats(diag["rhat"]), oracles.floats(diag["ess"])
        failures = [] if close(oracles.floats(diag["mean"]), means, 1e-12, 1e-15) else [
            "diagnose means differ from the parsed archive"]
        if not (np.all(rhat > 0.9) and np.all(ess > 0)):
            failures.append("diagnose reports non-positive R-hat or ESS")
        return failures

    def check_fixed_effects(self) -> list[str]:
        fx = oracles.read_table(self.work / "fixed_effects.csv")
        beta = np.concatenate(self.stage2["beta"])
        mean = np.array([math.fsum(beta[:, k]) / len(beta) for k in range(beta.shape[1])])
        sd = np.array([math.sqrt(math.fsum((beta[:, k] - mean[k]) ** 2) / (len(beta) - 1))
                       for k in range(beta.shape[1])])
        lo, hi = np.quantile(beta, [0.025, 0.975], axis=0)
        ok = (fx["term"] == ["intercept", "ice", "health"]
              and close(oracles.floats(fx["mean"]), mean, 1e-12, 1e-15)
              and close(oracles.floats(fx["sd"]), sd, 1e-12)
              and close(oracles.floats(fx["q025"]), lo, 1e-12, 1e-15)
              and close(oracles.floats(fx["q975"]), hi, 1e-12, 1e-15)
              and close(oracles.floats(fx["rate_ratio"]), np.exp(mean), 1e-12))
        return [] if ok else ["fixed effects differ from the recomputation from the archive"]

    def check_relative_risk(self) -> list[str]:
        cov = oracles.read_table(self.work / "covariates.csv")
        ice, health = oracles.floats(cov["ice"]), oracles.floats(cov["health"])
        X = np.column_stack([np.ones(len(ice)), ice, health])
        a = {p: np.concatenate(self.stage2[p]) for p in ("beta", "phi", "v", "delta")}
        rr = np.exp(a["beta"] @ X.T + a["phi"] + a["v"] + a["delta"] * ice[None, :])
        lo, hi = np.quantile(rr, [0.025, 0.975], axis=0)
        table = oracles.read_table(self.work / "relative_risk.csv")
        ok = (table["area_id"] == self.d["ids"]
              and close(oracles.floats(table["rr_mean"]), rr.mean(axis=0), 1e-9)
              and close(oracles.floats(table["rr_q025"]), lo, 1e-9)
              and close(oracles.floats(table["rr_q975"]), hi, 1e-9))
        return [] if ok else ["relative risks differ from the recomputation from the archive"]

    def round(self) -> Round:
        raw, work, ops = self.raw, self.work, []
        stage2_inputs = ("--counts", work / "counts.csv", "--covariates", work / "covariates.csv",
                         "--adjacency", raw / "adjacency.csv", "--model", "M4")
        steps = [
            ("prep", ["prep", "--outdir", work, "--indicators-raw", raw / "indicators_raw.csv",
                      "--areas", raw / "areas.csv", "--extremes", raw / "extremes.csv",
                      "--strata", raw / "strata.csv", "--rates", raw / "rates.csv"],
             self.check_prep),
            ("fit-stage1", ["fit-stage1", "--indicators", work / "indicators.csv",
                            "--adjacency", raw / "adjacency.csv", "--areas", raw / "areas.csv",
                            "--out", work / "stage1.csv", *self.STAGE1, "--seed", self.STAGE1_SEED],
             self.check_stage1),
            ("summarize-factor-scores",
             ["summarize", "--archive", work / "stage1.csv", "--what", "factor-scores",
              "--factor-name", "health", "--areas", raw / "areas.csv", "--out", work / "scores.csv"],
             self.check_scores),
            ("prep-factor-scores", ["prep", "--outdir", work, "--extremes", raw / "extremes.csv",
                                    "--factor-scores", work / "scores.csv"], self.check_merge),
            ("fit-stage2", ["fit-stage2", *stage2_inputs, "--out", work / "stage2.csv",
                            *self.STAGE2, "--seed", self.seed + 1], self.check_stage2),
            ("diagnose", ["diagnose", "--archive", work / "stage2.csv", "--out", work / "diagnose.csv"],
             self.check_diagnose),
            ("summarize-fixed-effects",
             ["summarize", "--archive", work / "stage2.csv", "--what", "fixed-effects",
              "--out", work / "fixed_effects.csv", *stage2_inputs], self.check_fixed_effects),
            ("summarize-relative-risk",
             ["summarize", "--archive", work / "stage2.csv", "--what", "relative-risk",
              "--out", work / "relative_risk.csv", *stage2_inputs], self.check_relative_risk),
        ]
        for k, (name, argv, check) in enumerate(steps):
            if not self.step(ops, name, argv, check):
                for later, _, _ in steps[k + 1:]:
                    skipped(ops, later, f"{name} failed")
                return Round(ops, 0.0, sum(op.seconds for op in ops), {})
        layer = {}
        ess = oracles.min_ess(stage1_scalars(self.stage1))
        layer["factor.ess_min"] = ess
        layer["svc.ess_min"] = oracles.min_ess(stage2_scalars(self.stage2))
        layer["svc.field_ess_min"] = field_ess_min(self.stage2)
        # effective stage-1 draws per second of the whole chain: the fit
        # itself is one short step, too short to time steadily on its own
        pipeline = sum(op.seconds for op in ops)
        return Round(ops, ess / pipeline, pipeline, layer)


WORKLOADS = {w.name: w for w in (M4Lattice, CountyMap, CliPipeline)}
