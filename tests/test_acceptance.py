"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance is pinned here; the replicated studies use fixed
seed families chosen once and never tuned per run.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from helpers import (
    dense_morans_i,
    grid_logpdf_to_cdf,
    ks_statistic,
    random_connected_graph,
    stage1_chain,
)
from scipy import stats

from arealbayes.cli import main as cli_main
from arealbayes.factor import (
    FactorModelSpec,
    FactorModelState,
    _eta_likelihood_terms,
    _PanelCache,
    fit_stage1,
)
from arealbayes.graph import build_graph, morans_i
from arealbayes.icar import IcarField, gibbs_sweep_values, icar_logdensity_unnormalized, precision_matrix
from arealbayes.mcmc import McmcConfig, gelman_rubin
from arealbayes.prep import IndicatorPanel, StrataTable, compute_ice, expected_counts, standardize
from arealbayes.simulate import make_lattice, sample_icar, simulate_stage1, simulate_stage2
from arealbayes.svc import (
    SvcModelSpec,
    SvcModelState,
    compute_dic,
    compute_waic,
    fit_stage2_laplace,
    fit_stage2_mcmc,
    format_rate_ratio,
    rate_ratio,
)


@contextmanager
def criterion(num: int, description: str):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] FAIL {description}")
        raise
    print(f"[criterion {num:02d}] PASS {description} ({time.time() - start:.1f}s)")


def test_criterion_01_icar_identity():
    with criterion(1, "pairwise-difference log density equals quadratic form"):
        start = time.time()
        rng = np.random.default_rng(1001)
        for _ in range(100):
            n = int(rng.integers(4, 30))
            edges = random_connected_graph(rng, n, extra_edges=int(rng.integers(0, 5)))
            g = build_graph(edges, n_areas=n)
            x = rng.standard_normal(n) * float(rng.uniform(0.5, 3.0))
            s2 = float(rng.uniform(0.2, 4.0))
            field = IcarField(g, x, variance=s2)
            q = precision_matrix(g)
            oracle = -n * math.log(math.sqrt(s2)) - (x @ q @ x) / (2 * s2)
            assert abs(icar_logdensity_unnormalized(field) - oracle) < 1e-10
        assert time.time() - start < 1.0


SIX_NODE_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)]


def test_criterion_02_stage1_conditionals():
    with criterion(2, "stage-1 full conditionals match grid/closed-form oracles"):
        start = time.time()
        graph = build_graph(SIX_NODE_EDGES, n_areas=6)
        rng = np.random.default_rng(2002)
        eta = sample_icar(graph, 1.0, rng)
        lam = np.array([1.0, 1.3, -0.6])
        alpha = np.array([0.1, -0.2, 0.3])
        z = alpha[None, :] + eta[:, None] * lam[None, :]
        z += rng.standard_normal(z.shape) * 0.4
        panel = IndicatorPanel([str(i) for i in range(6)], ["a", "b", "c"], z)
        spec = FactorModelSpec(n_indicators=3)
        state = FactorModelState(alpha, lam, IcarField(graph, eta), np.full(3, 0.16))
        n_draws = 100_000

        # lambda_2: sampler redraws against grid integration of the density
        draws = np.empty(n_draws)
        chain = stage1_chain(state, panel, spec, rng)
        for s in range(n_draws):
            chain.draw_lambda()
            draws[s] = chain.lam[1]

        def lam_logpdf(value):
            ll = -np.sum((z[:, 1] - alpha[1] - value * eta) ** 2) / (2 * 0.16)
            return ll - value**2 / (2 * spec.loading_prior_variance)

        xs, cdf = grid_logpdf_to_cdf(lam_logpdf, draws.min() - 1, draws.max() + 1)
        assert ks_statistic(draws, xs, cdf) < 0.01

        # sigma2_1: sampler redraws against the closed-form inverse gamma
        draws = np.empty(n_draws)
        chain = stage1_chain(state, panel, spec, rng)
        for s in range(n_draws):
            chain.draw_sigma2()
            draws[s] = chain.sigma2[0]
        resid = z[:, 0] - alpha[0] - lam[0] * eta
        shape = spec.sigma2_prior_shape + 3.0
        rate = spec.sigma2_prior_rate + float(resid @ resid) / 2.0
        sorted_u = np.sort(stats.invgamma.cdf(draws, shape, scale=rate))
        ecdf = np.arange(1, n_draws + 1) / n_draws
        assert np.max(np.abs(sorted_u - ecdf)) < 0.01

        # one eta site: sweep redraws at a pinned state against the grid
        cache = _PanelCache(panel)
        prec, pwm = _eta_likelihood_terms(cache, alpha, lam, state.sigma2)
        site = 2
        pin = 1e16
        prec_pin = np.full(6, pin)
        pwm_pin = pin * eta
        prec_pin[site], pwm_pin[site] = prec[site], pwm[site]
        draws = np.empty(n_draws)
        values = eta.copy()
        for s in range(n_draws):
            gibbs_sweep_values(values, graph, 1.0, prec_pin, pwm_pin, rng.standard_normal(6))
            draws[s] = values[site]
        nb_sum = sum(eta[j] for j in graph.neighbor_lists[site])
        wplus = graph.weight_sums[site]

        def eta_logpdf(value):
            prior = -wplus / 2.0 * (value - nb_sum / wplus) ** 2
            ll = 0.0
            for p in range(3):
                r = z[site, p] - alpha[p] - lam[p] * value
                ll -= r * r / (2 * 0.16)
            return prior + ll

        xs, cdf = grid_logpdf_to_cdf(eta_logpdf, draws.min() - 1, draws.max() + 1)
        assert ks_statistic(draws, xs, cdf) < 0.01
        assert time.time() - start < 120.0


LATTICE15 = make_lattice(15, 15)
LAMBDA_TRUE = np.array([1.0, 1.2, -0.8, 1.5, 0.5])


def _stage1_replicate(rep: int):
    seeds = np.random.SeedSequence([31_006, rep]).spawn(2)
    data_seed, chain_seed = (int(s.generate_state(1)[0]) for s in seeds)
    panel, eta_true = simulate_stage1(
        LATTICE15, LAMBDA_TRUE, np.full(5, 0.25), seed=data_seed
    )
    config = McmcConfig(
        n_chains=2, n_iter=20_000, burn_in=5_000, thin=10, seed=chain_seed
    )
    return panel, eta_true, config


def test_criterion_03_stage1_recovery():
    with criterion(3, "stage-1 recovery over 20 seeded replicates"):
        start = time.time()
        covered = 0
        for rep in range(20):
            panel, eta_true, config = _stage1_replicate(rep)
            archive = fit_stage1(panel, LATTICE15, config=config)
            draws = archive.get("lambda")
            lo = np.quantile(draws, 0.025, axis=0)
            hi = np.quantile(draws, 0.975, axis=0)
            covered += all(lo[k] <= LAMBDA_TRUE[k] <= hi[k] for k in (1, 2, 3, 4))
            eta_hat = archive.get("eta").mean(axis=0)
            assert np.corrcoef(eta_hat, eta_true)[0, 1] > 0.9
        assert covered >= 18
        assert time.time() - start < 600.0


def test_criterion_04_protocol_parity():
    with criterion(4, "reference protocol retains 1200 draws/chain with R-hat < 1.1"):
        config = McmcConfig(seed=44_001)
        assert config.n_chains == 2
        assert config.n_iter == 100_000
        assert config.burn_in == 40_000
        assert config.thin == 50
        assert config.n_retained == 1200
        panel, _, _ = _stage1_replicate(0)
        archive = fit_stage1(panel, LATTICE15, config=config, n_workers=2)
        assert archive.n_retained == 1200
        assert all(len(ch["lambda"]) == 1200 for ch in archive.chains)
        for k in range(5):
            assert gelman_rubin(archive, "lambda", index=k) < 1.1


def test_criterion_05_stage2_m1_recovery():
    with criterion(5, "stage-2 M1 interval coverage over 20 seeded replicates"):
        start = time.time()
        g = LATTICE15
        truth = SvcModelState(beta=np.array([0.1, -1.0]))
        covered = 0
        for rep in range(20):
            rng = np.random.default_rng(np.random.SeedSequence([904, rep]))
            x = rng.uniform(-0.5, 0.5, 225)
            spec = SvcModelSpec(rung="M1", covariate=x, offsets=np.full(225, 50.0))
            counts = simulate_stage2(g, spec, truth, seed=int(rng.integers(2**31)))
            config = McmcConfig(
                n_chains=2, n_iter=12_000, burn_in=3_000, thin=5,
                seed=int(rng.integers(2**31)),
            )
            archive = fit_stage2_mcmc(spec, counts, g, config)
            draws = archive.get("beta")
            lo = np.quantile(draws, 0.025, axis=0)
            hi = np.quantile(draws, 0.975, axis=0)
            covered += (lo[0] <= 0.1 <= hi[0]) and (lo[1] <= -1.0 <= hi[1])
        assert covered >= 18
        assert time.time() - start < 300.0


def test_criterion_06_stage2_m4_recovery_and_model_order():
    with criterion(6, "M4 delta recovery with DIC/WAIC preferring M4 over M3"):
        start = time.time()
        g = LATTICE15
        n = 225
        rng = np.random.default_rng(600)
        x = 0.9 * np.tanh(sample_icar(g, 1.0, rng) / 1.2)
        factor = sample_icar(g, 0.5, rng)
        spec4 = SvcModelSpec(
            rung="M4", covariate=x, offsets=np.full(n, 300.0),
            latent_factors=factor[:, None],
        )
        delta_true = sample_icar(g, 0.35, rng)
        truth = SvcModelState(
            beta=np.array([0.1, -0.8, 0.4]),
            phi=rng.standard_normal(n) * np.sqrt(0.01),
            v=IcarField(g, sample_icar(g, 0.04, rng)),
            delta=IcarField(g, delta_true),
            tau_phi=100.0, tau_v=25.0, tau_delta=1 / 0.35,
        )
        counts = simulate_stage2(g, spec4, truth, seed=601)
        config = McmcConfig(n_chains=2, n_iter=15_000, burn_in=5_000, thin=10, seed=602)
        archive4 = fit_stage2_mcmc(spec4, counts, g, config)
        spec3 = SvcModelSpec(
            rung="M3", covariate=x, offsets=np.full(n, 300.0),
            latent_factors=factor[:, None],
        )
        archive3 = fit_stage2_mcmc(spec3, counts, g, config)

        delta_hat = archive4.get("delta").mean(axis=0)
        assert np.corrcoef(delta_hat, delta_true)[0, 1] > 0.7
        assert compute_dic(archive4, spec4, counts) < compute_dic(archive3, spec3, counts)
        assert compute_waic(archive4, spec4, counts) < compute_waic(archive3, spec3, counts)
        assert time.time() - start < 900.0


def test_criterion_07_laplace_cross_check():
    with criterion(7, "Laplace mode matches MCMC at fixed precisions"):
        g = make_lattice(10, 10)
        rng = np.random.default_rng(700)
        x = rng.uniform(-1, 1, 100)
        factor = sample_icar(g, 0.5, rng)
        spec = SvcModelSpec(
            rung="M3", covariate=x, offsets=np.full(100, 80.0),
            latent_factors=factor[:, None],
        )
        truth = SvcModelState(
            beta=np.array([0.2, -0.6, 0.3]),
            phi=rng.standard_normal(100) * np.sqrt(0.02),
            v=IcarField(g, sample_icar(g, 0.08, rng)),
            tau_phi=50.0, tau_v=12.5,
        )
        counts = simulate_stage2(g, spec, truth, seed=701)
        taus = {"tau_phi": 50.0, "tau_v": 12.5}
        fit = fit_stage2_laplace(spec, counts, g, taus)
        assert fit.gradient_norm < 1e-6
        config = McmcConfig(n_chains=2, n_iter=8_000, burn_in=2_000, thin=5, seed=702)
        archive = fit_stage2_mcmc(
            spec, counts, g, config, sample_precisions=False, initial_precisions=taus
        )
        beta_mcmc = archive.get("beta").mean(axis=0)
        assert np.max(np.abs(fit.state.beta - beta_mcmc)) < 0.1


def test_criterion_08_waic_dic_hand_check():
    with criterion(8, "DIC and WAIC match hand-computed toy values"):
        theta_draws = np.array(
            [
                [0.0, 0.1, -0.2],
                [0.1, 0.0, -0.1],
                [-0.1, 0.2, 0.0],
                [0.2, -0.1, 0.1],
            ]
        )
        e = np.array([10.0, 15.0, 20.0])
        y = np.array([11.0, 13.0, 21.0])
        spec = SvcModelSpec(
            rung="M3", covariate=np.zeros(3), offsets=e,
            latent_factors=np.zeros((3, 0)),
        )
        from arealbayes.mcmc import ChainArchive

        config = McmcConfig(n_chains=1, n_iter=8, burn_in=4, thin=1, seed=0)
        archive = ChainArchive(
            [
                {
                    "beta": np.zeros((4, 2)),
                    "phi": theta_draws,
                    "v": np.zeros((4, 3)),
                }
            ],
            config.retained_iterations(),
            config,
        )

        def logpmf(count, rate):
            return count * math.log(rate) - rate - math.lgamma(count + 1)

        ll = np.array(
            [
                [logpmf(y[i], e[i] * math.exp(theta_draws[s, i])) for i in range(3)]
                for s in range(4)
            ]
        )
        dbar = float(np.mean(-2 * ll.sum(axis=1)))
        theta_bar = theta_draws.mean(axis=0)
        dhat = -2 * sum(logpmf(y[i], e[i] * math.exp(theta_bar[i])) for i in range(3))
        hand_dic = 2 * dbar - dhat
        lppd = sum(math.log(np.mean(np.exp(ll[:, i]))) for i in range(3))
        p_waic = sum(float(np.var(ll[:, i], ddof=1)) for i in range(3))
        hand_waic = -2 * (lppd - p_waic)
        assert abs(compute_dic(archive, spec, y) - hand_dic) < 1e-10
        assert abs(compute_waic(archive, spec, y) - hand_waic) < 1e-10


def test_criterion_09_morans_i():
    with criterion(9, "Moran's I against dense oracle, affine invariance, parity"):
        rng = np.random.default_rng(9009)
        for _ in range(50):
            n = int(rng.integers(5, 40))
            g = build_graph(random_connected_graph(rng, n, extra_edges=3), n_areas=n)
            x = rng.standard_normal(n)
            res = morans_i(g, x)
            assert abs(res.statistic - dense_morans_i(g.dense_weights(), x)) < 1e-12
        g = make_lattice(8, 8)
        x = rng.standard_normal(64)
        base = morans_i(g, x).statistic
        for a, b in [(3.0, -1.0), (-0.5, 10.0)]:
            assert abs(morans_i(g, a * x + b).statistic - base) < 1e-10
        # smooth segregation-like field (neighbour-averaged ICAR draw,
        # squashed into (-1, 1)): strong positive autocorrelation
        field = sample_icar(LATTICE15, 1.0, np.random.default_rng(9))
        neighbor_lists = LATTICE15.neighbor_lists
        for _ in range(3):
            field = np.array(
                [
                    (field[i] + sum(field[j] for j in neighbor_lists[i]))
                    / (1 + LATTICE15.degree(i))
                    for i in range(LATTICE15.n_areas)
                ]
            )
        smooth = 0.8 * np.tanh(field / np.std(field) / 2.0)
        res = morans_i(LATTICE15, smooth)
        assert res.statistic > 0.6
        assert res.p_value < 0.001


def _run_pipeline(workdir) -> list:
    workdir.mkdir(parents=True, exist_ok=True)
    sim = workdir / "sim"
    steps = [
        ["simulate", "--outdir", sim, "--rows", "10", "--cols", "10",
         "--seed", "77", "--model", "M3"],
        ["prep", "--outdir", workdir,
         "--indicators-raw", sim / "indicators_raw.csv",
         "--areas", sim / "areas.csv",
         "--extremes", sim / "extremes.csv",
         "--strata", sim / "strata.csv"],
        ["fit-stage1", "--indicators", workdir / "indicators.csv",
         "--adjacency", sim / "adjacency.csv",
         "--out", workdir / "stage1.csv",
         "--iters", "800", "--burnin", "300", "--thin", "5",
         "--chains", "2", "--seed", "78"],
        ["summarize", "--archive", workdir / "stage1.csv",
         "--what", "factor-scores", "--factor-name", "health",
         "--areas", sim / "areas.csv", "--out", workdir / "scores.csv"],
        ["prep", "--outdir", workdir, "--extremes", sim / "extremes.csv",
         "--factor-scores", workdir / "scores.csv"],
        ["fit-stage2", "--counts", workdir / "counts.csv",
         "--covariates", workdir / "covariates.csv",
         "--adjacency", sim / "adjacency.csv",
         "--model", "M3", "--out", workdir / "stage2.csv",
         "--iters", "800", "--burnin", "300", "--thin", "5",
         "--chains", "2", "--seed", "79"],
        ["summarize", "--archive", workdir / "stage2.csv",
         "--what", "fixed-effects", "--out", workdir / "fixed_effects.csv",
         "--counts", workdir / "counts.csv",
         "--covariates", workdir / "covariates.csv",
         "--adjacency", sim / "adjacency.csv", "--model", "M3"],
    ]
    for argv in steps:
        assert cli_main([str(a) for a in argv]) == 0
    files = sorted(p for p in workdir.rglob("*") if p.is_file())
    return [(p.relative_to(workdir), p.read_bytes()) for p in files]


def test_criterion_10_pipeline_determinism(tmp_path):
    with criterion(10, "end-to-end pipeline is byte-identical under a fixed seed"):
        start = time.time()
        first = _run_pipeline(tmp_path / "run1")
        second = _run_pipeline(tmp_path / "run2")
        assert [name for name, _ in first] == [name for name, _ in second]
        for (name, blob1), (_, blob2) in zip(first, second):
            assert blob1 == blob2, f"{name} differs between runs"
        assert time.time() - start < 180.0


def test_criterion_11_data_pipeline_identities():
    with criterion(11, "ICE bounds, expected-count balance, idempotent z-scores"):
        rng = np.random.default_rng(1111)
        total = rng.uniform(1e-3, 1e6, 10_000)
        privileged = rng.uniform(0, 1, 10_000) * total
        deprived = rng.uniform(0, 1, 10_000) * (total - privileged)
        ice = compute_ice(privileged, deprived, total)
        assert np.all(ice >= -1.0) and np.all(ice <= 1.0)

        pop = rng.integers(50, 2000, size=(40, 4)).astype(float)
        deaths = rng.poisson(pop * 0.015).astype(float)
        table = StrataTable(
            [str(i) for i in range(40)], [f"s{k}" for k in range(4)], pop, deaths
        )
        expected = expected_counts(table)
        assert abs(expected.sum() - deaths.sum()) < 1e-9

        values = rng.standard_normal((60, 4)) * rng.uniform(0.5, 8, 4) + rng.uniform(-30, 30, 4)
        values[rng.random((60, 4)) < 0.1] = np.nan
        panel = IndicatorPanel(
            [str(i) for i in range(60)], [f"c{k}" for k in range(4)], values
        )
        once = standardize(panel)
        twice = standardize(once)
        obs = once.observed_mask
        assert np.max(np.abs(once.values[obs] - twice.values[obs])) < 1e-10


def test_criterion_12_rate_ratio_presentation():
    with criterion(12, "rate-ratio transform and presentation format"):
        rng = np.random.default_rng(1212)
        noise = rng.standard_normal(4000) * 0.06
        draws = -0.278 + noise - noise.mean()  # posterior mean exactly -0.278
        rr = rate_ratio(draws)
        assert abs(rr.point - math.exp(-0.278)) < 1e-12
        assert abs(rr.point - 0.757) < 0.001
        assert rr.lower < rr.point < rr.upper
        text = format_rate_ratio(rr, label="beta")
        assert text.startswith("e^beta = 0.757, 95% credible interval: ")
        lower, upper = text.split(": ")[1].split(", ")
        assert float(lower) == round(rr.lower, 3)
        assert float(upper) == round(rr.upper, 3)
