import math
import os
import warnings

import numpy as np
import pytest
from helpers import grid_logpdf_to_cdf, ks_statistic, recording_pool, stage1_chain
from scipy import stats

from arealbayes import factor, fileio
from arealbayes.errors import DimensionMismatchError, ValidationError
from arealbayes.factor import (
    FactorModelSpec,
    FactorModelState,
    factor_exceedance,
    factor_quintiles,
    fit_stage1,
    loglik_stage1,
    summarize_loadings,
)
from arealbayes.graph import build_graph
from arealbayes.icar import IcarField, center_by_component, precision_matrix
from arealbayes.mcmc import ChainArchive, McmcConfig, gelman_rubin
from arealbayes.prep import IndicatorPanel
from arealbayes.simulate import make_lattice, sample_icar, simulate_stage1

SIX_NODE_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)]


def toy_panel(values):
    values = np.asarray(values, dtype=float)
    n, p = values.shape
    return IndicatorPanel([str(i) for i in range(n)], [f"c{k}" for k in range(p)], values)


def toy_state(graph, alpha, lam, eta, sigma2):
    return FactorModelState(
        np.asarray(alpha, float),
        np.asarray(lam, float),
        IcarField(graph, np.asarray(eta, float)),
        np.asarray(sigma2, float),
    )


def make_archive(eta_draws, lam_draws=None, n_chains=1):
    """Archive with given pooled draws split evenly over chains."""
    eta_draws = np.asarray(eta_draws, dtype=float)
    s = len(eta_draws) // n_chains
    lam_draws = (
        np.ones((len(eta_draws), 2)) if lam_draws is None else np.asarray(lam_draws, float)
    )
    chains = []
    for c in range(n_chains):
        sl = slice(c * s, (c + 1) * s)
        chains.append(
            {
                "eta": eta_draws[sl],
                "lambda": lam_draws[sl],
                "alpha": np.zeros((s, lam_draws.shape[1])),
                "sigma2": np.ones((s, lam_draws.shape[1])),
            }
        )
    config = McmcConfig(n_chains=n_chains, n_iter=2 * s, burn_in=s, thin=1, seed=0)
    return ChainArchive(chains, config.retained_iterations(), config)


class TestLoglik:
    def test_zero_residuals_unit_variance(self):
        g = make_lattice(2, 2)
        eta = np.array([0.5, -0.5, 0.25, -0.25])
        lam = np.array([1.0, 2.0])
        alpha = np.array([0.3, -0.1])
        z = alpha[None, :] + eta[:, None] * lam[None, :]
        state = toy_state(g, alpha, lam, eta, [1.0, 1.0])
        ll = loglik_stage1(state, toy_panel(z))
        assert ll == pytest.approx(-(8 / 2) * math.log(2 * math.pi))

    def test_single_cell_at_mode(self):
        g = build_graph([(0, 1)])
        state = toy_state(g, [0.2], [1.0], [0.4, -0.4], [0.09])
        z = np.array([[0.2 + 0.4], [np.nan]])
        ll = loglik_stage1(state, toy_panel(z))
        assert ll == pytest.approx(float(stats.norm.logpdf(0.0, scale=0.3)))

    def test_matches_cell_by_cell_oracle(self):
        rng = np.random.default_rng(0)
        g = make_lattice(2, 2)
        state = toy_state(
            g, rng.standard_normal(3), rng.standard_normal(3),
            rng.standard_normal(4), rng.uniform(0.5, 2.0, 3),
        )
        values = rng.standard_normal((4, 3))
        values[1, 2] = np.nan
        panel = toy_panel(values)
        oracle = 0.0
        for i in range(4):
            for p in range(3):
                if np.isnan(values[i, p]):
                    continue
                mean = state.alpha[p] + state.loadings[p] * state.eta.values[i]
                oracle += stats.norm.logpdf(
                    values[i, p], mean, math.sqrt(state.sigma2[p])
                )
        assert abs(loglik_stage1(state, panel) - oracle) < 1e-10


class TestConditionals:
    """The sampler's full conditionals against independent oracles."""

    def setup_method(self):
        self.graph = build_graph(SIX_NODE_EDGES, n_areas=6)
        rng = np.random.default_rng(77)
        self.eta_true = sample_icar(self.graph, 1.0, rng)
        lam = np.array([1.0, 1.3, -0.6])
        alpha = np.array([0.1, -0.2, 0.3])
        z = alpha[None, :] + self.eta_true[:, None] * lam[None, :]
        z += rng.standard_normal(z.shape) * 0.4
        self.panel = toy_panel(z)
        self.spec = FactorModelSpec(n_indicators=3)
        self.state = toy_state(self.graph, alpha, lam, self.eta_true, [0.16, 0.16, 0.16])

    def test_lambda_conditional_ks_against_grid(self):
        chain = stage1_chain(self.state, self.panel, self.spec, np.random.default_rng(5))
        n_draws = 100_000
        draws = np.empty(n_draws)
        for s in range(n_draws):
            chain.draw_lambda()
            draws[s] = chain.lam[1]

        z = self.panel.values
        eta = self.state.eta.values
        alpha, s2 = self.state.alpha[1], self.state.sigma2[1]

        def logpdf(lam):
            ll = -((z[:, 1] - alpha - lam * eta) ** 2).sum() / (2 * s2)
            return ll - lam**2 / (2 * self.spec.loading_prior_variance)

        xs, cdf = grid_logpdf_to_cdf(logpdf, draws.min() - 1, draws.max() + 1)
        assert ks_statistic(draws, xs, cdf) < 0.01

    def test_sigma2_conditional_moments(self):
        chain = stage1_chain(self.state, self.panel, self.spec, np.random.default_rng(6))
        n_draws = 100_000
        draws = np.empty(n_draws)
        for s in range(n_draws):
            chain.draw_sigma2()
            draws[s] = chain.sigma2[0]
        resid = (
            self.panel.values[:, 0]
            - self.state.alpha[0]
            - self.state.loadings[0] * self.state.eta.values
        )
        shape = self.spec.sigma2_prior_shape + 6 / 2
        rate = self.spec.sigma2_prior_rate + float(resid @ resid) / 2
        exact_mean = rate / (shape - 1)
        exact_var = rate**2 / ((shape - 1) ** 2 * (shape - 2))
        assert abs(draws.mean() - exact_mean) < 3 * math.sqrt(exact_var / n_draws)
        # the precision is Gamma(shape, rate): check its mean too
        prec_mean = shape / rate
        prec_var = shape / rate**2
        assert abs((1 / draws).mean() - prec_mean) < 3 * math.sqrt(prec_var / n_draws)

    def test_eta_site_conditional_ks_against_grid(self):
        # redraw one site with everything else held fixed via the public
        # single-sweep update on a star restricted to that site
        from arealbayes.factor import _PanelCache, _eta_likelihood_terms
        from arealbayes.icar import gibbs_sweep_values

        cache = _PanelCache(self.panel)
        prec, pwm = _eta_likelihood_terms(
            cache, self.state.alpha, self.state.loadings, self.state.sigma2
        )
        i = 2
        pin = 1e16
        prec_pin = np.full(6, pin)
        pwm_pin = pin * self.eta_true
        prec_pin[i], pwm_pin[i] = prec[i], pwm[i]
        rng = np.random.default_rng(7)
        n_draws = 100_000
        draws = np.empty(n_draws)
        values = self.eta_true.copy()
        for s in range(n_draws):
            gibbs_sweep_values(
                values, self.graph, 1.0, prec_pin, pwm_pin, rng.standard_normal(6)
            )
            draws[s] = values[i]

        nb_sum = sum(self.eta_true[j] for j in self.graph.neighbor_lists[i])
        wplus = self.graph.weight_sums[i]
        z, eta = self.panel.values, self.eta_true

        def logpdf(x):
            prior = -wplus / 2 * (x - nb_sum / wplus) ** 2
            ll = 0.0
            for p in range(3):
                r = z[i, p] - self.state.alpha[p] - self.state.loadings[p] * x
                ll -= r * r / (2 * self.state.sigma2[p])
            return prior + ll

        xs, cdf = grid_logpdf_to_cdf(logpdf, draws.min() - 1, draws.max() + 1)
        assert ks_statistic(draws, xs, cdf) < 0.01

    def test_alpha_centered_at_zero_for_flat_data(self):
        g = self.graph
        z = np.zeros((6, 1))
        panel = toy_panel(z)
        spec = FactorModelSpec(n_indicators=1)
        eta = sample_icar(g, 1.0, np.random.default_rng(3))
        state = toy_state(g, [0.0], [1.0], eta, [1.0])
        chain = stage1_chain(state, panel, spec, np.random.default_rng(8))
        draws = np.empty(20_000)
        for s in range(len(draws)):
            chain.draw_alpha()
            draws[s] = chain.alpha[0]
        # posterior mean is -lambda * mean(eta) * shrinkage ~ 0 for centered eta
        assert abs(draws.mean()) < 3 * draws.std() / math.sqrt(len(draws))

    def test_anchor_is_never_updated(self):
        chain = stage1_chain(self.state, self.panel, self.spec, np.random.default_rng(9))
        chain.draw_lambda()
        assert chain.lam[0] == 1.0

    def test_eta_update_centers_components(self):
        chain = stage1_chain(self.state, self.panel, self.spec, np.random.default_rng(10))
        chain.draw_eta()
        assert abs(chain.eta.sum()) < 1e-8


class TestScaleMove:
    """The scale move alone, iterated from a fixed state, keeps the
    posterior restricted to its orbit (s eta, free lambda / s)."""

    def test_log_s_matches_orbit_density(self):
        # two multi-area components, two islands
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3), (5, 6), (6, 7), (7, 8)]
        graph = build_graph(edges, n_areas=11)
        assert graph.n_components == 4 and len(graph.island_indices) == 2
        rng = np.random.default_rng(31)
        eta0 = rng.standard_normal(11) * 0.4
        eta0[[9, 10]] = 0.0
        for comp in ([0, 1, 2, 3, 4], [5, 6, 7, 8]):
            eta0[comp] -= eta0[comp].mean()
        alpha = np.array([0.2, -0.1, 0.3])
        lam0 = np.array([1.0, 1.3, -0.6])
        sigma2 = np.array([0.5, 0.3, 0.4])
        values = alpha + eta0[:, None] * lam0 + rng.standard_normal((11, 3)) * 0.6
        values[[1, 6, 9], 0] = np.nan  # missing anchor cells, one on an island
        panel = toy_panel(values)
        spec = FactorModelSpec(n_indicators=3)

        # the orbit density of t = log s, computed apart from the sampler:
        # the joint density at (e^t eta0, lam0 / e^t) times the Jacobian
        # e^(t (d - (P - 1))), d counting the free eta coordinates (islands
        # are pinned at 0, so each multi-area component of size m adds m - 1)
        Q = precision_matrix(graph, island_proper=True)
        observed = ~np.isnan(values)
        z = np.where(observed, values, 0.0)
        d = (5 - 1) + (4 - 1)

        def logpdf(t):
            s = math.exp(t)
            eta, lam = s * eta0, lam0 / s
            lam[0] = 1.0
            resid = (z - alpha - eta[:, None] * lam) * observed
            return (
                -0.5 * eta @ Q @ eta
                - 0.5 * np.sum(resid**2 / sigma2)
                - np.sum(lam[1:] ** 2) / (2 * spec.loading_prior_variance)
                + t * (d - 2)
            )

        chain = stage1_chain(toy_state(graph, alpha, lam0, eta0, sigma2), panel, spec, rng)
        chain.scale_step = 0.6
        n_moves, thin = 100_000, 10
        draws = np.empty(n_moves // thin)
        ratio_checked = False
        for k in range(n_moves):
            lam1, scales = chain.lam[1], chain.scales
            logr = chain.scale_move()
            lam = chain.lam
            assert lam[0] == 1.0
            if chain.scales > scales and logr < 0.0 and not ratio_checked:
                # the returned log ratio, which the step adapts on, is the
                # orbit density's
                t_old, t_new = math.log(lam0[1] / lam1), math.log(lam0[1] / lam[1])
                assert math.exp(logr) == pytest.approx(
                    math.exp(logpdf(t_new) - logpdf(t_old)), rel=1e-9
                )
                ratio_checked = True
            if k % thin == thin - 1:
                draws[k // thin] = math.log(lam0[1] / lam[1])
        assert ratio_checked
        assert np.allclose(chain.eta, eta0 * math.exp(draws[-1]))
        xs, cdf = grid_logpdf_to_cdf(logpdf, draws.min() - 1, draws.max() + 1)
        assert ks_statistic(draws, xs, cdf) < 0.02

    def test_log_s_past_the_bound_is_rejected(self):
        # |log s| past mcmc.MAX_LOG_SCALE: -inf, which the move rejects, not
        # an overflow of s or a division by s^2 = 0
        graph = build_graph(SIX_NODE_EDGES, n_areas=6)
        rng = np.random.default_rng(12)
        eta = sample_icar(graph, 1.0, rng)
        panel = toy_panel(eta[:, None] * np.array([1.0, 0.8]) + 0.1 * rng.standard_normal((6, 2)))
        state = toy_state(graph, [0.0, 0.0], [1.0, 0.8], eta, [0.1, 0.1])
        chain = stage1_chain(state, panel, FactorModelSpec(n_indicators=2), rng)
        chain.scale_step = 1e5
        for _ in range(10):
            assert chain.scale_move() == -math.inf
        assert chain.scales == 0
        assert np.array_equal(chain.eta, eta) and chain.lam.tolist() == [1.0, 0.8]


class TestCarriedStatistics:
    """An iteration reads ``(Mt eta, Zct eta, Mt eta^2)`` from one panel
    product and carries them through the moves; checked here against the
    residual form and against fresh products."""

    def setup_method(self):
        from arealbayes.factor import _PanelCache

        # two multi-area components and one island
        edges = [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3), (4, 5), (5, 6), (6, 7)]
        self.graph = build_graph(edges, n_areas=9)
        assert self.graph.n_components == 3 and len(self.graph.island_indices) == 1
        rng = np.random.default_rng(41)
        eta, _ = center_by_component(rng.standard_normal(9), self.graph)
        self.alpha = np.array([0.2, 1000.3, -0.4, 0.1])
        self.lam = np.array([1.0, 0.8, -1.2, 0.5])
        z = self.alpha + eta[:, None] * self.lam + rng.standard_normal((9, 4)) * 0.5
        z[:, 2] = self.alpha[2] + self.lam[2] * eta  # noise-free
        z[[1, 8], 0] = np.nan  # missing anchor cells, one on the island
        z[[3, 5], 1] = np.nan
        self.z, self.eta = z, eta
        self.panel = toy_panel(z)
        self.cache = _PanelCache(self.panel)
        self.spec = FactorModelSpec(n_indicators=4)
        self.sigma2 = np.array([0.25, 0.3, 0.01, 0.2])

    def residual_rate(self, alpha, lam, eta):
        observed = ~np.isnan(self.z)
        resid = np.where(observed, self.z - alpha - eta[:, None] * lam, 0.0)
        return self.spec.sigma2_prior_rate + (resid**2).sum(axis=0) / 2.0

    def test_sigma2_rate_matches_the_residual_form(self):
        from arealbayes.factor import _panel_stats, _sigma2_rate

        rng = np.random.default_rng(42)
        # the generating state, where the noise-free indicator's rss is 0,
        # then states around it
        states = [(self.alpha, self.lam, self.eta)]
        for scale in (1e-6, 1e-2, 0.3):
            eta, _ = center_by_component(self.eta + scale * rng.standard_normal(9), self.graph)
            states.append((self.alpha + scale * rng.standard_normal(4),
                           self.lam + scale * rng.standard_normal(4), eta))
        for alpha, lam, eta in states:
            rate = _sigma2_rate(self.cache, alpha, lam, _panel_stats(self.cache, eta), self.spec)
            oracle = self.residual_rate(alpha, lam, eta)
            assert np.allclose(rate, oracle, rtol=1e-9, atol=0), (rate, oracle)
            assert (rate >= self.spec.sigma2_prior_rate).all()
        mt_eta, zc_eta, mt_eta2 = _panel_stats(self.cache, self.eta)
        prior = _sigma2_rate(self.cache, self.alpha, self.lam, (mt_eta, zc_eta, mt_eta2), self.spec)
        assert prior[2] == pytest.approx(self.spec.sigma2_prior_rate, rel=1e-9)
        # rounding that takes the noise-free sum below 0 leaves the prior rate
        low = (mt_eta, zc_eta, mt_eta2 * (1.0 - 1e-12))
        assert _sigma2_rate(self.cache, self.alpha, self.lam, low, self.spec)[2] == (
            self.spec.sigma2_prior_rate
        )

    def test_moves_carry_the_statistics_of_a_fresh_product(self):
        from arealbayes.factor import _panel_stats

        cache, spec = self.cache, self.spec

        def check(stats, eta):
            # each statistic to 1e-12 of the sum of its terms' magnitudes
            fresh = _panel_stats(cache, eta)
            bound = np.abs(cache.K) @ np.array([np.abs(eta), eta * eta]).T
            p = spec.n_indicators
            for got, want, size in zip(stats, fresh, (bound[:p, 0], bound[p:, 0], bound[:p, 1])):
                assert np.all(np.abs(got - want) <= 1e-12 * size), (got, want)

        state = toy_state(self.graph, self.alpha, self.lam, self.eta, self.sigma2)
        chain = stage1_chain(state, self.panel, spec, np.random.default_rng(43))
        chain.draw_eta()
        # the mirrored field fits the anchor worse: the flip always accepts
        chain.lam = self.lam.copy()
        chain.lam[1:] *= -1
        chain.eta = -chain.eta
        chain.stats = _panel_stats(cache, chain.eta)
        chain.signflip()
        assert chain.flips == 1
        check(chain.stats, chain.eta)
        chain.scale_step = 0.1
        for _ in range(20):
            chain.scale_move()
            check(chain.stats, chain.eta)
        assert chain.scales >= 3


class TestGewekeStylePriorCheck:
    def test_gibbs_kernel_holds_prior_marginals(self):
        # successive-conditional simulator: parameters stay prior
        # distributed when data are regenerated after every Gibbs pass.
        # Run with moderately informative priors: under the diffuse
        # defaults the lambda chain's autocorrelation time explodes (data
        # regenerated from the current state keep the conditional pinned
        # there), so no feasible run length estimates its marginal. The
        # kernels are generic in the prior constants, so this still
        # certifies them.
        graph = build_graph(SIX_NODE_EDGES, n_areas=6)
        spec = FactorModelSpec(
            n_indicators=2,
            alpha_prior_variance=1.0,
            loading_prior_variance=1.0,
            sigma2_prior_shape=3.0,
            sigma2_prior_rate=2.0,
        )
        rng = np.random.default_rng(123)
        n_draws = 50_000

        alpha = rng.standard_normal(2) * math.sqrt(spec.alpha_prior_variance)
        lam = np.array([1.0, rng.standard_normal() * math.sqrt(spec.loading_prior_variance)])
        sigma2 = stats.invgamma.rvs(
            spec.sigma2_prior_shape, scale=spec.sigma2_prior_rate, size=2, random_state=rng
        )
        eta = sample_icar(graph, 1.0, rng)

        lam_draws = np.empty(n_draws)
        sig_draws = np.empty(n_draws)
        alpha_draws = np.empty(n_draws)
        for s in range(n_draws):
            z = (
                alpha[None, :]
                + eta[:, None] * lam[None, :]
                + rng.standard_normal((6, 2)) * np.sqrt(sigma2)[None, :]
            )
            state = FactorModelState(alpha, lam, IcarField(graph, eta), sigma2)
            chain = stage1_chain(state, toy_panel(z), spec, rng)
            chain.draw_alpha()
            chain.draw_lambda()
            chain.draw_sigma2()
            chain.draw_eta()
            chain.signflip()
            alpha, lam, sigma2, eta = chain.alpha, chain.lam, chain.sigma2, chain.eta
            lam_draws[s] = lam[1]
            sig_draws[s] = sigma2[0]
            alpha_draws[s] = alpha[0]

        u_lam = stats.norm.cdf(lam_draws, scale=math.sqrt(spec.loading_prior_variance))
        u_sig = stats.invgamma.cdf(
            sig_draws, spec.sigma2_prior_shape, scale=spec.sigma2_prior_rate
        )
        u_alpha = stats.norm.cdf(alpha_draws, scale=math.sqrt(spec.alpha_prior_variance))
        for u in (u_lam, u_sig, u_alpha):
            ecdf = np.arange(1, n_draws + 1) / n_draws
            assert np.max(np.abs(np.sort(u) - ecdf)) < 0.02


class TestFitStage1:
    def test_retained_count_and_reproducibility(self):
        g = make_lattice(3, 3)
        panel, _ = simulate_stage1(g, np.array([1.0, 1.2]), np.array([0.2, 0.2]), seed=0)
        config = McmcConfig(n_chains=2, n_iter=200, burn_in=50, thin=5, seed=42)
        a1 = fit_stage1(panel, g, config=config)
        a2 = fit_stage1(panel, g, config=config)
        assert a1.n_retained == 30
        assert a1.iterations.tolist() == a2.iterations.tolist()
        for c in range(2):
            for name in a1.param_names:
                assert np.array_equal(a1.chains[c][name], a2.chains[c][name])

    def test_config_retaining_no_draw_is_rejected(self):
        g = make_lattice(3, 3)
        panel, _ = simulate_stage1(g, np.array([1.0, 1.2]), np.array([0.2, 0.2]), seed=0)
        config = McmcConfig(n_chains=1, n_iter=10, burn_in=5, thin=10, seed=0)
        with pytest.raises(ValidationError, match="would retain no draws"):
            fit_stage1(panel, g, config=config)

    def test_garbage_in_masked_cells_is_bitwise_ignored(self):
        g = make_lattice(3, 3)
        panel, _ = simulate_stage1(g, np.array([1.0, 1.2]), np.array([0.2, 0.2]), seed=1)
        missing = np.zeros((9, 2), dtype=bool)
        missing[[0, 3, 7], [0, 1, 0]] = True
        clean = IndicatorPanel(
            panel.area_ids, panel.columns, panel.values.copy(), missing=missing
        )
        garbage_values = panel.values.copy()
        garbage_values[missing] = 1e12
        garbage = IndicatorPanel(
            panel.area_ids, panel.columns, garbage_values, missing=missing
        )
        config = McmcConfig(n_chains=1, n_iter=150, burn_in=50, thin=2, seed=3)
        a1 = fit_stage1(clean, g, config=config)
        a2 = fit_stage1(garbage, g, config=config)
        for name in a1.param_names:
            assert np.array_equal(a1.chains[0][name], a2.chains[0][name])

    def test_no_areas_is_rejected_before_any_chain(self, monkeypatch):
        sizes = recording_pool(monkeypatch)
        panel = IndicatorPanel([], ["a", "b"], np.zeros((0, 2)))
        config = McmcConfig(n_chains=2, n_iter=20, burn_in=5, thin=1, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="needs at least one area"):
                fit_stage1(panel, build_graph([], n_areas=0), config=config, n_workers=2)
        assert sizes == []

    def test_anchor_without_an_observed_cell_is_rejected_before_any_chain(self, monkeypatch):
        # a 3-area path whose anchor column is all missing: no data would
        # tie the factor's scale, and the anchor sigma2 would come from its prior
        sizes = recording_pool(monkeypatch)
        panel = toy_panel([[np.nan, 0.5, -0.2], [np.nan, -1.0, 0.4], [np.nan, 0.5, -0.2]])
        config = McmcConfig(n_chains=2, n_iter=20, burn_in=5, thin=1, seed=0)
        with pytest.raises(ValidationError, match="anchor indicator 'c0' has no observed cell"):
            fit_stage1(panel, build_graph([(0, 1), (1, 2)], n_areas=3), config=config,
                       n_workers=2)
        assert sizes == []

    def test_warns_on_unstandardized_panel(self):
        g = make_lattice(2, 2)
        panel = toy_panel(np.full((4, 1), 10.0) + np.arange(4)[:, None])
        with pytest.warns(UserWarning, match="standardized"):
            fit_stage1(
                panel, g,
                config=McmcConfig(n_chains=1, n_iter=20, burn_in=5, thin=1, seed=0),
            )

    def test_quick_recovery(self):
        g = make_lattice(6, 6)
        lam_true = np.array([1.0, 1.4, -0.7])
        panel, eta_true = simulate_stage1(g, lam_true, np.full(3, 0.25), seed=11)
        config = McmcConfig(n_chains=1, n_iter=1500, burn_in=500, thin=2, seed=5)
        archive = fit_stage1(panel, g, config=config)
        eta_hat = archive.get("eta").mean(axis=0)
        assert np.corrcoef(eta_hat, eta_true)[0, 1] > 0.8
        lam_hat = archive.get("lambda").mean(axis=0)
        assert np.max(np.abs(lam_hat - lam_true)) < 0.3

    def test_sign_identifiability_with_opposite_starts(self):
        g = make_lattice(5, 5)
        panel, eta_true = simulate_stage1(
            g, np.array([1.0, 1.2, -0.8]), np.full(3, 0.2), seed=21
        )
        config = McmcConfig(n_chains=2, n_iter=5000, burn_in=2000, thin=3, seed=9)
        archive = fit_stage1(
            panel, g, config=config,
            init_overrides=[{"eta": eta_true}, {"eta": -eta_true}],
        )
        for k in (1, 2):
            assert gelman_rubin(archive, "lambda", index=k) < 1.1

    def test_parallel_chains_match_sequential(self):
        g = make_lattice(3, 3)
        panel, _ = simulate_stage1(g, np.array([1.0, 1.1]), np.array([0.3, 0.3]), seed=2)
        config = McmcConfig(n_chains=2, n_iter=120, burn_in=40, thin=2, seed=17)
        seq = fit_stage1(panel, g, config=config, n_workers=1)
        par = fit_stage1(panel, g, config=config, n_workers=2)
        for c in range(2):
            for name in seq.param_names:
                assert np.array_equal(seq.chains[c][name], par.chains[c][name])

    def test_chain_metadata_records_the_moves(self):
        g = make_lattice(3, 3)
        panel, _ = simulate_stage1(g, np.array([1.0, 1.1]), np.array([0.3, 0.3]), seed=2)
        config = McmcConfig(n_chains=2, n_iter=120, burn_in=40, thin=2, seed=17)
        # chain 1 starts in the sign-mirrored mode, which the flip leaves
        mirrored = [{}, {"eta": center_by_component(-panel.values[:, 0], g)[0]}]
        seq = fit_stage1(panel, g, config=config, n_workers=1, init_overrides=mirrored)
        par = fit_stage1(panel, g, config=config, n_workers=2, init_overrides=mirrored)
        keys = [f"chain{c}_{key}" for c in range(2) for key in ("acceptance", "scale_log_step")]
        assert {k: seq.metadata[k] for k in keys} == {k: par.metadata[k] for k in keys}
        shares = []
        for c in range(2):
            scale, flip = seq.metadata[f"chain{c}_acceptance"].split(";")
            assert scale.startswith("scale=") and flip.startswith("signflip=")
            shares.append((float(scale[6:]), float(flip[9:])))
            step = seq.metadata[f"chain{c}_scale_log_step"]
            assert step.startswith("scale=") and len(step.split(".")[1]) == 4
        assert all(0.0 < scale < 1.0 for scale, _ in shares)
        assert shares[1][1] > 0.0

    def test_pool_is_capped_at_the_chain_count(self, monkeypatch):
        g = make_lattice(3, 3)
        panel, _ = simulate_stage1(g, np.array([1.0, 1.1]), np.array([0.3, 0.3]), seed=2)
        config = McmcConfig(n_chains=2, n_iter=60, burn_in=20, thin=2, seed=17)
        sizes = recording_pool(monkeypatch)
        fit_stage1(panel, g, config=config, n_workers=64)
        assert sizes == [2]

    def test_floored_draws_warn_once_in_the_caller(self, monkeypatch):
        g = make_lattice(3, 3)
        panel, _ = simulate_stage1(g, np.array([1.0, 1.1]), np.array([0.3, 0.3]), seed=2)
        config = McmcConfig(n_chains=2, n_iter=30, burn_in=10, thin=2, seed=17)
        monkeypatch.setattr(factor, "SIGMA2_FLOOR", 1e300)  # forked workers inherit it
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            archive = fit_stage1(panel, g, config=config, n_workers=2)
        floored = [str(w.message) for w in caught if "underflowed" in str(w.message)]
        # every value of every draw: 2 chains x 30 iterations x 2 indicators
        assert floored == ["sigma2 draw underflowed 120 time(s); floored at 1e-12"]
        assert (archive.get("sigma2") == 1e300).all()


class TestFreeIslands:
    """An island's eta is free under its proper N(0, eta_variance) prior."""

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP 1A: center_by_component centres one-area components too, "
        "which pins every island's eta at 0",
    )
    def test_island_sd_matches_the_rao_blackwell_sd(self):
        # a 3x3 lattice plus 2 islands (9 and 10), one island missing a cell
        g = build_graph(list(make_lattice(3, 3).edges()), n_areas=11)
        islands = [9, 10]
        assert g.island_indices.tolist() == islands
        panel, _ = simulate_stage1(g, np.array([1.0, 1.2, -0.8]), np.full(3, 0.3), seed=12)
        values = panel.values.copy()
        values[10, 1] = np.nan
        panel = toy_panel(values)
        spec = FactorModelSpec(n_indicators=3)
        config = McmcConfig(n_chains=2, n_iter=6_000, burn_in=1_000, thin=2, seed=13)
        archive = fit_stage1(panel, g, spec, config, n_workers=1)
        alpha, lam, sigma2, eta = (archive.get(p) for p in ("alpha", "lambda", "sigma2", "eta"))
        for i in islands:
            # an island's eta given the rest is Gaussian: its prior precision
            # plus the observed cells' lambda^2 / sigma2
            observed = ~np.isnan(values[i])
            w = lam[:, observed] / sigma2[:, observed]
            precision = 1.0 / spec.eta_variance + np.sum(w * lam[:, observed], axis=1)
            mean = np.sum(w * (values[i, observed] - alpha[:, observed]), axis=1) / precision
            rao_blackwell = math.sqrt(np.mean(1.0 / precision) + np.var(mean))
            sd = eta[:, i].std()
            assert sd > 0.0, f"island {i}'s eta never moves"
            assert abs(sd - rao_blackwell) < 0.1 * rao_blackwell, (i, sd, rao_blackwell)


class TestDefaultWorkers:
    """``fit_stage1`` without ``n_workers``: one worker per chain up to the usable CPUs."""

    def setup_method(self):
        self.graph = make_lattice(3, 3)
        self.panel, _ = simulate_stage1(
            self.graph, np.array([1.0, 1.1]), np.array([0.3, 0.3]), seed=2
        )

    def config(self, n_chains):
        return McmcConfig(n_chains=n_chains, n_iter=60, burn_in=20, thin=2, seed=17)

    @pytest.mark.parametrize("cpus, chains, expected", [(1, 2, []), (2, 2, [2]), (4, 3, [3])])
    def test_pool_size_follows_the_affinity_set(self, monkeypatch, cpus, chains, expected):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        sizes = recording_pool(monkeypatch)
        fit_stage1(self.panel, self.graph, config=self.config(chains))
        assert sizes == expected

    def test_default_archive_matches_in_process(self, tmp_path):
        default = fit_stage1(self.panel, self.graph, config=self.config(3))
        serial = fit_stage1(self.panel, self.graph, config=self.config(3), n_workers=1)
        fileio.write_archive(default, tmp_path / "default.csv")
        fileio.write_archive(serial, tmp_path / "serial.csv", n_workers=1)
        for suffix in ("", ".meta", ".npy"):
            assert ((tmp_path / f"default.csv{suffix}").read_bytes()
                    == (tmp_path / f"serial.csv{suffix}").read_bytes())


class TestInitOverrides:
    def setup_method(self):
        self.graph = make_lattice(3, 3)
        self.panel, self.eta = simulate_stage1(
            self.graph, np.array([1.0, 1.2]), np.array([0.2, 0.2]), seed=4
        )
        self.config = McmcConfig(n_chains=2, n_iter=30, burn_in=10, thin=2, seed=8)

    def fit(self, overrides):
        return fit_stage1(self.panel, self.graph, config=self.config, init_overrides=overrides)

    def test_one_dict_per_chain(self):
        for overrides in ([{"eta": self.eta}], [{}, {}, {}]):
            with pytest.raises(ValidationError, match="one dict per chain"):
                self.fit(overrides)
        with pytest.raises(ValidationError, match="must be dicts"):
            self.fit([{}, None])

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError, match="unknown key.*lambda.*allowed"):
            self.fit([{}, {"lambda": [1.0, 0.5]}])

    @pytest.mark.parametrize("key, value", [("alpha", [0.3, -0.3]), ("loadings", [1.0, -1.2])])
    def test_alpha_and_loadings_are_not_start_keys(self, key, value):
        with pytest.raises(
            ValidationError, match=f"unknown key.*{key}; allowed: eta, sigma2$"
        ):
            self.fit([{}, {key: value}])

    def test_overrides_pass_the_state_checks(self):
        with pytest.raises(DimensionMismatchError):
            self.fit([{"sigma2": [0.5]}, {}])
        with pytest.raises(ValidationError, match="sigma2 must be positive"):
            self.fit([{}, {"sigma2": [0.5, -1.0]}])
        with pytest.raises(DimensionMismatchError):
            self.fit([{"eta": self.eta[:4]}, {}])

    def test_overrides_set_the_start_of_their_chain(self):
        plain = fit_stage1(self.panel, self.graph, config=self.config)
        empty = self.fit([{}, {}])
        moved = self.fit([{}, {"sigma2": [0.05, 2.0], "eta": -self.eta}])
        for name in plain.param_names:
            assert np.array_equal(plain.chains[0][name], empty.chains[0][name])
            assert np.array_equal(plain.chains[1][name], empty.chains[1][name])
            assert np.array_equal(plain.chains[0][name], moved.chains[0][name])
        assert not np.array_equal(plain.chains[1]["alpha"], moved.chains[1]["alpha"])


class TestSummaries:
    def test_loadings_anchor_row(self):
        rng = np.random.default_rng(0)
        lam_draws = np.column_stack([np.ones(200), rng.normal(1.2, 0.05, 200)])
        archive = make_archive(rng.standard_normal((200, 4)), lam_draws)
        rows = summarize_loadings(archive, names=["a", "b"])
        assert rows[0] == ("a", 1.0, None, None, True)
        assert rows[1].lower < rows[1].mean < rows[1].upper
        assert not rows[1].anchored

    def test_loadings_single_draw_degenerate(self):
        archive = make_archive(np.zeros((1, 3)), np.array([[1.0, 0.7]]))
        row = summarize_loadings(archive)[1]
        assert row.mean == row.lower == row.upper == 0.7

    def test_quintiles_distinct_means_are_permutation(self):
        draws = np.tile(np.array([3.0, 1.0, 5.0, 2.0, 4.0]), (10, 1))
        _, quintiles = factor_quintiles(make_archive(draws))
        assert sorted(quintiles.tolist()) == [1, 2, 3, 4, 5]
        assert quintiles.tolist() == [3, 1, 5, 2, 4]

    def test_quintiles_all_equal_take_lowest(self):
        draws = np.ones((10, 4))
        _, quintiles = factor_quintiles(make_archive(draws))
        assert quintiles.tolist() == [1, 1, 1, 1]

    def test_quintile_cuts_match_sort_oracle(self):
        rng = np.random.default_rng(8)
        draws = np.tile(rng.standard_normal(40), (5, 1))
        means, quintiles = factor_quintiles(make_archive(draws))
        cuts = np.quantile(means, [0.2, 0.4, 0.6, 0.8])
        for i, m in enumerate(means):
            assert quintiles[i] == 1 + int(np.sum(m > cuts))

    def test_exceedance_always_top(self):
        rng = np.random.default_rng(3)
        draws = rng.standard_normal((100, 5))
        draws[:, 2] += 100.0
        probs = factor_exceedance(make_archive(draws))
        assert probs[2] == 1.0

    def test_exceedance_exchangeable_is_near_point_two(self):
        rng = np.random.default_rng(4)
        draws = rng.standard_normal((4000, 10))
        probs = factor_exceedance(make_archive(draws))
        assert np.allclose(probs, 0.2, atol=0.05)

    def test_exceedance_hand_enumeration(self):
        draws = np.array(
            [
                [0.0, 1.0, 2.0],
                [2.0, 1.0, 0.0],
                [0.0, 2.0, 1.0],
                [0.0, 1.0, 2.0],
            ]
        )
        probs = factor_exceedance(make_archive(draws), percentile=0.80)
        # within-draw 80th percentile of (0, 1, 2) interpolates to 1.6, so
        # exactly the argmax area exceeds it in each draw: areas 2, 0, 1, 2
        assert probs.tolist() == [0.25, 0.25, 0.5]

    def test_empty_archive_rejected(self):
        archive = make_archive(np.zeros((2, 3)))
        archive.chains[0]["eta"] = archive.chains[0]["eta"][:0]
        archive.chains[0]["lambda"] = archive.chains[0]["lambda"][:0]
        with pytest.raises(ValidationError, match="empty"):
            factor_quintiles(archive)
