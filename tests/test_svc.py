import math
import os

import numpy as np
import pytest
from helpers import (
    array_delta_scale_move,
    batch_means_z,
    bordered_laplace_reference,
    gaussian_m4_posterior_means,
    gaussian_moments_z,
    random_connected_graph,
    recording_pool,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.linalg import block_diag, null_space

from arealbayes import fileio, gmrf, svc
from arealbayes.errors import ValidationError
from arealbayes.graph import build_graph, csr_matvec
from arealbayes.icar import IcarField, center_by_component, precision_matrix, quad_form_and_rank
from arealbayes.mcmc import ChainArchive, McmcConfig, effective_sample_size
from arealbayes.prep import StrataTable, expected_counts
from arealbayes.simulate import make_lattice, sample_icar, simulate_stage2
from arealbayes.svc import (
    GaussianLikelihood,
    PoissonLikelihood,
    SvcModelSpec,
    SvcModelState,
    center_and_absorb,
    compute_dic,
    compute_waic,
    dic_components,
    fit_stage2_laplace,
    fit_stage2_mcmc,
    format_rate_ratio,
    laplace_precision_grid,
    linear_predictor_vector,
    precision_summary,
    predictor_draws,
    rate_ratio,
    relative_risk_summary,
    risk_exceedance,
    waic_components,
)

SIX_NODE_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]
# connected, with triangles (so at least 3 colour classes) and unequal weights
WEIGHTED_SEVEN_EDGES = [
    (0, 1, 1.5), (1, 2, 0.7), (0, 2, 2.0), (2, 3, 1.2), (3, 4, 0.9),
    (4, 5, 1.8), (5, 6, 0.6), (3, 6, 1.1), (4, 6, 1.3),
]


def m1_spec(n=5, seed=0, offsets=None):
    rng = np.random.default_rng(seed)
    return SvcModelSpec(
        rung="M1",
        covariate=rng.uniform(-0.5, 0.5, n),
        offsets=np.full(n, 30.0) if offsets is None else offsets,
    )


def convolution_pieces(graph, rung, seed=1, n_factors=1):
    rng = np.random.default_rng(seed)
    n = graph.n_areas
    spec = SvcModelSpec(
        rung=rung,
        covariate=rng.uniform(-0.6, 0.6, n),
        offsets=np.full(n, 50.0),
        latent_factors=rng.standard_normal((n, n_factors)),
    )
    state = SvcModelState(
        beta=rng.standard_normal(2 + n_factors) * 0.3,
        phi=rng.standard_normal(n) * 0.1,
        v=IcarField(graph, sample_icar(graph, 0.1, rng)),
        delta=IcarField(graph, sample_icar(graph, 0.1, rng)) if rung == "M4" else None,
        tau_phi=10.0,
        tau_v=10.0,
        tau_delta=10.0 if rung == "M4" else None,
    )
    return spec, state


class TestLinearPredictor:
    def test_m1_null_state_gives_unit_risk(self):
        spec = m1_spec()
        state = SvcModelState(beta=np.zeros(2))
        assert np.allclose(np.exp(linear_predictor_vector(state, spec)), 1.0)

    def test_m4_with_zero_delta_reproduces_m3(self):
        g = make_lattice(3, 3)
        spec4, state4 = convolution_pieces(g, "M4", seed=3)
        state4.delta = IcarField(g, np.zeros(9))
        spec3 = SvcModelSpec(
            rung="M3",
            covariate=spec4.covariate,
            offsets=spec4.offsets,
            latent_factors=spec4.latent_factors,
        )
        state3 = SvcModelState(
            beta=state4.beta, phi=state4.phi, v=state4.v,
            tau_phi=10.0, tau_v=10.0,
        )
        assert np.array_equal(
            linear_predictor_vector(state4, spec4),
            linear_predictor_vector(state3, spec3),
        )

    def test_matches_term_by_term_oracle(self):
        g = build_graph([(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        spec, state = convolution_pieces(g, "M4", seed=4, n_factors=2)
        theta = linear_predictor_vector(state, spec)
        for i in range(5):
            oracle = (
                state.beta[0]
                + state.beta[1] * spec.covariate[i]
                + state.beta[2] * spec.latent_factors[i, 0]
                + state.beta[3] * spec.latent_factors[i, 1]
                + state.v.values[i]
                + state.phi[i]
                + spec.covariate[i] * state.delta.values[i]
            )
            assert abs(theta[i] - oracle) < 1e-12

    def test_rung_state_mismatch_rejected(self):
        spec = m1_spec()
        with pytest.raises(ValidationError, match="fixed effects"):
            linear_predictor_vector(SvcModelState(beta=np.zeros(3)), spec)
        g = make_lattice(2, 3)
        spec3, state3 = convolution_pieces(g, "M3", seed=5)
        state3.v = None
        with pytest.raises(ValidationError, match="convolution"):
            linear_predictor_vector(state3, spec3)


class TestPoissonLoglik:
    """``PoissonLikelihood.loglik`` at ``linear_predictor_vector``, as the samplers take it."""

    def test_zero_counts_unit_rate(self):
        spec = m1_spec(n=4, offsets=np.ones(4))
        state = SvcModelState(beta=np.zeros(2))
        theta = linear_predictor_vector(state, spec)
        assert PoissonLikelihood(np.zeros(4), spec.offsets).loglik(theta) == pytest.approx(-4.0)

    def test_masked_area_contributes_exactly_zero(self):
        spec = m1_spec(n=3)
        state = SvcModelState(beta=np.array([0.3, -0.5]))
        full = np.array([4.0, 7.0, 2.0])
        masked = full.copy()
        masked[1] = np.nan
        lik = PoissonLikelihood(full, spec.offsets)
        theta = linear_predictor_vector(state, spec)
        contribution = lik.point_terms(theta[None, :])[0, 1]
        assert PoissonLikelihood(masked, spec.offsets).loglik(theta) == pytest.approx(
            lik.loglik(theta) - contribution, abs=1e-12
        )

    def test_matches_pmf_oracle(self):
        rng = np.random.default_rng(6)
        spec = m1_spec(n=8, seed=7, offsets=rng.uniform(5, 50, 8))
        state = SvcModelState(beta=np.array([0.2, -0.8]))
        counts = rng.poisson(10, 8).astype(float)
        theta = linear_predictor_vector(state, spec)
        mu_e = spec.offsets * np.exp(theta)
        oracle = sum(stats.poisson.logpmf(int(counts[i]), mu_e[i]) for i in range(8))
        assert abs(PoissonLikelihood(counts, spec.offsets).loglik(theta) - oracle) < 1e-10

    def test_negative_count_rejected(self):
        spec = m1_spec(n=2)
        with pytest.raises(ValidationError, match="nonnegative"):
            PoissonLikelihood(np.array([-1.0, 2.0]), spec.offsets)

    def test_nesting_m4_delta_zero_equals_m3_likelihood(self):
        g = make_lattice(3, 3)
        spec4, state4 = convolution_pieces(g, "M4", seed=8)
        state4.delta = IcarField(g, np.zeros(9))
        counts = np.round(np.abs(np.random.default_rng(9).standard_normal(9)) * 20)
        spec3 = SvcModelSpec(
            rung="M3", covariate=spec4.covariate, offsets=spec4.offsets,
            latent_factors=spec4.latent_factors,
        )
        state3 = SvcModelState(
            beta=state4.beta, phi=state4.phi, v=state4.v, tau_phi=1.0, tau_v=1.0
        )
        lik = PoissonLikelihood(counts, spec4.offsets)
        assert lik.loglik(linear_predictor_vector(state4, spec4)) == lik.loglik(
            linear_predictor_vector(state3, spec3)
        )


# the fields of svc._site_proposal's two gradient weights: 1 gives delta's
# Newton step, 0 v's random walk; a Newton case is identified by its
# likelihood alone
PROPOSALS = {"newton": ("delta", 1.0), "walk": ("v", 0.0)}
PROPOSAL_CASES = [
    pytest.param("newton", "poisson", id="poisson"),
    pytest.param("newton", "gaussian", id="gaussian"),
    pytest.param("walk", "poisson", id="walk-poisson"),
    pytest.param("walk", "gaussian", id="walk-gaussian"),
]


class TestDeltaNewtonProposal:
    """The site proposal, accepted with its Metropolis-Hastings ratio, at
    both gradient weights: delta's Newton proposal N(delta + g / h, 1 / h)
    and v's random walk, per area of a colour class."""

    def pieces(self, likelihood, seed):
        g = build_graph(WEIGHTED_SEVEN_EDGES + [(7, 8, 1.0)], n_areas=10)  # plus an island
        spec, state = convolution_pieces(g, "M4", seed=seed)
        rng = np.random.default_rng(seed + 100)
        if likelihood == "poisson":
            lik = PoissonLikelihood(rng.poisson(50.0, g.n_areas).astype(float), spec.offsets)
        else:
            lik = GaussianLikelihood(rng.standard_normal(g.n_areas), 0.3)
        return g, spec, state, lik

    def proposal(self, propose, g, spec, state, lik, c, z):
        """``propose``'s proposal for colour class c of the state's field."""
        name, weight = PROPOSALS[propose]
        idx, block = g.colour_classes[c], g.colour_blocks[c]
        coef = spec.covariate[idx] if name == "delta" else np.ones(len(idx))
        wplus = g.wplus_eff[idx]
        theta = linear_predictor_vector(state, spec)[idx]
        exp_theta = np.exp(theta) if isinstance(lik, PoissonLikelihood) else None
        values = getattr(state, name).values
        # the walk's sd: 0.3 scaled by a factor in (0.5, 2) per area
        steps = 0.3 * np.exp(np.linspace(-0.7, 0.7, len(idx)))
        return svc._site_proposal(
            values[idx], z, theta, exp_theta, (block @ values) / wplus,
            getattr(state, f"tau_{name}") * wplus, coef, coef * coef,
            lik.lik_a[idx], lik.lik_b[idx],
            np.full(len(idx), weight), (1.0 - weight) / steps**2,
        )

    def with_class(self, propose, state, c_idx, values):
        name = PROPOSALS[propose][0]
        fields = {"v": state.v, "delta": state.delta}
        new = fields[name].values.copy()
        new[c_idx] = values
        fields[name] = IcarField(state.v.graph, new)
        return SvcModelState(
            beta=state.beta, phi=state.phi, **fields,
            tau_phi=state.tau_phi, tau_v=state.tau_v, tau_delta=state.tau_delta,
        )

    def steer(self, propose, g, spec, state, lik, c, target):
        """The proposal from ``state`` that lands on ``target`` (to rounding)."""
        size = len(g.colour_classes[c])
        at0 = self.proposal(propose, g, spec, state, lik, c, np.zeros(size))[0]
        at1 = self.proposal(propose, g, spec, state, lik, c, np.ones(size))[0]
        return self.proposal(propose, g, spec, state, lik, c, (target - at0) / (at1 - at0))

    @pytest.mark.parametrize("propose, likelihood", PROPOSAL_CASES)
    def test_log_ratio_antisymmetry(self, propose, likelihood):
        g, spec, state, lik = self.pieces(likelihood, seed=10)
        values = getattr(state, PROPOSALS[propose][0]).values
        rng = np.random.default_rng(12)
        for c, idx in enumerate(g.colour_classes):
            a = values[idx]
            fwd = self.steer(
                propose, g, spec, state, lik, c, a + rng.standard_normal(len(idx)) * 0.3
            )
            b = fwd[0]
            moved = self.with_class(propose, state, idx, b)
            rev = self.steer(propose, g, spec, moved, lik, c, a)
            assert np.max(np.abs(rev[0] - a)) < 1e-12
            assert np.max(np.abs(fwd[4] + rev[4])) < 1e-9

    @pytest.mark.parametrize("propose, likelihood", PROPOSAL_CASES)
    def test_log_ratio_matches_dense_posterior_and_proposal_densities(self, propose, likelihood):
        # per area: log pi(b) q(a | b) - log pi(a) q(b | a) with pi the full
        # M4 posterior (dense ICAR forms, islands proper) and, for the Newton
        # proposal, q built from a hand-written gradient and curvature of
        # the site's log conditional; the walk's q is symmetric
        g, spec, state, lik = self.pieces(likelihood, seed=13)
        Q = precision_matrix(g, island_proper=True)
        rng = np.random.default_rng(14)
        poisson = isinstance(lik, PoissonLikelihood)

        def log_post(st):
            v, d = st.v.values, st.delta.values
            return (lik.loglik(linear_predictor_vector(st, spec))
                    - 0.5 * st.tau_v * v @ Q @ v - 0.5 * st.tau_delta * d @ Q @ d)

        def newton(st, i):
            d, x = st.delta.values, spec.covariate[i]
            theta = linear_predictor_vector(st, spec)[i]
            prior_prec = st.tau_delta * Q[i, i]
            grad = -st.tau_delta * (Q[i] @ d)
            if not lik.mask[i]:
                h = prior_prec
            elif poisson:
                rate = lik.offsets[i] * math.exp(theta)
                grad += x * (lik.y[i] - rate)
                h = prior_prec + x * x * rate
            else:
                grad += x * (lik.y[i] - theta) / lik.noise_variance
                h = prior_prec + x * x / lik.noise_variance
            return d[i] + grad / h, h

        for c, idx in enumerate(g.colour_classes):
            got = self.proposal(propose, g, spec, state, lik, c, rng.standard_normal(len(idx)))
            for j, i in enumerate(idx):
                moved = self.with_class(propose, state, [i], got[0][j])
                expected = log_post(moved) - log_post(state)
                if propose == "newton":
                    mean_a, h_a = newton(state, i)
                    mean_b, h_b = newton(moved, i)
                    expected += (
                        stats.norm.logpdf(state.delta.values[i], mean_b, 1 / math.sqrt(h_b))
                        - stats.norm.logpdf(got[0][j], mean_a, 1 / math.sqrt(h_a))
                    )
                assert abs(got[4][j] - expected) < 1e-8, (c, i)
                if propose == "newton" and not poisson:
                    # the proposal is the exact conditional, so every move is accepted
                    assert abs(got[4][j]) < 1e-9


class TestRidgeMoves:
    """Exact translations of (beta, phi, v) along lines of constant theta."""

    GRAPHS = {
        "connected": (list(make_lattice(3, 4).edges()), 12),
        # two multi-area components and one island
        "components": ([(0, 1, 1.0), (1, 2, 2.0), (0, 2, 0.5), (3, 4, 1.0), (4, 5, 1.5),
                        (5, 6, 1.0), (3, 6, 0.7)], 8),
    }

    def pieces(self, kind, seed):
        edges, n = self.GRAPHS[kind]
        g = build_graph(edges, n_areas=n)
        spec, state = convolution_pieces(g, "M4", seed=seed, n_factors=2)
        beta, phi = state.beta.copy(), state.phi.copy()
        # the chain's v: zero sum on every component, islands included
        v = center_by_component(np.random.default_rng(seed).standard_normal(n), g)[0]
        return g, spec, beta, phi, v

    @pytest.mark.parametrize("kind", list(GRAPHS))
    def test_translations_keep_theta_and_component_sums(self, kind):
        g, spec, beta, phi, v = self.pieces(kind, seed=50)
        X = spec.fixed_design()
        ridges = svc._RidgeMoves(X, g, spec.beta_prior_variance)
        theta = X @ beta + phi + v
        before = beta.copy()
        ridges.move(beta, phi, v, 3.0, 7.0, np.random.default_rng(51).standard_normal(7) * 3)
        assert np.max(np.abs(X @ beta + phi + v - theta)) < 1e-12
        sums = np.bincount(g.component_labels, weights=v, minlength=g.n_components)
        assert np.max(np.abs(sums)) < 1e-12
        assert np.all(v[g.island_indices] == 0.0)
        assert np.all(beta != before)

    @pytest.mark.parametrize("kind", list(GRAPHS))
    def test_each_move_draws_its_line_conditional(self, kind):
        # oracle: the directions built by hand, the log prior along each
        # evaluated densely, and a and b of its quadratic read off at c = -1, 0, 1
        g, spec, beta, phi, v = self.pieces(kind, seed=52)
        X = spec.fixed_design()
        n, K = X.shape
        tau_phi, tau_v = 3.0, 7.0
        z = np.random.default_rng(53).standard_normal(2 * K - 1)
        Q = precision_matrix(g, island_proper=True)
        directions = []
        for k in range(K):
            d_beta = np.zeros(K)
            d_beta[k] = 1.0
            directions.append((d_beta, -X[:, k], np.zeros(n)))
        for k in range(1, K):
            u = X[:, k].copy()
            for members in g.components():
                u[members] -= X[members, k].mean()
            d_beta = np.zeros(K)
            d_beta[k], d_beta[0] = 1.0, -X[:, k].mean()
            directions.append((d_beta, -(X[:, k] - u - X[:, k].mean()), -u))

        def log_prior(b, p, w):
            return -(b @ b) / (2 * spec.beta_prior_variance) - tau_phi * (p @ p) / 2 - tau_v * (w @ Q @ w) / 2

        expected = [beta.copy(), phi.copy(), v.copy()]
        for zm, (d_beta, d_phi, d_v) in zip(z, directions):
            f = [log_prior(*(s + c * d for s, d in zip(expected, (d_beta, d_phi, d_v))))
                 for c in (-1.0, 0.0, 1.0)]
            a = 2 * f[1] - f[0] - f[2]
            b = (f[2] - f[0]) / 2
            c = b / a + zm / math.sqrt(a)
            expected = [s + c * d for s, d in zip(expected, (d_beta, d_phi, d_v))]

        svc._RidgeMoves(X, g, spec.beta_prior_variance).move(beta, phi, v, tau_phi, tau_v, z)
        for got, want in zip((beta, phi, v), expected):
            assert np.allclose(got, want, rtol=0, atol=1e-8)

    @pytest.mark.parametrize("kind", list(GRAPHS))
    def test_delta_direction_keeps_theta_and_draws_its_line_conditional(self, kind):
        # with the covariate the moves end with (delta + c u, beta - c gamma,
        # v - c rho, phi - c r); oracle: that direction built by hand, the
        # earlier moves taken from the package (checked above), and the
        # dense log prior along the direction read off at c = -1, 0, 1
        g, spec, beta, phi, v = self.pieces(kind, seed=54)
        X, x = spec.fixed_design(), spec.covariate
        n, K = X.shape
        taus = (3.0, 7.0, 5.0)
        delta = center_by_component(np.random.default_rng(55).standard_normal(n), g)[0]
        z = np.random.default_rng(56).standard_normal(2 * K)
        Q = precision_matrix(g, island_proper=True)
        theta = X @ beta + phi + v + x * delta

        u = x.copy()
        for members in g.components():
            u[members] -= x[members].mean()
        gamma = np.linalg.lstsq(X, x * u, rcond=None)[0]
        e = x * u - X @ gamma
        r = np.zeros(n)
        for members in g.components():
            r[members] = e[members].mean()
        direction = (-gamma, -r, -(e - r), u)

        def log_prior(b, p, w, d):
            return (-(b @ b) / (2 * spec.beta_prior_variance) - taus[0] * (p @ p) / 2
                    - taus[1] * (w @ Q @ w) / 2 - taus[2] * (d @ Q @ d) / 2)

        expected = [beta.copy(), phi.copy(), v.copy(), delta.copy()]
        svc._RidgeMoves(X, g, spec.beta_prior_variance).move(*expected[:3], *taus[:2], z[:-1])
        f = [log_prior(*(s + c * d for s, d in zip(expected, direction)))
             for c in (-1.0, 0.0, 1.0)]
        a = 2 * f[1] - f[0] - f[2]
        c = (f[2] - f[0]) / 2 / a + z[-1] / math.sqrt(a)
        expected = [s + c * d for s, d in zip(expected, direction)]

        ridges = svc._RidgeMoves(X, g, spec.beta_prior_variance, x)
        assert ridges.n_moves == 2 * K
        ridges.move(beta, phi, v, *taus[:2], z, delta, taus[2])
        for got, want in zip((beta, phi, v, delta), expected):
            assert np.allclose(got, want, rtol=0, atol=1e-8)
        assert np.max(np.abs(X @ beta + phi + v + x * delta - theta)) < 1e-12
        for field in (v, delta):
            sums = np.bincount(g.component_labels, weights=field, minlength=g.n_components)
            assert np.max(np.abs(sums)) < 1e-12
            assert np.all(field[g.island_indices] == 0.0)


    def test_no_delta_direction_for_a_covariate_constant_on_every_component(self):
        g, spec, _, _, _ = self.pieces("components", seed=57)
        x = np.where(g.component_labels == 0, 0.3, -0.2)
        ridges = svc._RidgeMoves(spec.fixed_design(), g, spec.beta_prior_variance, x)
        assert ridges.n_moves == 2 * spec.n_fixed - 1
        assert len(ridges.directions) == 3


def scale_chain(g, seed, taus):
    """An M4 chain with sampled precisions on ``g`` whose state is drawn
    from ``seed``; returns the spec and the chain."""
    spec, state = convolution_pieces(g, "M4", seed=seed)
    spec.precision_prior_shape, spec.precision_prior_rate = 2.5, 1.5
    counts = np.random.default_rng(seed).poisson(50.0, g.n_areas).astype(float)
    config = McmcConfig(n_chains=1, n_iter=10, burn_in=5, thin=1, seed=0)
    chain = svc._Stage2Chain(
        np.random.default_rng(seed), config,
        (spec, PoissonLikelihood(counts, spec.offsets), g, True, taus),
    )
    # the chain's fields: zero sum on every component, islands at 0
    chain.beta[:] = state.beta
    chain.fields.update(
        phi=state.phi.copy(),
        v=center_by_component(state.v.values, g)[0],
        delta=center_by_component(state.delta.values, g)[0],
    )
    return spec, chain


class TestScaleMoves:
    """Metropolis scale moves of (field, precision) that keep theta fixed."""

    # a weighted component, a second component and an island
    EDGES, N = WEIGHTED_SEVEN_EDGES + [(7, 8, 1.0), (8, 9, 2.5)], 11
    TAUS = {"tau_phi": 3.0, "tau_v": 7.0, "tau_delta": 5.0}

    def chain(self, seed):
        g = build_graph(self.EDGES, n_areas=self.N)
        return (g, *scale_chain(g, seed, self.TAUS))

    @staticmethod
    def state(chain):
        return [chain.beta.copy()] + [f.copy() for f in chain.fields.values()] + [dict(chain.taus)]

    @staticmethod
    def predictor(chain, spec):
        f = chain.fields
        return chain.X @ chain.beta + f["phi"] + f["v"] + spec.covariate * f["delta"]

    @staticmethod
    def scale(chain, name, log_s, log_u):
        """One scale move through the sampler's entry points: "v" on the
        arrays, "delta" and "ridge" on carried statistics whose shifts are
        then applied; returns the log ratio."""
        if name == "v":
            return chain._scale_v(log_s, log_u)
        moves = svc._DeltaScaleMoves(chain)
        logr = moves.move(name, log_s, log_u)
        moves.apply()
        return logr

    @pytest.mark.parametrize("name", svc.SCALE_MOVES)
    def test_moves_keep_theta_zero_sums_and_islands(self, name):
        g, spec, chain = self.chain(seed=70)
        theta = self.predictor(chain, spec)
        before = {key: f.copy() for key, f in chain.fields.items()}
        # log u = -inf takes the move whatever its ratio
        self.scale(chain, name, 0.4, -math.inf)
        assert chain.scale_accepted[name] == 1
        assert np.max(np.abs(self.predictor(chain, spec) - theta)) < 1e-12
        for key in ("v", "delta"):
            sums = np.bincount(g.component_labels, weights=chain.fields[key],
                               minlength=g.n_components)
            assert np.max(np.abs(sums)) < 1e-12
            assert np.array_equal(chain.fields[key][g.island_indices],
                                  before[key][g.island_indices])
        scaled = "v" if name == "v" else "delta"
        assert np.allclose(chain.fields[scaled], math.exp(0.4) * before[scaled], rtol=1e-14)

    @pytest.mark.parametrize("name", svc.SCALE_MOVES)
    def test_log_ratio_is_the_dense_posterior_ratio_plus_log_jacobian(self, name):
        # the joint density the chain targets, written densely: the Poisson
        # likelihood, N(0, 1000) fixed effects, iid phi, ICAR v and delta
        # whose Gamma updates have rank n - components + islands, and the
        # Gamma(2.5, 1.5) precisions; the move scales d = n - components
        # free field coordinates by s and the precision by 1 / s^2
        g, spec, chain = self.chain(seed=71)
        Q = precision_matrix(g, island_proper=True)
        lik = chain.lik
        a, b = spec.precision_prior_shape, spec.precision_prior_rate
        rank, d = 9, 8

        def log_post(beta, phi, v, delta, taus):
            theta = chain.X @ beta + phi + v + spec.covariate * delta
            out = lik.loglik(theta) - beta @ beta / 2000.0
            out += g.n_areas / 2 * math.log(taus["tau_phi"]) - taus["tau_phi"] * (phi @ phi) / 2
            for field, tau in ((v, taus["tau_v"]), (delta, taus["tau_delta"])):
                out += rank / 2 * math.log(tau) - tau * (field @ Q @ field) / 2
            return out + sum((a - 1) * math.log(t) - b * t for t in taus.values())

        for log_s in (-0.7, -0.05, 0.3, 1.1):
            start = self.state(chain)
            # log u = inf rejects: the ratio comes back and nothing moves
            logr = self.scale(chain, name, log_s, math.inf)
            for got, want in zip(self.state(chain), start):
                assert got == want if isinstance(got, dict) else np.array_equal(got, want)
            self.scale(chain, name, log_s, -math.inf)
            expected = log_post(*self.state(chain)) - log_post(*start) + (d - 2) * log_s
            assert abs(logr - expected) < 1e-9 * max(1.0, abs(expected)), (log_s, logr, expected)

    @pytest.mark.parametrize("name", svc.SCALE_MOVES)
    def test_extreme_log_step_is_rejected(self, name):
        g, spec, chain = self.chain(seed=72)
        start = self.state(chain)
        for log_s in (1e6, -1e6, 710.0, -710.0):
            assert self.scale(chain, name, log_s, -math.inf) == -math.inf
        for got, want in zip(self.state(chain), start):
            assert got == want if isinstance(got, dict) else np.array_equal(got, want)
        # a whole iteration with that log-step rejects and shrinks it
        chain.scale_steps[name] = 1e6
        chain.step(1, 0.5)
        assert chain.scale_accepted[name] == 0
        assert chain.scale_steps[name] < 1e6


class TestScaleRounds:
    """The scale moves and precision draws of an M4 iteration, the "delta"
    and "ridge" moves on carried statistics, against the same iteration with
    those moves made on the arrays (``helpers.array_delta_scale_move``) and
    the Gamma rates from ``quad_form_and_rank``, from one state and one
    block of variates: v's move, ``SCALE_ROUNDS`` rounds of the two delta
    moves and tau_delta's Gamma draw, then tau_phi's and tau_v's. Every
    move's decision and log ratio, and the final state, must agree."""

    STEPS = {"v": 0.3, "delta": 0.6, "ridge": 0.6}

    @staticmethod
    def array_iteration(chain, normals, log_us, gammas):
        taus, spec, fields = chain.taus, chain.spec, chain.fields
        a, b = spec.precision_prior_shape, spec.precision_prior_rate
        chain._scale_v(chain.scale_steps["v"] * normals[0], log_us[0])
        decisions, shapes = [], []
        for r in range(svc.SCALE_ROUNDS):
            for j, name in enumerate(("delta", "ridge"), start=1 + 2 * r):
                logr = array_delta_scale_move(
                    chain, name, chain.scale_steps[name] * normals[j], log_us[j]
                )
                decisions.append((log_us[j] < logr, logr))
            quad, rank = quad_form_and_rank(chain.graph, fields["delta"])
            taus["tau_delta"] = gammas[r] / (b + quad / 2)
            shapes.append(a + rank / 2)
        phi = fields["phi"]
        taus["tau_phi"] = gammas[-2] / (b + phi @ phi / 2)
        quad, rank = quad_form_and_rank(chain.graph, fields["v"])
        taus["tau_v"] = gammas[-1] / (b + quad / 2)
        return decisions, shapes + [a + spec.n_areas / 2, a + rank / 2]

    @pytest.mark.parametrize("graph", ["components-and-island", "lattice"])
    def test_carried_rounds_match_array_rounds(self, monkeypatch, graph):
        if graph == "lattice":
            g = make_lattice(6, 6)
        else:
            g = build_graph(TestScaleMoves.EDGES, n_areas=TestScaleMoves.N)
        decisions = []
        move = svc._DeltaScaleMoves.move

        def recording_move(moves, name, log_s, log_u):
            logr = move(moves, name, log_s, log_u)
            decisions.append((log_u < logr, logr))
            return logr

        monkeypatch.setattr(svc._DeltaScaleMoves, "move", recording_move)
        accepts, n_scale = 0, 1 + 2 * svc.SCALE_ROUNDS
        for trial in range(30):
            chains = [scale_chain(g, 90 + trial, TestScaleMoves.TAUS)[1] for _ in range(2)]
            for chain in chains:
                chain.scale_steps.update(self.STEPS)
            carried, array = chains
            rng = np.random.default_rng(trial)
            normals = rng.standard_normal(n_scale).tolist()
            log_us = np.log1p(-rng.random(n_scale)).tolist()
            gammas = rng.standard_gamma(carried.gamma_shapes).tolist()
            decisions.clear()
            carried._precision_moves(0.0, normals, log_us, gammas)
            expected, shapes = self.array_iteration(array, normals, log_us, gammas)
            assert carried.gamma_shapes.tolist() == shapes
            assert [d for d, _ in decisions] == [d for d, _ in expected], trial
            for (_, got), (_, want) in zip(decisions, expected):
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (trial, got, want)
            accepts += sum(d for d, _ in expected)
            for name in ("phi", "v", "delta"):
                got, want = carried.fields[name], array.fields[name]
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), (trial, name)
            assert abs(carried.beta[0] - array.beta[0]) <= 1e-12 * abs(array.beta[0])
            for name, want in array.taus.items():
                assert abs(carried.taus[name] - want) <= 1e-12 * want, (trial, name)
        # both decisions are exercised: 30 trials x SCALE_ROUNDS x 2 moves
        assert 0 < accepts < 30 * svc.SCALE_ROUNDS * 2


class TestQuadForm:
    """``icar.quad_form_and_rank``'s ``x' Q x``, which the scale moves and
    the Gamma rates read, against the dense product with
    ``precision_matrix(g, island_proper=True)``, whose unit island diagonal
    is the island policy's term."""

    @pytest.mark.parametrize("kind", ["lattice", "components-and-islands"])
    def test_q_product_equals_quad_form_and_rank(self, kind):
        if kind == "lattice":
            g = make_lattice(7, 8)
        else:
            edges, n = TestJointSweepSteps.GRAPHS["components"]
            g = build_graph(edges, n_areas=n)
        Q = precision_matrix(g, island_proper=True)
        rng = np.random.default_rng(75)
        for _ in range(5):
            x = rng.standard_normal(g.n_areas)
            want = x @ Q @ x
            assert abs(quad_form_and_rank(g, x)[0] - want) <= 1e-12 * want


class TestMatvec:
    def test_equals_the_sparse_product_bit_for_bit(self):
        g = build_graph(WEIGHTED_SEVEN_EDGES + [(7, 8, 1.0), (8, 9, 2.5)], n_areas=11)
        x = np.random.default_rng(73).standard_normal(2 * g.n_areas)
        for A in [*g.colour_blocks, gmrf.icar_precision(g)]:
            for vec in (x[: g.n_areas], x[::2]):
                assert np.array_equal(csr_matvec(A, vec), A @ vec)

    def test_wrong_length_is_rejected(self):
        g = make_lattice(3, 3)
        with pytest.raises(ValidationError, match="shape"):
            csr_matvec(g.colour_blocks[0], np.zeros(8))
        with pytest.raises(ValidationError, match="shape"):
            g.neighbour_sums(np.zeros(8))

    def test_neighbour_sums_are_the_weight_matrix_product(self):
        # a weighted component, a second component and an island
        g = build_graph(WEIGHTED_SEVEN_EDGES + [(7, 8, 1.0), (8, 9, 2.5)], n_areas=11)
        x = np.random.default_rng(74).standard_normal(g.n_areas)
        assert np.allclose(g.neighbour_sums(x), g.dense_weights() @ x, rtol=1e-14, atol=0)
        assert g.neighbour_sums(x)[10] == 0.0


class TestSiteExchanges:
    """Exact Gibbs exchanges along (phi_i + c, v_i - c) and
    (phi_i + c x_i, delta_i - c), which keep every theta_i unchanged, in the
    sweep over v alone (M3, "v") and the joint sweep over [v; delta] (M4,
    "delta")."""

    GRAPHS = {
        "lattice": (list(make_lattice(4, 5).edges()), 20),
        # a weighted component, a second component and an island
        "components": (WEIGHTED_SEVEN_EDGES + [(7, 8, 1.0), (8, 9, 2.5)], 11),
    }
    TAUS = {"tau_phi": 3.0, "tau_v": 7.0, "tau_delta": 5.0}
    RUNGS = {"v": "M3", "delta": "M4"}

    def chain(self, kind, field, seed):
        edges, n = self.GRAPHS[kind]
        g = build_graph(edges, n_areas=n)
        spec, state = convolution_pieces(g, self.RUNGS[field], seed=seed)
        counts = np.random.default_rng(seed).poisson(50.0, n).astype(float)
        config = McmcConfig(n_chains=1, n_iter=10, burn_in=5, thin=1, seed=0)
        chain = svc._Stage2Chain(
            np.random.default_rng(seed), config,
            (spec, PoissonLikelihood(counts, spec.offsets), g, False, self.TAUS),
        )
        chain.beta[:] = state.beta
        chain.fields.update(phi=state.phi.copy(), v=state.v.values.copy())
        if state.delta is not None:
            chain.fields["delta"] = state.delta.values.copy()
        return g, spec, chain

    @staticmethod
    def predictor(chain):
        f = chain.fields
        theta = chain.X @ chain.beta + f["phi"] + f["v"]
        return theta + chain.spec.covariate * f["delta"] if "delta" in f else theta

    @staticmethod
    def stacked(chain):
        f = chain.fields
        return np.concatenate([f[name] for name in ("v", "delta") if name in f])

    def sweep(self, chain, log_us, seed):
        """The joint sweep with the given log uniforms (in step order), its
        stacked field written back into the chain. Returns its (accepted,
        divergent), the predictor array it kept up to date, its proposal
        normals and its exchange normals."""
        normals, exchange_z = np.random.default_rng(seed).standard_normal((2, len(log_us)))
        theta = self.predictor(chain)
        values = self.stacked(chain)
        accept, div, _ = chain.sites.sweep(
            values, chain.fields["phi"], theta, np.exp(theta), self.TAUS, normals, exchange_z,
            log_us,
        )
        n = chain.spec.n_areas
        for k, name in enumerate(("v", "delta")[:len(values) // n]):
            chain.fields[name] = values[k * n:(k + 1) * n]
        moved = int(np.count_nonzero(accept)), int(np.count_nonzero(div))
        return moved, theta, normals, exchange_z

    @pytest.mark.parametrize("kind", list(GRAPHS))
    @pytest.mark.parametrize("field", ["v", "delta"])
    def test_exchanges_keep_theta(self, kind, field):
        g, spec, chain = self.chain(kind, field, seed=60)
        before = self.predictor(chain)
        phi = chain.fields["phi"].copy()
        # log u = inf rejects every proposal, so only the exchanges move
        m = chain.sites.n_sites
        (accepted, _), theta, _, _ = self.sweep(chain, np.full(m, np.inf), 61)
        assert accepted == 0
        assert np.max(np.abs(self.predictor(chain) - before)) < 1e-12
        assert np.array_equal(theta, before)
        assert np.all(chain.fields["phi"] != phi)

    @pytest.mark.parametrize("kind", list(GRAPHS))
    @pytest.mark.parametrize(
        "field, accept", [("v", False), ("v", True), ("delta", False), ("delta", True)]
    )
    def test_each_exchange_draws_its_line_conditional(self, kind, field, accept):
        # oracle: step by step and site by site, the log prior of (phi, v,
        # delta) evaluated densely along the site's line, and a and b of its
        # quadratic read off at c = -1, 0, 1; with accept, every v proposal
        # (a random walk of sd walk_prec^-1/2) is taken first and every
        # delta proposal rejected
        g, spec, chain = self.chain(kind, field, seed=62)
        n, sites = g.n_areas, chain.sites
        tau_phi = self.TAUS["tau_phi"]
        Q = precision_matrix(g, island_proper=True)
        phi, values = chain.fields["phi"].copy(), self.stacked(chain)
        log_us = np.where(accept & ~sites.is_delta, -np.inf, np.inf)
        (accepted, _), _, normals, z = self.sweep(chain, log_us, 63)
        assert accepted == (n if accept else 0)

        def log_prior(p, f):
            out = -tau_phi * (p @ p) / 2
            for k, name in enumerate(("v", "delta")[:len(f) // n]):
                x = f[k * n:(k + 1) * n]
                out -= self.TAUS[f"tau_{name}"] * (x @ Q @ x) / 2
            return out

        for sl, step_sites, areas, *_ in sites.steps:
            pos = np.arange(sl.start, sl.stop)
            if accept:
                walk = ~sites.is_delta[sl]
                sd = sites.walk_prec[sl][walk] ** -0.5
                values[step_sites[walk]] += sd * normals[sl][walk]
            for j, site, area in zip(pos, step_sites, areas):
                d_phi, d_field = np.zeros(n), np.zeros(len(values))
                d_phi[area], d_field[site] = sites.coef[j], -1.0
                f = [log_prior(phi + c * d_phi, values + c * d_field) for c in (-1.0, 0.0, 1.0)]
                a = 2 * f[1] - f[0] - f[2]
                b = (f[2] - f[0]) / 2
                c = b / a + z[j] / math.sqrt(a)
                phi, values = phi + c * d_phi, values + c * d_field
        assert np.allclose(chain.fields["phi"], phi, rtol=0, atol=1e-9)
        assert np.allclose(self.stacked(chain), values, rtol=0, atol=1e-9)


class TestJointSweepSteps:
    """The steps of the joint sweep: each site of [v; delta] once a sweep,
    and no step holds both v_i and delta_i or two ICAR neighbours of one
    field, so the sites of a step are conditionally independent."""

    GRAPHS = {
        "lattice": (list(make_lattice(5, 6).edges()), 30),
        # test_gmrf.py's weighted multi-component graph with islands
        "components": ([(0, 2, 1.5), (2, 5, 0.7), (0, 5, 2.0), (5, 7, 1.2), (1, 3, 0.9),
                        (3, 4, 1.8), (4, 8, 0.6), (1, 8, 1.1), (8, 9, 1.3), (3, 9, 0.4),
                        (11, 12, 0.8), (12, 13, 1.4), (11, 13, 1.0), (14, 15, 2.5)], 16),
        # one colour class: M4 sweeps v, then delta
        "islands": ([], 5),
    }

    @pytest.mark.parametrize("kind", list(GRAPHS))
    @pytest.mark.parametrize("rung", ["M3", "M4"])
    def test_steps_hold_conditionally_independent_sites(self, kind, rung):
        edges, n = self.GRAPHS[kind]
        g = build_graph(edges, n_areas=n)
        spec, _ = convolution_pieces(g, rung, seed=64)
        config = McmcConfig(n_chains=1, n_iter=10, burn_in=5, thin=1, seed=0)
        chain = svc._Stage2Chain(
            np.random.default_rng(64), config,
            (spec, PoissonLikelihood(np.full(n, 40.0), spec.offsets), g, True, {}),
        )
        sites, n_fields = chain.sites, 1 + (rung == "M4")
        k = len(g.colour_classes)
        assert len(sites.steps) == (2 if rung == "M4" and k == 1 else k)
        W = g.dense_weights()
        stacked_w = np.kron(np.eye(n_fields), W)
        held = []
        for sl, step_sites, areas, block, *_ in sites.steps:
            assert np.array_equal(areas, step_sites % n)
            assert len(np.unique(areas)) == len(areas)  # never v_i with delta_i
            assert not np.any(stacked_w[np.ix_(step_sites, step_sites)])  # no neighbours
            assert np.array_equal(block.toarray(), stacked_w[step_sites])
            assert np.array_equal(sites.is_delta[sl], step_sites >= n)
            held.append(step_sites)
        assert sorted(np.concatenate(held).tolist()) == list(range(n_fields * n))


class TestCenterAndAbsorb:
    def test_predictor_unchanged_on_connected_graph(self):
        g = make_lattice(4, 4)
        rng = np.random.default_rng(13)
        v = rng.standard_normal(16)
        beta0 = 0.7
        centered, shift = center_and_absorb(v, g)
        before = beta0 + v
        after = (beta0 + shift) + centered
        assert np.max(np.abs(before - after)) < 1e-10
        assert abs(centered.sum()) < 1e-10

    def test_delta_absorption_with_covariate(self):
        g = make_lattice(3, 5)
        rng = np.random.default_rng(14)
        x = rng.uniform(-1, 1, 15)
        delta = rng.standard_normal(15)
        beta1 = -0.4
        centered, shift = center_and_absorb(delta, g)
        before = beta1 * x + x * delta
        after = (beta1 + shift) * x + x * centered
        assert np.max(np.abs(before - after)) < 1e-10


def archive_from_draws(draw_dict, n_chains=1):
    names = list(draw_dict)
    total = len(draw_dict[names[0]])
    s = total // n_chains
    chains = []
    for c in range(n_chains):
        chains.append({k: np.asarray(v)[c * s : (c + 1) * s] for k, v in draw_dict.items()})
    config = McmcConfig(n_chains=n_chains, n_iter=2 * s, burn_in=s, thin=1, seed=0)
    return ChainArchive(chains, config.retained_iterations(), config)


class TestInformationCriteria:
    def test_identical_draws_have_zero_complexity(self):
        spec = m1_spec(n=3, offsets=np.array([10.0, 20.0, 30.0]))
        counts = np.array([12.0, 18.0, 33.0])
        beta = np.tile(np.array([0.1, -0.3]), (5, 1))
        archive = archive_from_draws({"beta": beta})
        dic = dic_components(archive, spec, counts)
        waic = waic_components(archive, spec, counts)
        assert dic.p_d == pytest.approx(0.0, abs=1e-10)
        assert waic.p_waic == pytest.approx(0.0, abs=1e-12)
        theta = linear_predictor_vector(SvcModelState(beta=beta[0]), spec)
        assert dic.dic == pytest.approx(-2 * PoissonLikelihood(counts, spec.offsets).loglik(theta))

    def test_hand_computed_toy(self):
        # 3 observed areas, 4 draws of a free per-area predictor
        theta_draws = np.array(
            [
                [0.0, 0.1, -0.2],
                [0.1, 0.0, -0.1],
                [-0.1, 0.2, 0.0],
                [0.2, -0.1, 0.1],
            ]
        )
        expected_counts = np.array([10.0, 15.0, 20.0])
        counts = np.array([11.0, 13.0, 21.0])
        # encode the predictor draws as an M1 fit with beta = (theta, 0)
        # on a degenerate covariate so predictor_draws returns them
        spec = SvcModelSpec(
            rung="M1", covariate=np.zeros(3), offsets=expected_counts
        )

        class FreeArchive(ChainArchive):
            pass

        beta = np.column_stack([np.zeros(4), np.zeros(4)])
        archive = archive_from_draws({"beta": beta, "phi": theta_draws, "v": np.zeros((4, 3))})

        def hand_logpmf(y, rate):
            return y * math.log(rate) - rate - math.lgamma(y + 1)

        ll = np.array(
            [
                [
                    hand_logpmf(counts[i], expected_counts[i] * math.exp(theta_draws[s, i]))
                    for i in range(3)
                ]
                for s in range(4)
            ]
        )
        deviances = -2 * ll.sum(axis=1)
        dbar = deviances.mean()
        theta_bar = theta_draws.mean(axis=0)
        dhat = -2 * sum(
            hand_logpmf(counts[i], expected_counts[i] * math.exp(theta_bar[i]))
            for i in range(3)
        )
        hand_dic = dbar + (dbar - dhat)
        lppd = sum(
            math.log(np.mean([math.exp(ll[s, i]) for s in range(4)])) for i in range(3)
        )
        p_waic = sum(float(np.var(ll[:, i], ddof=1)) for i in range(3))
        hand_waic = -2 * (lppd - p_waic)

        # patch the archive so the convolution terms reconstruct theta
        spec3 = SvcModelSpec(
            rung="M3", covariate=np.zeros(3), offsets=expected_counts,
            latent_factors=np.zeros((3, 0)),
        )
        assert compute_dic(archive, spec3, counts) == pytest.approx(hand_dic, abs=1e-10)
        assert compute_waic(archive, spec3, counts) == pytest.approx(hand_waic, abs=1e-10)

    def test_invariant_to_chain_concatenation_order(self):
        rng = np.random.default_rng(15)
        spec = m1_spec(n=4, seed=16)
        counts = np.array([25.0, 30.0, 28.0, 33.0])
        beta = rng.standard_normal((40, 2)) * 0.05
        archive = archive_from_draws({"beta": beta}, n_chains=2)
        flipped = archive.reordered([1, 0])
        assert compute_waic(archive, spec, counts) == pytest.approx(
            compute_waic(flipped, spec, counts), abs=1e-12
        )
        assert compute_dic(archive, spec, counts) == pytest.approx(
            compute_dic(flipped, spec, counts), abs=1e-12
        )

    def test_two_draw_minimum(self):
        spec = m1_spec(n=2, seed=17)
        archive = archive_from_draws({"beta": np.zeros((1, 2))})
        with pytest.raises(ValidationError, match="2 retained"):
            compute_dic(archive, spec, np.array([1.0, 2.0]))


class TestRiskSummaries:
    def test_zero_predictor_gives_unit_rr(self):
        spec = m1_spec(n=3, seed=18)
        spec.covariate[:] = 0.0
        archive = archive_from_draws({"beta": np.zeros((6, 2))})
        mean, lo, hi = relative_risk_summary(archive, spec)
        assert np.all(mean == 1.0)
        assert np.all(lo == 1.0)
        assert np.all(hi == 1.0)

    def test_quantiles_commute_with_exp(self):
        # 51 draws make q in tenths hit exact order statistics, where a
        # strictly increasing per-draw transform commutes with quantiles;
        # rankings agree at any q by the same monotonicity
        rng = np.random.default_rng(19)
        spec = m1_spec(n=6, seed=20)
        archive = archive_from_draws({"beta": rng.standard_normal((51, 2)) * 0.1})
        theta = predictor_draws(archive, spec)
        for q in (0.1, 0.5, 0.9):
            direct = np.quantile(np.exp(theta), q, axis=0)
            via_theta = np.exp(np.quantile(theta, q, axis=0))
            assert np.allclose(direct, via_theta, rtol=1e-12)
        for q in (0.13, 0.5, 0.87):
            rank_rr = np.argsort(np.quantile(np.exp(theta), q, axis=0))
            rank_theta = np.argsort(np.quantile(theta, q, axis=0))
            assert (rank_rr == rank_theta).all()

    def test_exceedance_all_unit_rr(self):
        spec = m1_spec(n=3, seed=21)
        spec.covariate[:] = 0.0
        archive = archive_from_draws({"beta": np.zeros((6, 2))})
        probs = risk_exceedance(archive, spec)
        assert np.all(probs == 0.0)

    def test_exceedance_nonincreasing_in_threshold(self):
        rng = np.random.default_rng(22)
        spec = m1_spec(n=5, seed=23)
        archive = archive_from_draws({"beta": rng.standard_normal((80, 2))})
        probs = risk_exceedance(archive, spec, thresholds=(1.1, 1.25, 1.5, 2.0))
        assert np.all(np.diff(probs, axis=1) <= 0)

    def test_exceedance_hand_enumeration(self):
        spec = SvcModelSpec(
            rung="M1", covariate=np.array([1.0, -1.0]), offsets=np.ones(2)
        )
        beta = np.array([[0.0, 0.3], [0.0, 0.5], [0.1, 0.0], [0.5, 0.1]])
        archive = archive_from_draws({"beta": beta})
        # predictors: area0 = b0 + b1, area1 = b0 - b1
        # area0: 0.3, 0.5, 0.1, 0.6 -> RR > 1.25 means theta > 0.22314
        probs = risk_exceedance(archive, spec, thresholds=(1.25,))
        assert probs[0, 0] == 0.75
        assert probs[1, 0] == 0.25

    def test_rate_ratio_deterministic_transform(self):
        draws = np.array([-0.278 - 0.05, -0.278 + 0.05, -0.278, -0.278])
        rr = rate_ratio(draws)
        assert abs(rr.point - 0.757) < 0.001
        text = format_rate_ratio(rr, label="beta")
        assert text.startswith("e^beta = 0.757")
        assert "95% credible interval" in text

    def test_precision_summary_reports_mean_and_mode(self):
        rng = np.random.default_rng(24)
        draws = rng.gamma(20.0, 0.5, size=4000)
        archive = archive_from_draws({"tau_v": draws})
        s = precision_summary(archive, "tau_v")
        assert abs(s["mean"] - draws.mean()) < 1e-12
        assert 8.0 < s["mode"] < 11.5
        assert s["lower"] < s["mean"] < s["upper"]


class TestSamplerGaussianExactness:
    def test_stationary_moments_match_conjugate_posterior(self):
        graph = build_graph(SIX_NODE_EDGES, n_areas=6)
        rng = np.random.default_rng(25)
        n = 6
        spec = SvcModelSpec(
            rung="M3",
            covariate=rng.uniform(-1, 1, n),
            offsets=np.ones(n),
            latent_factors=np.zeros((n, 0)),
        )
        noise_var = 0.5
        taus = {"tau_phi": 4.0, "tau_v": 6.0}
        y = rng.standard_normal(n) * 2.0

        config = McmcConfig(n_chains=2, n_iter=20_000, burn_in=2_000, thin=2, seed=26)
        archive = fit_stage2_mcmc(
            spec, y, graph, config,
            likelihood="gaussian", noise_variance=noise_var,
            sample_precisions=False, initial_precisions=taus,
        )

        # closed form: y = X beta + phi + U a, Gaussian everything
        X = np.column_stack([np.ones(n), spec.covariate])
        U = null_space(np.ones((1, n)))
        A = np.hstack([X, np.eye(n), U])
        Q = precision_matrix(graph)
        P = np.zeros((A.shape[1],) * 2)
        P[0, 0] = P[1, 1] = 1.0 / 1000.0
        P[2 : 2 + n, 2 : 2 + n] = taus["tau_phi"] * np.eye(n)
        P[2 + n :, 2 + n :] = taus["tau_v"] * (U.T @ Q @ U)
        H = A.T @ A / noise_var + P
        mean_u = np.linalg.solve(H, A.T @ y / noise_var)
        beta_mean = mean_u[:2]
        phi_mean = mean_u[2 : 2 + n]
        v_mean = U @ mean_u[2 + n :]

        for k in range(2):
            draws = archive.get("beta")[:, k]
            ess = max(effective_sample_size(archive, "beta", k), 50.0)
            se = draws.std(ddof=1) / math.sqrt(ess)
            assert abs(draws.mean() - beta_mean[k]) < 3 * se + 1e-4
        for i in range(n):
            draws = archive.get("phi")[:, i]
            ess = max(effective_sample_size(archive, "phi", i), 50.0)
            se = draws.std(ddof=1) / math.sqrt(ess)
            assert abs(draws.mean() - phi_mean[i]) < 3 * se + 1e-4
            draws = archive.get("v")[:, i]
            ess = max(effective_sample_size(archive, "v", i), 50.0)
            se = draws.std(ddof=1) / math.sqrt(ess)
            assert abs(draws.mean() - v_mean[i]) < 3 * se + 1e-4

        # per-site variances and adjacent-pair covariances (phi, v) against
        # the closed-form H^-1; phi moves only by exchanges with v and by
        # the fixed-effect translations
        T = block_diag(np.eye(2 + n), U)
        draws = np.hstack([archive.get(name) for name in ("beta", "phi", "v")])
        pair_i, pair_j = (
            np.concatenate([2 + k * n + ends for k in range(2)])
            for ends in (graph.edge_i, graph.edge_j)
        )
        z = gaussian_moments_z(
            draws, T @ mean_u, T @ np.linalg.inv(H) @ T.T, pair_i, pair_j
        )
        assert np.max(np.abs(z)) < 4.0, z

    def test_m4_weighted_graph_matches_conjugate_posterior(self):
        graph = build_graph(WEIGHTED_SEVEN_EDGES, n_areas=7)
        assert len(graph.colour_classes) >= 3
        assert not np.all(graph.weights == 1.0)
        rng = np.random.default_rng(46)
        n = 7
        spec = SvcModelSpec(
            rung="M4",
            covariate=rng.uniform(-1, 1, n),
            offsets=np.ones(n),
            latent_factors=np.zeros((n, 0)),
        )
        noise_var = 0.5
        taus = {"tau_phi": 4.0, "tau_v": 6.0, "tau_delta": 3.0}
        y = rng.standard_normal(n) * 2.0

        config = McmcConfig(n_chains=2, n_iter=20_000, burn_in=2_000, thin=2, seed=47)
        archive = fit_stage2_mcmc(
            spec, y, graph, config,
            likelihood="gaussian", noise_variance=noise_var,
            sample_precisions=False, initial_precisions=taus,
        )

        # closed form: y = X beta + phi + U a + diag(x) U b, Gaussian everything
        X = np.column_stack([np.ones(n), spec.covariate])
        U = null_space(np.ones((1, n)))
        A = np.hstack([X, np.eye(n), U, spec.covariate[:, None] * U])
        Kq = U.T @ precision_matrix(graph) @ U
        r = n - 1
        P = np.zeros((A.shape[1],) * 2)
        P[0, 0] = P[1, 1] = 1.0 / 1000.0
        P[2 : 2 + n, 2 : 2 + n] = taus["tau_phi"] * np.eye(n)
        P[2 + n : 2 + n + r, 2 + n : 2 + n + r] = taus["tau_v"] * Kq
        P[2 + n + r :, 2 + n + r :] = taus["tau_delta"] * Kq
        H = A.T @ A / noise_var + P
        mean_u = np.linalg.solve(H, A.T @ y / noise_var)
        expected = {
            "beta": mean_u[:2],
            "phi": mean_u[2 : 2 + n],
            "v": U @ mean_u[2 + n : 2 + n + r],
            "delta": U @ mean_u[2 + n + r :],
        }

        for name, means in expected.items():
            for i, mean in enumerate(means):
                draws = archive.get(name)[:, i]
                ess = max(effective_sample_size(archive, name, i), 50.0)
                se = draws.std(ddof=1) / math.sqrt(ess)
                assert abs(draws.mean() - mean) < 3 * se + 1e-4, (name, i)

        # per-site variances and adjacent-pair covariances (phi, v, delta)
        # against the closed-form H^-1: a sweep that moves neighbouring
        # areas together keeps the means but not these
        T = block_diag(np.eye(2 + n), U, U)
        draws = np.hstack([archive.get(name) for name in expected])
        pair_i, pair_j = (
            np.concatenate([2 + k * n + ends for k in range(3)])
            for ends in (graph.edge_i, graph.edge_j)
        )
        z = gaussian_moments_z(
            draws, T @ mean_u, T @ np.linalg.inv(H) @ T.T, pair_i, pair_j
        )
        assert np.max(np.abs(z)) < 4.0, z


class TestPrecisionOracle:
    """Sampled precisions and fixed effects of a Gaussian-likelihood M4 fit
    against the grid-integrated posterior of
    ``helpers.gaussian_m4_posterior_means``: Gamma(2, 1) precisions, noise
    variance 0.3, batch-means |z| < 4 for log tau_phi, log tau_v,
    log tau_delta and every fixed effect."""

    NOISE = 0.3

    def z_scores(self, g, n_iter, y_shift=None):
        n = g.n_areas
        rng = np.random.default_rng(70)
        x, factor = rng.uniform(-1, 1, n), rng.standard_normal(n)
        theta = (0.2 - 0.5 * x + 0.4 * factor + sample_icar(g, 0.4, rng)
                 + x * sample_icar(g, 0.5, rng) + 0.3 * rng.standard_normal(n))
        y = theta + math.sqrt(self.NOISE) * rng.standard_normal(n)
        if y_shift is not None:
            y += y_shift
        spec = SvcModelSpec(
            rung="M4", covariate=x, offsets=np.ones(n), latent_factors=factor[:, None],
            precision_prior_shape=2.0, precision_prior_rate=1.0,
        )
        expected = gaussian_m4_posterior_means(
            y, spec.fixed_design(), x, precision_matrix(g), self.NOISE, 2.0, 1.0
        )
        config = McmcConfig(n_chains=2, n_iter=n_iter, burn_in=n_iter // 10, thin=2, seed=80)
        archive = fit_stage2_mcmc(
            spec, y, g, config, likelihood="gaussian", noise_variance=self.NOISE
        )
        draws = [[np.log(c) for c in archive.per_chain(name)] for name in svc.PRECISION_NAMES]
        draws += [[c[:, k] for c in archive.per_chain("beta")] for k in range(3)]
        return np.array([batch_means_z(q, e) for q, e in zip(draws, expected)])

    def test_connected_lattice(self):
        z = self.z_scores(make_lattice(4, 4), 20_000)
        assert np.max(np.abs(z)) < 4.0, z

    @pytest.mark.xfail(
        strict=True,
        reason="FOUND (CHANGES.md): center_and_absorb drops the spread of the component "
        "means, which moves theta when the graph has several multi-area components",
    )
    def test_two_components(self):
        # the 4x4 lattice plus a 3-cycle, whose outcomes sit 1.5 below the rest
        g = build_graph(list(make_lattice(4, 4).edges()) + [(16, 17), (17, 18), (16, 18)],
                        n_areas=19)
        z = self.z_scores(g, 12_000, np.where(np.arange(19) >= 16, -1.5, 0.0))
        assert np.max(np.abs(z)) < 4.0, z


class TestFreeIslands:
    """An island's v is free under its proper N(0, 1 / tau_v) prior."""

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP 1A: center_by_component centres one-area components too, "
        "which pins every island's v at 0",
    )
    def test_gaussian_m3_island_means_match_the_exact_posterior(self):
        # a 4-cycle plus 2 islands (4 and 5), fixed precisions: under a
        # Gaussian likelihood the Laplace mode is the exact posterior mean
        g = build_graph([(0, 1), (1, 2), (2, 3), (0, 3)], n_areas=6)
        islands = [4, 5]
        assert g.island_indices.tolist() == islands
        y = np.log(np.array([48.0, 55.0, 51.0, 46.0, 95.0, 25.0]) / 50.0)
        spec = SvcModelSpec(rung="M3", covariate=np.linspace(-1.0, 1.0, 6),
                            offsets=np.ones(6), latent_factors=np.zeros((6, 0)))
        taus = {"tau_phi": 5.0, "tau_v": 1.0}
        exact = fit_stage2_laplace(spec, y, g, taus, likelihood="gaussian",
                                   noise_variance=0.05).state.v.values[islands]
        assert np.all(np.abs(exact) > 0.4), exact  # 0.582 and -0.457
        config = McmcConfig(n_chains=2, n_iter=10_000, burn_in=1_000, thin=2, seed=91)
        archive = fit_stage2_mcmc(spec, y, g, config, likelihood="gaussian", noise_variance=0.05,
                                  sample_precisions=False, initial_precisions=taus)
        for i, mean in zip(islands, exact):
            draws = [c[:, i] for c in archive.per_chain("v")]
            assert np.ptp(np.concatenate(draws)) > 0.0, f"island {i}'s v never moves"
            z = batch_means_z(draws, mean)
            assert abs(z) < 4.0, (i, z)


class TestMixing:
    # worst scalar ESS of these fits when phi still took its own random-walk
    # sweep (tau_delta, seed 66), before the phi-v and phi-delta exchanges
    RANDOM_WALK_PHI_WORST_ESS = 47.55

    # beta_0 ESS of the ramp-covariate fit (seed 66) before the delta ridge
    # direction and the scale moves; the ramp check asks for 2 x 142.0 of the
    # median over the pre-registered chain seeds 66-73, since one seed's ESS
    # spreads about that bound for a correct sampler (226-491 over these)
    RAMP_BETA0_ESS_BEFORE = 38.4
    RAMP_BETA0_ESS_BOUND = 2 * 142.0
    RAMP_SEEDS = range(66, 74)

    # tau_delta ESS of the unthinned 2 x 6000 fit (seed 66) with one round
    # of the delta scale moves and tau_delta's draw per iteration
    ONE_ROUND_TAU_DELTA_ESS = 1632.7

    @staticmethod
    def lattice_m4_data(ramp=False):
        """M4 on a 15x15 lattice with smooth deterministic x, factor, delta
        and v; only the iid phi and the counts are drawn. With ``ramp`` the
        covariate is the ramp ``0.9 tanh(2 u - 1.5 w)``."""
        g = make_lattice(15, 15)
        r, c = np.divmod(np.arange(g.n_areas), 15)
        u, w = np.pi * r / 14, np.pi * c / 14
        if ramp:
            x = 0.9 * np.tanh(2 * u - 1.5 * w)
        else:
            x = 0.9 * np.tanh(np.sin(2 * u) * np.cos(w) + np.cos(3 * w) * np.sin(u) / 2)
        factor = np.cos(u + 2 * w) * np.sin(3 * u)
        delta = 0.6 * np.cos(2 * u) * np.sin(w + 0.5) + 0.3 * np.sin(3 * w)
        v = 0.15 * np.sin(4 * u + w) * np.cos(3 * w)
        factor, delta, v = (f - f.mean() for f in (factor, delta, v))
        rng = np.random.default_rng(64)
        theta = 0.1 - 0.8 * x + 0.4 * factor + v + x * delta + 0.1 * rng.standard_normal(g.n_areas)
        offsets = np.full(g.n_areas, 300.0)
        counts = rng.poisson(offsets * np.exp(theta)).astype(float)
        spec = SvcModelSpec(rung="M4", covariate=x, offsets=offsets, latent_factors=factor[:, None])
        return g, spec, counts

    def test_worst_scalar_ess_at_least_doubles(self):
        g, spec, counts = self.lattice_m4_data()
        config = McmcConfig(n_chains=2, n_iter=2500, burn_in=1000, thin=3, seed=66)
        archive = fit_stage2_mcmc(spec, counts, g, config)
        ess = [effective_sample_size(archive, "beta", k) for k in range(3)]
        ess += [effective_sample_size(archive, name) for name in svc.PRECISION_NAMES]
        assert min(ess) >= 2 * self.RANDOM_WALK_PHI_WORST_ESS, ess

    def test_intercept_mixes_with_a_ramp_covariate(self):
        # beta_0 trades against mean(x delta); the delta ridge direction and
        # the scale move of delta against (v, beta_0, phi) move that pair
        g, spec, counts = self.lattice_m4_data(ramp=True)
        ess = []
        for seed in self.RAMP_SEEDS:
            config = McmcConfig(n_chains=2, n_iter=2500, burn_in=1000, thin=3, seed=seed)
            archive = fit_stage2_mcmc(spec, counts, g, config)
            ess.append(effective_sample_size(archive, "beta", 0))
        median = float(np.median(ess))
        assert median >= self.RAMP_BETA0_ESS_BOUND > 2 * self.RAMP_BETA0_ESS_BEFORE, ess

    def test_tau_delta_mixes_with_scale_rounds(self):
        # the rounds of the delta scale moves and tau_delta's draw move
        # (|delta|, tau_delta) several times an iteration; unthinned, so the
        # ESS is not held near the number of draws
        g, spec, counts = self.lattice_m4_data()
        config = McmcConfig(n_chains=2, n_iter=6000, burn_in=1000, thin=1, seed=66)
        archive = fit_stage2_mcmc(spec, counts, g, config)
        ess = effective_sample_size(archive, "tau_delta")
        assert ess >= 1.3 * self.ONE_ROUND_TAU_DELTA_ESS, ess


class TestPoissonLaplaceOracle:
    """Poisson M3 and M4 chains at fixed precisions against the Laplace mode
    of ``fit_stage2_laplace`` at the same precisions: smooth data on a 10x10
    lattice with offsets 300, whose log(y / E) reaches 1.7, so the counts
    pin the posterior close to Gaussian and its mean close to the mode.
    Every beta mean must lie within ``BOUND`` Laplace sds of the mode (the
    sampler reads 0.13 at most). A Newton step on v (gradient weight 1)
    stalls from the cold start on the high-count areas and reads beta_1
    about 3 sds off, which the last test checks."""

    TAUS = {"tau_phi": 100.0, "tau_v": 21.0, "tau_delta": 6.0}
    BOUND = 0.5

    def beta_offsets(self, rung):
        """(chain mean - Laplace mode) / Laplace sd of every fixed effect."""
        g = make_lattice(10, 10)
        r, c = np.divmod(np.arange(g.n_areas), 10)
        u, w = np.pi * r / 9, np.pi * c / 9
        x = 0.9 * np.tanh(np.sin(2 * u) * np.cos(w) + np.cos(3 * w) * np.sin(u) / 2)
        factor = np.cos(u + 2 * w) * np.sin(3 * u)
        delta = 0.6 * np.cos(2 * u) * np.sin(w + 0.5) + 0.3 * np.sin(3 * w)
        v = 0.6 * np.sin(2 * u + w) * np.cos(w)
        factor, delta, v = (f - f.mean() for f in (factor, delta, v))
        rng = np.random.default_rng(64)
        theta = 0.1 - 0.8 * x + 0.4 * factor + v + x * delta + 0.1 * rng.standard_normal(100)
        offsets = np.full(100, 300.0)
        counts = rng.poisson(offsets * np.exp(theta)).astype(float)
        spec = SvcModelSpec(
            rung=rung, covariate=x, offsets=offsets, latent_factors=factor[:, None]
        )
        laplace = fit_stage2_laplace(spec, counts, g, self.TAUS)
        config = McmcConfig(n_chains=2, n_iter=3000, burn_in=750, thin=2, seed=1)
        archive = fit_stage2_mcmc(
            spec, counts, g, config, sample_precisions=False, initial_precisions=self.TAUS
        )
        return (archive.get("beta").mean(axis=0) - laplace.state.beta) / laplace.beta_sd

    @pytest.mark.parametrize("rung", ["M3", "M4"])
    def test_beta_means_lie_near_the_laplace_mode(self, rung):
        z = self.beta_offsets(rung)
        assert np.max(np.abs(z)) < self.BOUND, z

    def test_a_newton_step_on_v_misses_the_mode(self, monkeypatch):
        monkeypatch.setitem(svc.GRADIENT_WEIGHTS, "v", 1.0)
        z = self.beta_offsets("M4")
        assert np.max(np.abs(z)) > 4 * self.BOUND, z


class TestColourClasses:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 30), n_islands=st.integers(0, 3))
    def test_classes_partition_areas_into_independent_sets(self, seed, n, n_islands):
        rng = np.random.default_rng(seed)
        edges = random_connected_graph(rng, n, extra_edges=int(rng.integers(0, 2 * n)))
        graph = build_graph(edges, n_areas=n + n_islands)
        classes = graph.colour_classes
        members = np.concatenate(classes)
        assert sorted(members.tolist()) == list(range(graph.n_areas))
        colour = np.empty(graph.n_areas, dtype=int)
        for c, idx in enumerate(classes):
            assert idx.tolist() == sorted(idx.tolist())
            colour[idx] = c
        assert not np.any(colour[graph.edge_i] == colour[graph.edge_j])

    @pytest.mark.parametrize("rows, cols", [(2, 2), (3, 7), (15, 15)])
    def test_rook_lattice_takes_two_classes(self, rows, cols):
        assert len(make_lattice(rows, cols).colour_classes) == 2


class TestFitStage2:
    def test_m1_quick_recovery_and_reproducibility(self):
        g = make_lattice(5, 5)
        rng = np.random.default_rng(27)
        spec = SvcModelSpec(
            rung="M1",
            covariate=rng.uniform(-1, 1, 25),
            offsets=np.full(25, 80.0),
        )
        truth = SvcModelState(beta=np.array([0.1, -1.0]))
        counts = simulate_stage2(g, spec, truth, seed=28)
        config = McmcConfig(n_chains=2, n_iter=3000, burn_in=1000, thin=2, seed=29)
        a1 = fit_stage2_mcmc(spec, counts, g, config)
        a2 = fit_stage2_mcmc(spec, counts, g, config)
        for c in range(2):
            assert np.array_equal(a1.chains[c]["beta"], a2.chains[c]["beta"])
        beta_hat = a1.get("beta").mean(axis=0)
        assert abs(beta_hat[0] - 0.1) < 0.1
        assert abs(beta_hat[1] + 1.0) < 0.2

    def test_parallel_matches_sequential(self):
        g = make_lattice(3, 3)
        for rung in ("M3", "M4"):
            spec, truth = convolution_pieces(g, rung, seed=30)
            counts = simulate_stage2(g, spec, truth, seed=31)
            config = McmcConfig(n_chains=2, n_iter=300, burn_in=100, thin=2, seed=32)
            seq = fit_stage2_mcmc(spec, counts, g, config, n_workers=1)
            par = fit_stage2_mcmc(spec, counts, g, config, n_workers=2)
            assert seq.metadata == {**par.metadata, "wall_time_s": seq.metadata["wall_time_s"]}
            for c in range(2):
                for name in seq.param_names:
                    assert np.array_equal(seq.chains[c][name], par.chains[c][name])

    def test_pool_is_capped_at_the_chain_count(self, monkeypatch):
        g = make_lattice(3, 3)
        spec, truth = convolution_pieces(g, "M3", seed=30)
        counts = simulate_stage2(g, spec, truth, seed=31)
        config = McmcConfig(n_chains=3, n_iter=60, burn_in=20, thin=2, seed=32)
        sizes = recording_pool(monkeypatch)
        fit_stage2_mcmc(spec, counts, g, config, n_workers=64)
        assert sizes == [3]


    # pre-registered band for the burn-in-adapted acceptance shares; steps
    # that adapted on 1 for every accepted proposal settled at 0.36-0.38
    # for beta and v on these data
    ADAPTED_ACCEPTANCE = (0.39, 0.50)
    ADAPTED_MOVES = {"M1": {"beta"}, "M2": {"beta"}, "M3": {"v", "scale_v"},
                     "M4": {"v", "scale_v", "scale_delta", "scale_ridge"}}

    def test_adapted_steps_reach_the_target_acceptance(self):
        # every adaptive step moves toward ADAPT_TARGET = 0.44 on its
        # proposals' acceptance probability: beta's walk (M1, M2), v's
        # per-site walk (M3, M4) and every scale move
        g, m4, counts = TestMixing.lattice_m4_data()
        config = McmcConfig(n_chains=2, n_iter=2500, burn_in=1000, thin=3, seed=66)
        lo, hi = self.ADAPTED_ACCEPTANCE
        for rung in svc.RUNGS:
            spec = SvcModelSpec(rung=rung, covariate=m4.covariate, offsets=m4.offsets,
                                latent_factors=None if rung == "M1" else m4.latent_factors)
            archive = fit_stage2_mcmc(spec, counts, g, config)
            for c in range(2):
                shares = dict(item.split("=") for item in
                              archive.metadata[f"chain{c}_acceptance"].split(";"))
                adapted = {key: float(value) for key, value in shares.items() if key != "delta"}
                assert set(adapted) == self.ADAPTED_MOVES[rung]
                for key, share in adapted.items():
                    assert lo <= share <= hi, (rung, c, key, share)

    def test_suppressed_areas_stay_in_graph(self):
        g = make_lattice(3, 3)
        spec, truth = convolution_pieces(g, "M3", seed=33)
        counts = simulate_stage2(g, spec, truth, seed=34, n_suppressed=3)
        config = McmcConfig(n_chains=1, n_iter=400, burn_in=100, thin=3, seed=35)
        archive = fit_stage2_mcmc(spec, counts, g, config)
        assert archive.get("v").shape[1] == 9
        assert np.isfinite(archive.get("v")).all()

    def test_persistent_divergence_aborts(self):
        g = make_lattice(2, 3)
        spec = SvcModelSpec(
            rung="M1",
            covariate=np.linspace(-0.5, 0.5, 6),
            offsets=np.full(6, 1e-30),
        )
        counts = np.full(6, 100.0)
        config = McmcConfig(n_chains=1, n_iter=200, burn_in=100, thin=1, seed=36)
        with pytest.raises(RuntimeError, match="divergence"):
            fit_stage2_mcmc(spec, counts, g, config)

    @pytest.mark.parametrize("burn_in", [200, 0])
    def test_divergence_guard_runs_at_any_burn_in(self, burn_in):
        # every slope proposal moves log mu by ~1e7 at the covariate's ends
        g = make_lattice(2, 3)
        spec = SvcModelSpec(
            rung="M1", covariate=np.linspace(-1e8, 1e8, 6), offsets=np.full(6, 30.0)
        )
        config = McmcConfig(n_chains=1, n_iter=400, burn_in=burn_in, thin=1, seed=36)
        with pytest.raises(RuntimeError, match="persistent divergence"):
            fit_stage2_mcmc(spec, np.full(6, 30.0), g, config)

    @staticmethod
    def field_spec(rung, log_mode):
        """A 2x3 rung with counts 100 whose predictor's mode sits at ``log_mode``."""
        return SvcModelSpec(
            rung=rung, covariate=np.linspace(-0.5, 0.5, 6),
            offsets=np.full(6, 100.0 / math.exp(log_mode)),
            latent_factors=np.linspace(-1.0, 1.0, 6)[:, None],
        )

    @pytest.mark.parametrize("rung", ["M3", "M4"])
    @pytest.mark.parametrize("burn_in", [100, 0])
    def test_persistent_divergence_aborts_with_fields(self, rung, burn_in):
        # offsets 1e-30: the start, log(100 / 1e-30) ~ 76, is already past the
        # bound, so every field proposal diverges
        spec = self.field_spec(rung, math.log(1e32))
        config = McmcConfig(n_chains=1, n_iter=200, burn_in=burn_in, thin=1, seed=36)
        window = "late burn-in" if burn_in else "run"
        with pytest.raises(RuntimeError, match=rf"100\.0% of proposals in the {window} "):
            fit_stage2_mcmc(spec, np.full(6, 100.0), make_lattice(2, 3), config)

    @pytest.mark.parametrize("rung", ["M3", "M4"])
    @pytest.mark.parametrize("burn_in", [100, 0])
    def test_divergence_fraction_counts_every_field_proposal(self, rung, burn_in):
        # with the predictor's mode at the bound, a share of the proposals
        # diverges and the rest do not
        spec = self.field_spec(rung, svc.PREDICTOR_BOUND)
        config = McmcConfig(n_chains=1, n_iter=200, burn_in=burn_in, thin=1, seed=36)
        with pytest.raises(RuntimeError, match="persistent divergence") as raised:
            fit_stage2_mcmc(spec, np.full(6, 100.0), make_lattice(2, 3), config)
        frac = float(str(raised.value).split(": ")[1].split("%")[0])
        assert 10.0 < frac < 100.0

    def test_zero_population_area_is_left_out_of_likelihood(self):
        strata = StrataTable(
            ["a", "b"], ["s"], np.array([[1000.0], [0.0]]), np.array([[12.0], [0.0]])
        )
        with pytest.warns(UserWarning, match="zero population"):
            expected = expected_counts(strata)
        assert expected.tolist() == [12.0, 0.0]
        observed = strata.deaths.sum(axis=1)
        assert PoissonLikelihood(observed, expected).mask.tolist() == [True, False]
        g = build_graph([(0, 1)], n_areas=2)
        spec = SvcModelSpec(
            rung="M3", covariate=np.array([0.2, -0.2]), offsets=expected,
            latent_factors=np.array([[0.5], [-0.5]]),
        )
        config = McmcConfig(n_chains=1, n_iter=300, burn_in=100, thin=2, seed=40)
        archive = fit_stage2_mcmc(spec, observed, g, config)
        assert np.isfinite(archive.get("phi")).all()
        assert archive.get("phi")[:, 1].std() > 0
        with pytest.raises(ValidationError, match="expected count 0"):
            fit_stage2_mcmc(spec, np.array([12.0, 3.0]), g, config)

    @pytest.mark.parametrize(
        "counts, offsets",
        [(np.full(4, np.nan), np.full(4, 10.0)), (np.array([0.0, 0.0, np.nan, 0.0]), np.zeros(4))],
    )
    def test_no_likelihood_anywhere_is_a_validation_error(self, counts, offsets):
        g = make_lattice(2, 2)
        spec = SvcModelSpec(
            rung="M3", covariate=np.linspace(-1, 1, 4), offsets=offsets,
            latent_factors=np.zeros((4, 1)),
        )
        config = McmcConfig(n_chains=1, n_iter=20, burn_in=10, thin=1, seed=0)
        with pytest.raises(ValidationError, match="no area carries likelihood"):
            fit_stage2_mcmc(spec, counts, g, config)
        with pytest.raises(ValidationError, match="no area carries likelihood"):
            fit_stage2_laplace(spec, counts, g)

    def test_acceptance_rates_recorded(self):
        g = make_lattice(3, 3)
        spec, truth = convolution_pieces(g, "M4", seed=37)
        counts = simulate_stage2(g, spec, truth, seed=38)
        config = McmcConfig(n_chains=1, n_iter=600, burn_in=300, thin=3, seed=39)
        archive = fit_stage2_mcmc(spec, counts, g, config)
        assert "chain0_acceptance" in archive.metadata
        assert "delta=" in archive.metadata["chain0_acceptance"]
        # the fixed effects of M3 and M4 move by exact translations only
        assert "beta=" not in archive.metadata["chain0_acceptance"]
        assert archive.metadata["chain0_divergent"] == "0"
        steps = archive.metadata["chain0_scale_log_step"].split(";")
        steps = dict(item.split("=") for item in steps)
        assert sorted(steps) == ["delta", "ridge", "v"]
        assert all(0.0 < float(step) < 10.0 for step in steps.values())

    def test_acceptance_shares_are_per_proposal(self):
        # "delta" and "ridge" propose SCALE_ROUNDS times an iteration; their
        # accepted counts would read above 1 per iteration
        g = make_lattice(3, 3)
        spec, truth = convolution_pieces(g, "M4", seed=37)
        counts = simulate_stage2(g, spec, truth, seed=38)
        config = McmcConfig(n_chains=2, n_iter=400, burn_in=200, thin=2, seed=40)
        archive = fit_stage2_mcmc(spec, counts, g, config)
        for c in range(2):
            items = archive.metadata[f"chain{c}_acceptance"].split(";")
            rates = {key: float(rate) for key, rate in (item.split("=") for item in items)}
            assert sorted(rates) == ["delta", "scale_delta", "scale_ridge", "scale_v", "v"]
            assert all(0.0 <= rate <= 1.0 for rate in rates.values()), rates

    def test_gaussian_delta_proposals_are_exact_conditionals(self):
        g = build_graph(WEIGHTED_SEVEN_EDGES, n_areas=7)
        rng = np.random.default_rng(41)
        spec = SvcModelSpec(
            rung="M4", covariate=rng.uniform(-1, 1, 7), offsets=np.ones(7),
            latent_factors=rng.standard_normal((7, 1)),
        )
        config = McmcConfig(n_chains=1, n_iter=400, burn_in=100, thin=2, seed=42)
        archive = fit_stage2_mcmc(
            spec, rng.standard_normal(7), g, config, likelihood="gaussian", noise_variance=0.5
        )
        rates = dict(item.split("=") for item in archive.metadata["chain0_acceptance"].split(";"))
        assert rates["delta"] == "1.000"
        # phi moves only by exact exchanges and translations: no acceptance;
        # the three scale moves report theirs
        assert sorted(rates) == ["delta", "scale_delta", "scale_ridge", "scale_v", "v"]


class TestPrecisionValidation:
    """``initial_precisions``, ``precisions`` and grid points: names and values."""

    def setup_method(self):
        self.graph = make_lattice(3, 3)
        self.spec, truth = convolution_pieces(self.graph, "M4", seed=30)
        self.counts = simulate_stage2(self.graph, self.spec, truth, seed=31)
        self.config = McmcConfig(n_chains=1, n_iter=40, burn_in=20, thin=2, seed=32)

    def fit(self, entry, precisions):
        if entry == "mcmc":
            return fit_stage2_mcmc(
                self.spec, self.counts, self.graph, self.config,
                sample_precisions=False, initial_precisions=precisions, n_workers=1,
            )
        if entry == "laplace":
            return fit_stage2_laplace(self.spec, self.counts, self.graph, precisions)
        return laplace_precision_grid(self.spec, self.counts, self.graph, [precisions])

    @pytest.mark.parametrize("entry", ["mcmc", "laplace", "grid"])
    def test_unknown_name_rejected(self, entry):
        with pytest.raises(ValidationError, match="unknown precision 'tau_phy'"):
            self.fit(entry, {"tau_phy": 9.0})

    @pytest.mark.parametrize("entry", ["mcmc", "laplace", "grid"])
    @pytest.mark.parametrize("value", [-1.0, 0.0, math.nan, math.inf])
    def test_value_that_is_not_finite_and_positive_rejected(self, entry, value):
        with pytest.raises(ValidationError, match=f"tau_v must be finite and positive, got {value}"):
            self.fit(entry, {"tau_phi": 3.0, "tau_v": value})

    def test_grid_checks_every_point_before_the_first_fit(self, monkeypatch):
        fits = []
        monkeypatch.setattr(svc, "fit_stage2_laplace", lambda *a, **k: fits.append(a))
        grid = [{"tau_phi": 1.0}, {"tau_phi": 2.0}, {"tau_phi": -2.0}]
        with pytest.raises(ValidationError, match="tau_phi must be finite and positive"):
            laplace_precision_grid(self.spec, self.counts, self.graph, grid)
        assert fits == []

    def test_precision_the_rung_does_not_use_is_ignored(self):
        spec = m1_spec(n=9)
        counts = np.full(9, 30.0)
        archive = fit_stage2_mcmc(
            spec, counts, self.graph, self.config, initial_precisions={"tau_delta": 5.0},
            n_workers=1,
        )
        assert archive.param_names == ["beta"]

    def test_fixed_precisions_are_archived_as_given(self):
        archive = self.fit("mcmc", {"tau_phi": 3.5, "tau_delta": 0.25})
        assert np.all(archive.get("tau_phi") == 3.5)
        assert np.all(archive.get("tau_v") == 2.0)
        assert np.all(archive.get("tau_delta") == 0.25)
        # the scale moves change the precisions, so a fixed-precision fit makes none
        assert "scale" not in archive.metadata["chain0_acceptance"]
        assert "chain0_scale_log_step" not in archive.metadata


class TestDefaultWorkers:
    """``fit_stage2_mcmc`` without ``n_workers``: one worker per chain up to the usable CPUs."""

    def setup_method(self):
        self.graph = make_lattice(3, 3)
        self.spec, truth = convolution_pieces(self.graph, "M3", seed=30)
        self.counts = simulate_stage2(self.graph, self.spec, truth, seed=31)

    def config(self, n_chains):
        return McmcConfig(n_chains=n_chains, n_iter=120, burn_in=40, thin=2, seed=32)

    @pytest.mark.parametrize("cpus, chains, expected", [(1, 2, []), (2, 2, [2]), (4, 3, [3])])
    def test_pool_size_follows_the_affinity_set(self, monkeypatch, cpus, chains, expected):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        sizes = recording_pool(monkeypatch)
        fit_stage2_mcmc(self.spec, self.counts, self.graph, self.config(chains))
        assert sizes == expected

    def test_default_archive_matches_in_process(self, tmp_path):
        default = fit_stage2_mcmc(self.spec, self.counts, self.graph, self.config(3))
        serial = fit_stage2_mcmc(self.spec, self.counts, self.graph, self.config(3), n_workers=1)
        fileio.write_archive(default, tmp_path / "default.csv")
        fileio.write_archive(serial, tmp_path / "serial.csv", n_workers=1)
        for suffix in ("", ".meta", ".npy"):
            assert ((tmp_path / f"default.csv{suffix}").read_bytes()
                    == (tmp_path / f"serial.csv{suffix}").read_bytes())


class TestLaplace:
    def test_gaussian_outcome_equals_gls(self):
        # with an identity link and Gaussian outcome the objective is an
        # exact quadratic, so the mode must equal a hand-built GLS solve
        # in an independently chosen sum-to-zero basis
        graph = build_graph(SIX_NODE_EDGES, n_areas=6)
        rng = np.random.default_rng(40)
        spec = SvcModelSpec(
            rung="M3",
            covariate=rng.uniform(-1, 1, 6),
            offsets=np.ones(6),
            latent_factors=np.zeros((6, 0)),
        )
        y = rng.standard_normal(6)
        noise_var = 0.7
        taus = {"tau_phi": 3.0, "tau_v": 5.0}
        fit = fit_stage2_laplace(
            spec, y, graph, taus, likelihood="gaussian", noise_variance=noise_var
        )
        n = 6
        X = np.column_stack([np.ones(n), spec.covariate])
        U = null_space(np.ones((1, n)))
        A = np.hstack([X, np.eye(n), U])
        P = np.zeros((A.shape[1],) * 2)
        P[0, 0] = P[1, 1] = 1.0 / 1000.0
        P[2 : 2 + n, 2 : 2 + n] = taus["tau_phi"] * np.eye(n)
        P[2 + n :, 2 + n :] = taus["tau_v"] * (U.T @ precision_matrix(graph) @ U)
        gls = np.linalg.solve(A.T @ A / noise_var + P, A.T @ y / noise_var)
        theta_fit = linear_predictor_vector(fit.state, spec)
        assert np.max(np.abs(theta_fit - A @ gls)) < 1e-8
        assert np.max(np.abs(fit.state.beta - gls[:2])) < 1e-8
        assert np.max(np.abs(fit.state.phi - gls[2 : 2 + n])) < 1e-8
        assert np.max(np.abs(fit.state.v.values - U @ gls[2 + n :])) < 1e-8
        assert fit.gradient_norm < 1e-9

    def test_poisson_mode_gradient_is_stationary(self):
        g = make_lattice(4, 4)
        spec, truth = convolution_pieces(g, "M4", seed=41)
        counts = simulate_stage2(g, spec, truth, seed=42)
        fit = fit_stage2_laplace(
            spec, counts, g, {"tau_phi": 5.0, "tau_v": 5.0, "tau_delta": 5.0}
        )
        assert fit.gradient_norm < 1e-6

    def test_precision_grid_selects_highest_marginal(self):
        g = make_lattice(3, 3)
        spec, truth = convolution_pieces(g, "M3", seed=43)
        counts = simulate_stage2(g, spec, truth, seed=44)
        grid = [
            {"tau_phi": tp, "tau_v": tv}
            for tp in (1.0, 10.0)
            for tv in (1.0, 10.0)
        ]
        best, table = laplace_precision_grid(spec, counts, g, grid)
        assert len(table) == 4
        assert best.log_marginal == max(lm for _, lm in table)

    def test_m4_on_a_56x56_lattice(self):
        # 3136 areas, about 9400 latent values: a dense curvature matrix
        # would take about 0.7 GB. The truth is a smooth deterministic
        # surface because sample_icar stops at 2500 areas.
        side = 56
        g = make_lattice(side, side)
        n = g.n_areas
        row, col = np.divmod(np.arange(n), side)
        r, c = row / (side - 1), col / (side - 1)
        x = 0.6 * np.sin(3 * r + 2 * c) - 0.3
        f = np.cos(4 * r) * np.sin(3 * c)
        v = 0.4 * np.sin(2 * np.pi * r) * np.cos(np.pi * c)
        delta = 0.3 * np.cos(np.pi * (r - c))
        theta = -0.2 + 0.3 * x + 0.2 * f + (v - v.mean()) + x * (delta - delta.mean())
        offsets = np.full(n, 40.0)
        counts = np.random.default_rng(90).poisson(offsets * np.exp(theta)).astype(float)
        spec = SvcModelSpec(rung="M4", covariate=x, offsets=offsets, latent_factors=f[:, None])
        taus = {"tau_phi": 20.0, "tau_v": 5.0, "tau_delta": 5.0}
        fit = fit_stage2_laplace(spec, counts, g, taus)

        # log-posterior gradient at the mode, projected onto zero sums
        s = fit.state
        resid = counts - offsets * np.exp(linear_predictor_vector(s, spec))

        def icar_grad(values, tau):
            qx = g.weight_sums * values
            np.subtract.at(qx, g.edge_i, g.edge_w * values[g.edge_j])
            np.subtract.at(qx, g.edge_j, g.edge_w * values[g.edge_i])
            return -tau * qx

        grads = [
            spec.fixed_design().T @ resid - s.beta / spec.beta_prior_variance,
            resid - taus["tau_phi"] * s.phi,
        ]
        for field, weight, tau in ((s.v, 1.0, taus["tau_v"]), (s.delta, x, taus["tau_delta"])):
            grad = weight * resid + icar_grad(field.values, tau)
            grads.append(grad - grad.mean())
            assert abs(field.values.sum()) < 1e-8
        assert max(np.max(np.abs(gr)) for gr in grads) < 1e-6
        assert fit.gradient_norm < 1e-6


# two weighted multi-area components with interleaved indices and two
# islands (6 and 10): components {0, 2, 5, 7} and {1, 3, 4, 8, 9}
ORACLE_EDGES = [
    (0, 2, 1.5), (2, 5, 0.7), (0, 5, 2.0), (5, 7, 1.2),
    (1, 3, 0.9), (3, 4, 1.8), (4, 8, 0.6), (1, 8, 1.1), (8, 9, 1.3), (3, 9, 0.4),
]
ORACLE_SUPPRESSED = [2, 6]


class TestLaplaceDenseOracle:
    """The Laplace fit against dense computations in a per-component
    orthonormal sum-to-zero basis (``null_space`` columns per multi-area
    component, a unit column per island), on a weighted graph with two
    multi-area components, two islands and suppressed areas."""

    def setup_method(self):
        self.graph = build_graph(ORACLE_EDGES, n_areas=11)
        g = self.graph
        assert len(g.island_indices) == 2 and np.sum(g.component_sizes > 1) == 2
        n = g.n_areas
        cols = []
        for idx in g.components():
            block = np.zeros((n, max(len(idx) - 1, 1)))
            block[idx] = null_space(np.ones((1, len(idx)))) if len(idx) > 1 else 1.0
            cols.append(block)
        self.U = np.hstack(cols)
        self.Kq = self.U.T @ precision_matrix(g, island_proper=True) @ self.U

    def spec(self, rung, seed):
        rng = np.random.default_rng(seed)
        n = self.graph.n_areas
        return SvcModelSpec(
            rung=rung,
            covariate=rng.uniform(-1, 1, n),
            offsets=rng.uniform(20.0, 60.0, n),
            latent_factors=rng.standard_normal((n, 1)),
        )

    def dense_pieces(self, spec, taus):
        """Design A and prior precision P of (beta, phi, a[, b]) with
        v = U a and delta = U b."""
        n, U = spec.n_areas, self.U
        X = spec.fixed_design()
        blocks = [X, np.eye(n), U] + ([spec.covariate[:, None] * U] if spec.has_svc else [])
        diag = [np.full(X.shape[1], 1.0 / spec.beta_prior_variance), np.full(n, taus["tau_phi"])]
        dense = [taus["tau_v"] * self.Kq] + ([taus["tau_delta"] * self.Kq] if spec.has_svc else [])
        A = np.hstack(blocks)
        P = np.zeros((A.shape[1],) * 2)
        k = X.shape[1] + n
        P[:k, :k] = np.diag(np.concatenate(diag))
        for D in dense:
            P[k : k + len(D), k : k + len(D)] = D
            k += len(D)
        return A, P

    def gamma_priors(self, spec, taus):
        a, b = spec.precision_prior_shape, spec.precision_prior_rate
        return sum(float(stats.gamma.logpdf(t, a, scale=1.0 / b)) for t in taus.values())

    @pytest.mark.parametrize("rung", ["M3", "M4"])
    def test_gaussian_log_marginal_is_exact(self, rung):
        spec = self.spec(rung, seed=60)
        n, U, x = spec.n_areas, self.U, spec.covariate
        rng = np.random.default_rng(61)
        y = rng.normal(0.0, 1.5, n)
        y[ORACLE_SUPPRESSED] = np.nan
        obs = np.isfinite(y)
        noise_var = 0.6
        X = spec.fixed_design()
        field = U @ np.linalg.solve(self.Kq, U.T)
        points = [
            {"tau_phi": 2.0, "tau_v": 0.5, "tau_delta": 3.0},
            {"tau_phi": 8.0, "tau_v": 4.0, "tau_delta": 0.7},
            {"tau_phi": 0.9, "tau_v": 12.0, "tau_delta": 1.5},
        ]
        for taus in points:
            if rung == "M3":
                taus = {k: taus[k] for k in ("tau_phi", "tau_v")}
            cov = (
                noise_var * np.eye(n)
                + spec.beta_prior_variance * X @ X.T
                + np.eye(n) / taus["tau_phi"]
                + field / taus["tau_v"]
            )
            if rung == "M4":
                cov += x[:, None] * field * x[None, :] / taus["tau_delta"]
            expected = stats.multivariate_normal(
                mean=np.zeros(obs.sum()), cov=cov[np.ix_(obs, obs)]
            ).logpdf(y[obs]) + self.gamma_priors(spec, taus)
            fit = fit_stage2_laplace(
                spec, y, self.graph, taus, likelihood="gaussian", noise_variance=noise_var
            )
            assert abs(fit.log_marginal - expected) < 1e-8, (taus, fit.log_marginal, expected)

    @pytest.mark.parametrize("rung", ["M3", "M4"])
    def test_poisson_mode_and_beta_sd_match_dense_newton(self, rung):
        spec = self.spec(rung, seed=62)
        n, U = spec.n_areas, self.U
        rng = np.random.default_rng(63)
        theta = -0.2 + 0.4 * spec.covariate + rng.normal(0.0, 0.3, n)
        counts = rng.poisson(spec.offsets * np.exp(theta)).astype(float)
        counts[ORACLE_SUPPRESSED] = np.nan
        obs = np.isfinite(counts)
        y, e = np.where(obs, counts, 0.0), np.where(obs, spec.offsets, 0.0)
        taus = {"tau_phi": 5.0, "tau_v": 2.0, "tau_delta": 4.0}
        if rung == "M3":
            del taus["tau_delta"]
        A, P = self.dense_pieces(spec, taus)

        u = np.zeros(A.shape[1])
        for _ in range(100):
            rate = e * np.exp(A @ u)
            grad = A.T @ (y - rate) - P @ u
            H = A.T @ (rate[:, None] * A) + P
            u = u + np.linalg.solve(H, grad)
            if np.max(np.abs(grad)) < 1e-11:
                break
        rate = e * np.exp(A @ u)
        H = A.T @ (rate[:, None] * A) + P
        K = spec.n_fixed
        fit = fit_stage2_laplace(spec, counts, self.graph, taus)
        s = fit.state
        assert np.max(np.abs(s.beta - u[:K])) < 1e-8
        assert np.max(np.abs(s.phi - u[K : K + n])) < 1e-8
        r = U.shape[1]
        assert np.max(np.abs(s.v.values - U @ u[K + n : K + n + r])) < 1e-8
        if rung == "M4":
            assert np.max(np.abs(s.delta.values - U @ u[K + n + r :])) < 1e-8
        assert np.max(np.abs(fit.beta_sd - np.sqrt(np.diag(np.linalg.inv(H))[:K]))) < 1e-8
        loglik = PoissonLikelihood(counts, spec.offsets).loglik(A @ u)
        log_marginal = (
            loglik - 0.5 * u @ P @ u
            + 0.5 * np.linalg.slogdet(P)[1] - 0.5 * np.linalg.slogdet(H)[1]
            + self.gamma_priors(spec, taus)
        )
        assert abs(fit.log_marginal - log_marginal) < 1e-8


def lattice_inputs(rung, side=56):
    """A smooth M3/M4 truth on a side x side lattice, Poisson counts."""
    g = make_lattice(side, side)
    n = g.n_areas
    row, col = np.divmod(np.arange(n), side)
    r, c = row / (side - 1), col / (side - 1)
    x = 0.6 * np.sin(3 * r + 2 * c) - 0.3
    f = np.cos(4 * r) * np.sin(3 * c)
    v = 0.4 * np.sin(2 * np.pi * r) * np.cos(np.pi * c)
    delta = 0.3 * np.cos(np.pi * (r - c))
    theta = -0.2 + 0.3 * x + 0.2 * f + (v - v.mean()) + x * (delta - delta.mean())
    offsets = np.full(n, 40.0)
    counts = np.random.default_rng(90).poisson(offsets * np.exp(theta)).astype(float)
    spec = SvcModelSpec(rung=rung, covariate=x, offsets=offsets, latent_factors=f[:, None])
    return spec, counts, g


# a 4-cycle, a 3-cycle with every area suppressed, a pair with one observed
# area and an island: the curvature's (phi, v, delta) block is singular
SINGULAR_EDGES = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 4), (7, 8, 1.5)]
SINGULAR_SUPPRESSED = [4, 5, 6, 8]


def singular_inputs(rung, seed=7):
    g = build_graph(SINGULAR_EDGES, n_areas=10)
    rng = np.random.default_rng(seed)
    spec = SvcModelSpec(
        rung=rung,
        covariate=rng.uniform(-1, 1, 10),
        offsets=rng.uniform(20.0, 60.0, 10),
        latent_factors=rng.standard_normal((10, 1)),
    )
    counts = rng.poisson(spec.offsets * np.exp(0.3 * spec.covariate)).astype(float)
    counts[SINGULAR_SUPPRESSED] = np.nan
    return spec, counts, g


class TestLaplaceBorderedReference:
    """The fit against the bordered-system algorithm it replaced
    (``helpers.bordered_laplace_reference``)."""

    def check(self, spec, counts, g, taus):
        fit = fit_stage2_laplace(spec, counts, g, taus)
        ref = bordered_laplace_reference(spec, counts, g, taus)
        s = fit.state
        assert fit.n_newton == ref["n_newton"]
        lm = ref["log_marginal"]
        assert abs(fit.log_marginal - lm) < 1e-9 * max(1.0, abs(lm))
        assert np.max(np.abs(s.beta - ref["beta"])) < 1e-9
        assert np.max(np.abs(fit.beta_sd - ref["beta_sd"])) < 1e-9 * np.max(ref["beta_sd"])
        fields = [(s.phi, ref["phi"]), (s.v.values, ref["v"])]
        if spec.has_svc:
            fields.append((s.delta.values, ref["delta"]))
        for mine, theirs in fields:
            assert np.max(np.abs(mine - theirs)) < 1e-9
        assert abs(fit.gradient_norm - ref["gradient_norm"]) < 1e-9

    @pytest.mark.parametrize("rung", ["M3", "M4"])
    def test_56x56_lattice(self, rung):
        spec, counts, g = lattice_inputs(rung)
        self.check(spec, counts, g, {"tau_phi": 20.0, "tau_v": 5.0, "tau_delta": 5.0})

    @pytest.mark.parametrize("rung", ["M3", "M4"])
    def test_fully_suppressed_component(self, rung):
        spec, counts, g = singular_inputs(rung)
        self.check(spec, counts, g, {"tau_phi": 3.0, "tau_v": 2.0, "tau_delta": 4.0})

    def test_many_components(self):
        # 150 paths of 4 areas and 20 islands, some areas suppressed
        edges = [(4 * c + i, 4 * c + i + 1) for c in range(150) for i in range(3)]
        g = build_graph(edges, n_areas=620)
        rng = np.random.default_rng(9)
        spec = SvcModelSpec(rung="M4", covariate=rng.normal(0.0, 1.0, 620),
                            offsets=rng.uniform(20.0, 200.0, 620),
                            latent_factors=rng.standard_normal((620, 1)))
        counts = rng.poisson(spec.offsets * np.exp(0.3 * spec.covariate)).astype(float)
        counts[rng.choice(620, 40, replace=False)] = np.nan
        self.check(spec, counts, g, {"tau_phi": 5.0, "tau_v": 2.0, "tau_delta": 4.0})


class TestLaplaceSingularLatentBlock:
    @pytest.mark.parametrize("rung", ["M3", "M4"])
    def test_gaussian_log_marginal_is_exact(self, rung):
        spec, _, g = singular_inputs(rung)
        n, x = spec.n_areas, spec.covariate
        y = np.random.default_rng(8).normal(0.0, 1.5, n)
        y[SINGULAR_SUPPRESSED] = np.nan
        obs = np.isfinite(y)
        taus = {"tau_phi": 3.0, "tau_v": 2.0, "tau_delta": 4.0}
        if rung == "M3":
            del taus["tau_delta"]
        # covariance of a per-component sum-to-zero ICAR field, islands N(0, 1)
        cols = []
        for idx in g.components():
            block = np.zeros((n, max(len(idx) - 1, 1)))
            block[idx] = null_space(np.ones((1, len(idx)))) if len(idx) > 1 else 1.0
            cols.append(block)
        U = np.hstack(cols)
        field = U @ np.linalg.solve(U.T @ precision_matrix(g, island_proper=True) @ U, U.T)
        X = spec.fixed_design()
        noise_var = 0.6
        cov = (noise_var * np.eye(n) + spec.beta_prior_variance * X @ X.T
               + np.eye(n) / taus["tau_phi"] + field / taus["tau_v"])
        if rung == "M4":
            cov += x[:, None] * field * x[None, :] / taus["tau_delta"]
        a, b = spec.precision_prior_shape, spec.precision_prior_rate
        priors = sum(float(stats.gamma.logpdf(t, a, scale=1.0 / b)) for t in taus.values())
        expected = stats.multivariate_normal(
            mean=np.zeros(obs.sum()), cov=cov[np.ix_(obs, obs)]
        ).logpdf(y[obs]) + priors
        fit = fit_stage2_laplace(spec, y, g, taus, likelihood="gaussian", noise_variance=noise_var)
        assert abs(fit.log_marginal - expected) < 1e-9 * abs(expected)
        # the suppressed component keeps its prior mode
        assert np.max(np.abs(fit.state.v.values[4:7])) < 1e-12


class TestSpecValidation:
    def test_missing_covariate_rejected(self):
        with pytest.raises(ValidationError, match="missing"):
            SvcModelSpec(
                rung="M1",
                covariate=np.array([0.1, np.nan]),
                offsets=np.ones(2),
            )

    def test_nonpositive_offsets_rejected(self):
        # zero is allowed: an area without population carries no likelihood
        for bad in (-1.0, np.inf, np.nan):
            with pytest.raises(ValidationError, match="nonnegative"):
                SvcModelSpec(
                    rung="M1", covariate=np.zeros(2), offsets=np.array([1.0, bad])
                )

    def test_factor_rungs_need_factors(self):
        with pytest.raises(ValidationError, match="factor"):
            SvcModelSpec(rung="M2", covariate=np.zeros(3), offsets=np.ones(3))

    def test_gaussian_needs_noise_variance(self):
        g = make_lattice(2, 2)
        spec = m1_spec(n=4, seed=45)
        with pytest.raises(ValidationError, match="noise_variance"):
            fit_stage2_mcmc(
                spec, np.zeros(4), g,
                McmcConfig(n_chains=1, n_iter=20, burn_in=10, thin=1, seed=0),
                likelihood="gaussian",
            )
