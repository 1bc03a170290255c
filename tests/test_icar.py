import math

import numpy as np
import pytest
from helpers import gaussian_moments_z, grid_moments, random_connected_graph
from scipy.linalg import null_space

from arealbayes.graph import build_graph
from arealbayes.icar import (
    IcarField,
    center_by_component,
    centered_dimension,
    gibbs_sweep_values,
    icar_logdensity_unnormalized,
    precision_matrix,
    quad_form_and_rank,
)
from arealbayes.simulate import make_lattice


def sweep_then_center(values, graph, variance, prec, pwm, rng):
    """One colour-class Gibbs sweep of a copy of ``values`` with one normal
    per area from ``rng``, then centering per component."""
    values = values.copy()
    gibbs_sweep_values(values, graph, variance, prec, pwm, rng.standard_normal(graph.n_areas))
    return center_by_component(values, graph)[0]


class TestLogDensity:
    def test_constant_field(self):
        g = make_lattice(2, 3)
        sigma2 = 0.3
        field = IcarField(g, np.full(6, 9.9), variance=sigma2)
        assert icar_logdensity_unnormalized(field) == pytest.approx(
            -6 * math.log(math.sqrt(sigma2))
        )

    def test_per_component_shift_invariance(self):
        g = build_graph([(0, 1), (1, 2), (3, 4)], n_areas=5)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(5)
        field = IcarField(g, x)
        shifted = x.copy()
        shifted[:3] += 17.0
        shifted[3:] -= 4.0
        assert icar_logdensity_unnormalized(
            IcarField(g, shifted)
        ) == pytest.approx(icar_logdensity_unnormalized(field), abs=1e-9)

    def test_islands_add_no_quadratic_term(self):
        # the pairwise convention: an island's value enters only through
        # the power of sigma, unlike quad_form_and_rank's proper island term
        g = build_graph([(0, 1, 2.0), (1, 2, 0.5)], n_areas=5)
        x = np.array([1.0, -1.0, 0.5, 3.0, -7.0])
        moved = x.copy()
        moved[[3, 4]] = [40.0, 0.0]
        s2 = 0.7
        want = -5 * math.log(math.sqrt(s2)) - (2.0 * 4.0 + 0.5 * 2.25) / (2 * s2)
        for values in (x, moved):
            assert icar_logdensity_unnormalized(IcarField(g, values, s2)) == pytest.approx(
                want, rel=1e-14
            )

    def test_pairwise_sum_equals_quadratic_form(self):
        rng = np.random.default_rng(7)
        for trial in range(10):
            n = int(rng.integers(5, 15))
            g = build_graph(random_connected_graph(rng, n), n_areas=n)
            x = rng.standard_normal(n)
            s2 = float(rng.uniform(0.2, 3.0))
            field = IcarField(g, x, variance=s2)
            q = precision_matrix(g)
            oracle = -n * math.log(math.sqrt(s2)) - (x @ q @ x) / (2 * s2)
            assert abs(icar_logdensity_unnormalized(field) - oracle) < 1e-10


class TestProjection:
    def test_single_component(self):
        g = build_graph([(0, 1), (1, 2)], n_areas=3)
        out = center_by_component(np.array([1.0, 2.0, 3.0]), g)[0]
        assert out.tolist() == [-1.0, 0.0, 1.0]

    def test_per_component_centering(self):
        g = build_graph([(0, 1)], n_areas=3)
        out = center_by_component(np.array([4.0, 6.0, 9.0]), g)[0]
        assert out.tolist() == [-1.0, 1.0, 0.0]

    def test_idempotent_bitwise(self):
        rng = np.random.default_rng(1)
        g = build_graph([(0, 1), (1, 2), (3, 4), (4, 5)], n_areas=6)
        once = center_by_component(rng.standard_normal(6), g)[0]
        twice = center_by_component(once, g)[0]
        assert np.array_equal(once, twice)

    def test_centered_dimension_is_the_rank_of_the_centering(self):
        # two multi-area components and two islands
        g = build_graph([(0, 1), (1, 2), (3, 4), (4, 5), (5, 3)], n_areas=8)
        image = np.column_stack([center_by_component(e, g)[0] for e in np.eye(8)])
        assert centered_dimension(g) == np.linalg.matrix_rank(image) == 4


class TestGibbsSweep:
    def test_prior_dominated_limit_collapses_to_zero(self):
        g = make_lattice(3, 3)
        rng = np.random.default_rng(2)
        values = rng.standard_normal(9)
        zeros = np.zeros(9)
        for _ in range(60):
            values = sweep_then_center(values, g, 1e-12, zeros, zeros, rng)
        assert np.max(np.abs(values)) < 1e-3

    def test_data_dominated_limit_equals_centered_targets(self):
        g = make_lattice(3, 3)
        rng = np.random.default_rng(3)
        targets = rng.standard_normal(9)
        prec = np.full(9, 1e14)
        values = sweep_then_center(np.zeros(9), g, 1.0, prec, prec * targets, rng)
        assert np.allclose(values, targets - targets.mean(), atol=1e-5)

    def test_site_conditionals_match_grid_integration(self):
        # pin all other sites with a near-degenerate likelihood so each
        # sweep redraws site i from its conditional at a fixed state,
        # then compare 200k draws against grid quadrature moments
        g = build_graph([(i, i + 1) for i in range(4)], n_areas=5)
        rng = np.random.default_rng(8)
        state = rng.standard_normal(5)
        lik_prec = np.array([2.0, 0.5, 1.0, 3.0, 0.0])
        lik_mean = np.array([0.4, -1.0, 0.2, 1.5, 0.0])
        sigma2 = 0.8
        n_draws = 200_000
        pin = 1e16
        neighbor_lists = g.neighbor_lists
        for i in range(5):
            prec = np.full(5, pin)
            pwm = pin * state
            prec[i] = lik_prec[i]
            pwm[i] = lik_prec[i] * lik_mean[i]
            draws = np.empty(n_draws)
            values = state.copy()
            normals_all = rng.standard_normal((n_draws, 5))
            for s in range(n_draws):
                gibbs_sweep_values(values, g, sigma2, prec, pwm, normals_all[s])
                draws[s] = values[i]

            wplus = g.weight_sums[i]
            nb_sum = sum(state[j] for j in neighbor_lists[i])

            def logpdf(x, i=i, wplus=wplus, nb_sum=nb_sum):
                prior = -wplus / (2 * sigma2) * (x - nb_sum / wplus) ** 2
                lik = -lik_prec[i] / 2 * (x - lik_mean[i]) ** 2
                return prior + lik

            lo, hi = state[i] - 8, state[i] + 8
            mean, var = grid_moments(logpdf, lo - 5, hi + 5)
            se_mean = math.sqrt(var / n_draws)
            se_var = var * math.sqrt(2.0 / (n_draws - 1))
            assert abs(draws.mean() - mean) < 3 * se_mean
            assert abs(draws.var(ddof=1) - var) < 3 * se_var

    def test_component_sums_vanish_after_sweep(self):
        rng = np.random.default_rng(9)
        edges = random_connected_graph(rng, 7) + [(8, 9, 1.0)]
        g = build_graph(edges, n_areas=10)
        values = rng.standard_normal(10)
        prec = rng.uniform(0.0, 2.0, 10)
        values = sweep_then_center(values, g, 1.0, prec, prec * rng.standard_normal(10), rng)
        assert np.max(np.abs(IcarField(g, values).component_sums())) < 1e-8

    def test_sweep_matches_site_by_site_reference(self):
        # one site at a time in class order, with Python floats; no edge
        # joins two sites of a class, so this is the same draw
        rng = np.random.default_rng(10)
        edges = [(i, j, rng.uniform(0.2, 3.0)) for i, j, _ in random_connected_graph(rng, 12, 8)]
        g = build_graph(edges + [(13, 14, 0.6)], n_areas=16)
        sigma2 = 0.6
        prec = rng.uniform(0.0, 2.0, 16)
        pwm = rng.standard_normal(16)
        normals = rng.standard_normal(16)
        values = rng.standard_normal(16)
        expected = values.tolist()
        neighbor_lists, neighbor_weights = g.neighbor_lists, g.neighbor_weights
        for i in np.concatenate(g.colour_classes).tolist():
            s = sum(w * expected[j] for j, w in zip(neighbor_lists[i], neighbor_weights[i]))
            wplus = g.weight_sums[i] if g.degree(i) else 1.0  # island prior N(0, sigma2)
            post = wplus / sigma2 + prec[i]
            expected[i] = (s / sigma2 + pwm[i]) / post + normals[i] / math.sqrt(post)
        gibbs_sweep_values(values, g, sigma2, prec, pwm, normals)
        assert np.allclose(values, expected, rtol=1e-12, atol=1e-12)


# two weighted components with triangles (so three colour classes), no islands
TWO_TRIANGLE_EDGES = [
    (0, 1, 1.0), (1, 2, 2.0), (0, 2, 0.5), (2, 3, 1.5),
    (4, 5, 1.0), (5, 6, 0.7), (4, 6, 2.5), (6, 7, 1.2), (7, 8, 0.8), (8, 4, 0.4),
]


class TestSweepGaussianOracle:
    """The sweep against closed-form Gaussian moments, covariances included:
    a sweep that moves neighbouring areas together (all areas in one class,
    a Jacobi sweep) keeps the means but not the covariances."""

    sigma2 = 0.7

    def setup_method(self):
        self.graph = build_graph(TWO_TRIANGLE_EDGES)
        assert self.graph.n_components == 2 and not len(self.graph.island_indices)
        assert len(self.graph.colour_classes) == 3
        self.Q = precision_matrix(self.graph) / self.sigma2

    def test_sweep_kernel_matches_unconstrained_gmrf(self):
        # with a likelihood term at every site the sweep alone targets the
        # proper GMRF N(P^-1 b, P^-1), P = Q / sigma2 + diag(prec)
        g, n = self.graph, self.graph.n_areas
        rng = np.random.default_rng(21)
        prec = rng.uniform(0.3, 2.0, n)
        pwm = prec * rng.normal(0.0, 1.5, n)
        cov = np.linalg.inv(self.Q + np.diag(prec))
        mean = cov @ pwm

        n_draws = 100_000
        normals = rng.standard_normal((n_draws, n))
        draws = np.empty((n_draws, n))
        values = np.zeros(n)
        for _ in range(200):
            gibbs_sweep_values(values, g, self.sigma2, prec, pwm, rng.standard_normal(n))
        for s in range(n_draws):
            gibbs_sweep_values(values, g, self.sigma2, prec, pwm, normals[s])
            draws[s] = values
        z = gaussian_moments_z(draws, mean, cov, g.edge_i, g.edge_j)
        assert np.max(np.abs(z)) < 4.0, z

    def test_sweep_matches_constrained_gmrf(self):
        # Centering after a sweep draws from the GMRF conditioned on zero
        # component sums when the target is flat along each component's
        # constant: no likelihood precision, and a linear term that sums to
        # zero within each component.
        g, n = self.graph, self.graph.n_areas
        rng = np.random.default_rng(22)
        prec = np.zeros(n)
        pwm = rng.normal(0.0, 1.0, n)
        for idx in g.components():
            pwm[idx] -= pwm[idx].mean()
        A = (g.component_labels[None, :] == np.arange(2)[:, None]).astype(float)
        U = null_space(A)
        cov = U @ np.linalg.inv(U.T @ (self.Q + np.diag(prec)) @ U) @ U.T
        mean = cov @ pwm

        n_draws = 100_000
        values = np.zeros(n)
        for _ in range(200):
            values = sweep_then_center(values, g, self.sigma2, prec, pwm, rng)
        draws = np.empty((n_draws, n))
        for s in range(n_draws):
            values = sweep_then_center(values, g, self.sigma2, prec, pwm, rng)
            draws[s] = values
        assert np.max(np.abs(draws @ A.T)) < 1e-10
        z = gaussian_moments_z(draws, mean, cov, g.edge_i, g.edge_j)
        assert np.max(np.abs(z)) < 4.0, z


class TestPrecisionMatrix:
    def test_psd_with_component_indicator_nullspace(self):
        rng = np.random.default_rng(12)
        for trial in range(5):
            n = int(rng.integers(6, 50))
            edges = random_connected_graph(rng, n - 2)
            edges.append((n - 2, n - 1, 1.0))
            g = build_graph(edges, n_areas=n)
            q = precision_matrix(g)
            assert np.allclose(q, q.T)
            eigvals, eigvecs = np.linalg.eigh(q)
            assert eigvals.min() > -1e-10
            null_dim = int(np.sum(np.abs(eigvals) < 1e-9))
            assert null_dim == g.n_components
            null_basis = eigvecs[:, np.abs(eigvals) < 1e-9]
            for idx in g.components():
                indicator = np.zeros(n)
                indicator[idx] = 1.0
                proj = null_basis @ (null_basis.T @ indicator)
                assert np.allclose(proj, indicator, atol=1e-8)

    def test_island_proper_diagonal(self):
        g = build_graph([(0, 1)], n_areas=3)
        q = precision_matrix(g, island_proper=True)
        assert q[2, 2] == 1.0
        assert precision_matrix(g)[2, 2] == 0.0

    @pytest.mark.parametrize("island_proper", [False, True])
    def test_bytes_equal_the_edge_array_construction(self, island_proper):
        # the dense view of gmrf.icar_precision, byte for byte as built from
        # the edge arrays: seeded ICAR data are drawn through eigh of Q
        edges = [(0, 2, 1.5), (2, 5, 0.7), (0, 5, 2.0), (5, 7, 1.2), (1, 3, 0.9),
                 (3, 4, 1.8), (4, 8, 0.6), (1, 8, 1.1), (11, 12, 0.8), (12, 13, 1.4)]
        for g in (build_graph(edges, n_areas=16), make_lattice(4, 5)):
            want = np.diag(g.weight_sums)
            want[g.edge_i, g.edge_j] = -g.edge_w
            want[g.edge_j, g.edge_i] = -g.edge_w
            if island_proper:
                want[g.island_indices, g.island_indices] = 1.0
            got = precision_matrix(g, island_proper=island_proper)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


class TestQuadFormAndRank:
    def test_no_islands(self):
        g = build_graph([(0, 1, 2.0), (1, 2, 1.0)], n_areas=3)
        x = np.array([1.0, 0.0, -2.0])
        quad, rank = quad_form_and_rank(g, x)
        assert quad == pytest.approx(2.0 * 1.0 + 1.0 * 4.0)
        assert rank == 2

    def test_islands_add_proper_terms(self):
        g = build_graph([(0, 1)], n_areas=4)  # two islands
        x = np.array([1.0, -1.0, 3.0, 0.5])
        quad, rank = quad_form_and_rank(g, x)
        assert quad == pytest.approx(4.0 + 9.0 + 0.25)
        # n - components + islands = 4 - 3 + 2
        assert rank == 3

    def test_center_by_component_matches_per_component_means(self):
        rng = np.random.default_rng(11)
        edges = random_connected_graph(rng, 9) + [(10, 11, 1.0), (11, 12, 2.0)]
        g = build_graph(edges, n_areas=14)
        values = rng.standard_normal(14) * 100.0
        centered, shifts = center_by_component(values, g)
        for c, idx in enumerate(g.components()):
            assert shifts[c] == pytest.approx(values[idx].mean(), rel=1e-13, abs=1e-13)
            assert np.allclose(centered[idx], values[idx] - values[idx].mean(), rtol=0, atol=1e-12)
        connected = make_lattice(4, 5)
        x = rng.standard_normal(20)
        centered, shifts = center_by_component(x, connected)
        assert np.array_equal(centered, x - x.mean()) and shifts.tolist() == [x.mean()]

    def test_center_by_component_returns_shifts(self):
        g = build_graph([(0, 1)], n_areas=3)
        centered, shifts = center_by_component(np.array([1.0, 3.0, 5.0]), g)
        assert centered.tolist() == [-1.0, 1.0, 0.0]
        assert shifts.tolist() == [2.0, 5.0]
