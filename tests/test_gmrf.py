"""The sparse GMRF algebra against dense oracles: the ICAR precision, the
sum-to-zero columns, and the constrained factor's log determinant, solve
and fixed-effect covariance computed in an orthonormal basis of the
constraint set."""

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import null_space

from arealbayes import build_graph
from arealbayes.gmrf import ConstrainedFactor, icar_precision, sum_to_zero_columns
from arealbayes.icar import precision_matrix

# weighted multi-area components {0, 2, 5, 7} and {1, 3, 4, 8, 9}, islands
# 6 and 10, the 3-cycle {11, 12, 13} with every area suppressed and the
# pair {14, 15} with one observed area
EDGES = [
    (0, 2, 1.5), (2, 5, 0.7), (0, 5, 2.0), (5, 7, 1.2),
    (1, 3, 0.9), (3, 4, 1.8), (4, 8, 0.6), (1, 8, 1.1), (8, 9, 1.3), (3, 9, 0.4),
    (11, 12, 0.8), (12, 13, 1.4), (11, 13, 1.0), (14, 15, 2.5),
]
N = 16
SUPPRESSED = [2, 6, 11, 12, 13, 15]


@pytest.fixture(scope="module")
def graph():
    g = build_graph(EDGES, n_areas=N)
    assert len(g.island_indices) == 2 and np.sum(g.component_sizes > 1) == 4
    return g


def dense_constrained(H, C):
    """log det, inverse and basis of H on ``null(C')`` in an orthonormal basis."""
    T = null_space(C.T) if C.shape[1] else np.eye(len(H))
    M = T.T @ H @ T
    sign, logdet = np.linalg.slogdet(M)
    assert sign > 0
    return logdet, T @ np.linalg.solve(M, T.T)


def curvature(graph, taus, K=2, seed=0):
    """An M4-shaped curvature over (beta, v, delta): ``A' diag(w) A + P``
    with ``A = [X | I | diag(x)]``, w = 0 on the suppressed areas."""
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(N), rng.uniform(-1, 1, (N, K - 1))])
    x = rng.uniform(-1, 1, N)
    w = rng.uniform(5.0, 50.0, N)
    w[SUPPRESSED] = 0.0
    Q = icar_precision(graph)
    A = np.hstack([X, np.eye(N), np.diag(x)])
    P = sparse.block_diag(
        [np.eye(K) / 1000.0, taus[0] * Q, taus[1] * Q]
    ).toarray()
    return A.T @ (w[:, None] * A) + P


class TestIcarPrecision:
    def test_matches_dense_with_proper_islands(self, graph):
        Q = icar_precision(graph)
        assert sparse.issparse(Q)
        np.testing.assert_array_equal(Q.toarray(), precision_matrix(graph, island_proper=True))


class TestSumToZeroColumns:
    def test_one_indicator_per_multi_area_component_and_block(self, graph):
        C = sum_to_zero_columns(graph, 3 + 2 * N, [3, 3 + N]).toarray()
        multi = [idx for idx in graph.components() if len(idx) > 1]
        assert C.shape == (3 + 2 * N, 2 * len(multi))
        for b, start in enumerate((3, 3 + N)):
            for c, idx in enumerate(multi):
                expected = np.zeros(3 + 2 * N)
                expected[start + idx] = 1.0
                np.testing.assert_array_equal(C[:, b * len(multi) + c], expected)


class TestConstrainedFactor:
    @pytest.mark.parametrize("taus", [(2.0, 4.0), (0.3, 15.0)])
    def test_log_det_solve_and_covariance_match_dense(self, graph, taus):
        K = 2
        H = curvature(graph, taus, K)
        latent = H[K:, K:]
        # the latent block is singular: the suppressed 3-cycle's constants
        # and the pair's (v, delta) constant with one observed area
        assert np.linalg.matrix_rank(latent) == len(latent) - 3
        C = sum_to_zero_columns(graph, 2 * N, [0, N])
        factor = ConstrainedFactor(sparse.csc_matrix(latent), C, H[K:, :K], H[:K, :K])

        C_full = np.vstack([np.zeros((K, C.shape[1])), C.toarray()])
        logdet, inverse = dense_constrained(H, C_full)
        assert abs(factor.logdet - logdet) < 1e-10 * max(1.0, abs(logdet))
        g = np.random.default_rng(1).standard_normal(len(H))
        x = factor.solve(g)
        np.testing.assert_allclose(x, inverse @ g, rtol=1e-9, atol=1e-12)
        assert np.max(np.abs(C_full.T @ x)) < 1e-10
        np.testing.assert_allclose(factor.fixed_covariance(), inverse[:K, :K], rtol=1e-9)

    def test_prior_log_det_on_the_constraint_set(self, graph):
        Q = icar_precision(graph)
        C = sum_to_zero_columns(graph, N, [0])
        logdet, _ = dense_constrained(Q.toarray(), C.toarray())
        assert abs(ConstrainedFactor(Q, C).logdet - logdet) < 1e-12 * max(1.0, abs(logdet))

    def test_no_latent_block(self):
        fixed = np.array([[4.0, 1.0], [1.0, 3.0]])
        factor = ConstrainedFactor(sparse.csc_matrix((0, 0)), sparse.csc_matrix((0, 0)),
                                   np.zeros((0, 2)), fixed)
        assert abs(factor.logdet - np.linalg.slogdet(fixed)[1]) < 1e-14
        np.testing.assert_allclose(factor.solve(np.array([1.0, 2.0])),
                                   np.linalg.solve(fixed, [1.0, 2.0]))
        np.testing.assert_allclose(factor.fixed_covariance(), np.linalg.inv(fixed))

    def test_singular_on_the_constraint_set_raises(self, graph):
        # an island with no prior and no likelihood: free, and unconstrained
        Q = icar_precision(graph).tolil()
        Q[6, 6] = 0.0
        with pytest.raises(RuntimeError, match="not positive definite"):
            ConstrainedFactor(Q.tocsc(), sum_to_zero_columns(graph, N, [0]))

    def test_indefinite_fixed_block_raises(self, graph):
        K = 2
        H = curvature(graph, (2.0, 4.0), K)
        C = sum_to_zero_columns(graph, 2 * N, [0, N])
        with pytest.raises(RuntimeError, match="not positive definite"):
            ConstrainedFactor(sparse.csc_matrix(H[K:, K:]), C, H[K:, :K], -H[:K, :K])
