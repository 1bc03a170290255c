import numpy as np
import pytest
from helpers import dense_morans_i, random_connected_graph

from arealbayes.errors import ValidationError
from arealbayes.graph import build_graph, morans_i, subgraph
from arealbayes.simulate import make_lattice


class TestBuildGraph:
    def test_island_and_components(self):
        g = build_graph([(0, 1, 1.0)], n_areas=3)
        assert g.n_areas == 3
        assert g.neighbor_lists == [[1], [0], []]
        assert g.island_mask.tolist() == [False, False, True]
        assert g.component_labels.tolist() == [0, 0, 1]

    def test_four_cycle_weight_sums(self):
        g = build_graph([(0, 1), (1, 2), (2, 3), (3, 0)])
        assert np.allclose(g.weight_sums, 2.0)

    def test_lattice_degrees(self):
        g = make_lattice(15, 15)
        degrees = np.array([g.degree(i) for i in range(g.n_areas)])
        corner = [0, 14, 210, 224]
        assert all(degrees[c] == 2 for c in corner)
        interior = 16  # row 1, col 1
        assert degrees[interior] == 4
        edge = 7  # row 0, middle
        assert degrees[edge] == 3

    def test_shuffled_edge_lists_are_canonical(self):
        rng = np.random.default_rng(5)
        edges = random_connected_graph(rng, 20, extra_edges=6)
        g1 = build_graph(edges, n_areas=20)
        for _ in range(3):
            perm = rng.permutation(len(edges))
            shuffled = [
                (edges[k][1], edges[k][0], edges[k][2]) if k % 2 else edges[k]
                for k in perm
            ]
            assert build_graph(shuffled, n_areas=20) == g1

    def test_colour_blocks_are_the_weight_rows_of_each_class(self):
        g = build_graph(
            [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 0.5), (2, 3, 1.5), (5, 6, 0.25)],
            n_areas=8,
        )
        assert [idx.tolist() for idx in g.colour_classes] == [[0, 3, 4, 5, 7], [1, 6], [2]]
        W = g.dense_weights()
        for idx, block in zip(g.colour_classes, g.colour_blocks):
            assert np.array_equal(block.toarray(), W[idx])
            assert not idx.flags.writeable and not block.data.flags.writeable

    def test_empty_graph_has_no_colour_classes(self):
        g = build_graph([], n_areas=0)
        assert g.colour_classes == [] and g.colour_blocks == []

    def test_self_loop_rejected(self):
        with pytest.raises(ValidationError, match="self-loop"):
            build_graph([(2, 2, 1.0)], n_areas=3)

    def test_conflicting_duplicate_weight_rejected(self):
        with pytest.raises(ValidationError, match="conflicting"):
            build_graph([(0, 1, 1.0), (1, 0, 2.0)])

    def test_matching_duplicate_allowed(self):
        g = build_graph([(0, 1, 1.5), (1, 0, 1.5)])
        assert g.neighbor_weights[0] == [1.5]

    def test_negative_weight_rejected(self):
        with pytest.raises(ValidationError, match="negative"):
            build_graph([(0, 1, -1.0)])

    def test_out_of_range_index(self):
        with pytest.raises(ValidationError, match="out of range"):
            build_graph([(0, 5, 1.0)], n_areas=3)


class TestSubgraph:
    def test_restriction(self):
        g = build_graph([(0, 1), (1, 2), (2, 3)], n_areas=4)
        sub, original = subgraph(g, [0, 1, 3])
        assert original.tolist() == [0, 1, 3]
        assert sub.neighbor_lists == [[1], [0], []]

    def test_boolean_mask(self):
        g = build_graph([(0, 1), (1, 2)], n_areas=3)
        sub, original = subgraph(g, np.array([True, False, True]))
        assert original.tolist() == [0, 2]
        assert sub.n_edges == 0


class TestMoransI:
    def test_matches_dense_double_loop_on_line_graph(self):
        n = 12
        g = build_graph([(i, i + 1) for i in range(n - 1)], n_areas=n)
        x = np.zeros(n)
        x[4] = 5.0  # constant plus a single spike
        res = morans_i(g, x)
        oracle = dense_morans_i(g.dense_weights(), x)
        assert abs(res.statistic - oracle) < 1e-12

    def test_checkerboard_is_negative(self):
        g = make_lattice(6, 6)
        x = np.array([1.0 if (i // 6 + i % 6) % 2 == 0 else -1.0 for i in range(36)])
        assert morans_i(g, x).statistic < 0

    def test_smooth_gradient_strongly_positive(self):
        g = make_lattice(15, 15)
        x = np.array([i // 15 for i in range(225)], dtype=float)
        res = morans_i(g, x)
        assert res.statistic > 0.6
        assert res.p_value < 0.001

    def test_affine_invariance(self):
        rng = np.random.default_rng(11)
        g = make_lattice(5, 7)
        x = rng.standard_normal(35)
        base = morans_i(g, x).statistic
        for a, b in [(2.5, 0.0), (-1.0, 3.0), (0.01, -40.0)]:
            assert abs(morans_i(g, a * x + b).statistic - base) < 1e-10

    def test_permuting_labels_with_graph_leaves_i_unchanged(self):
        rng = np.random.default_rng(3)
        edges = random_connected_graph(rng, 15)
        g = build_graph(edges, n_areas=15)
        x = rng.standard_normal(15)
        base = morans_i(g, x)
        perm = rng.permutation(15)
        g2 = build_graph(
            [(perm[i], perm[j], w) for i, j, w in edges], n_areas=15
        )
        res = morans_i(g2, x[np.argsort(perm)])
        assert abs(res.statistic - base.statistic) < 1e-12
        assert abs(res.variance - base.variance) < 1e-12

    def test_missing_values_excluded_pairwise(self):
        g = build_graph([(0, 1), (1, 2), (2, 3), (3, 4)], n_areas=5)
        x = np.array([1.0, np.nan, 2.0, -1.0, 0.5])
        res = morans_i(g, x)
        sub, original = subgraph(g, np.isfinite(x))
        manual = morans_i(sub, x[original])
        assert res.statistic == manual.statistic
        assert res.n_used == 4

    def test_zero_variance_rejected(self):
        g = build_graph([(0, 1), (1, 2)], n_areas=3)
        with pytest.raises(ValidationError, match="variance"):
            morans_i(g, np.ones(3))

    def test_all_island_rejected(self):
        g = build_graph([], n_areas=4)
        with pytest.raises(ValidationError, match="no edges"):
            morans_i(g, np.array([1.0, 2.0, 3.0, 4.0]))

    def test_too_few_areas_rejected(self):
        g = build_graph([(0, 1)], n_areas=2)
        with pytest.raises(ValidationError, match="at least 3"):
            morans_i(g, np.array([1.0, 2.0]))

    def test_permutation_method_is_seeded_and_significant(self):
        g = make_lattice(8, 8)
        x = np.array([i // 8 for i in range(64)], dtype=float)
        res1 = morans_i(g, x, method="permutation", permutations=499, seed=9)
        res2 = morans_i(g, x, method="permutation", permutations=499, seed=9)
        assert res1 == res2
        assert res1.p_value < 0.01
