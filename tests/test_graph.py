import warnings

import numpy as np
import pytest
from helpers import dense_morans_i, oracle_graph, random_connected_graph
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_weight_matrix_is_the_read_only_weights(self):
        g = build_graph([(0, 1, 1.0), (1, 2, 2.0), (0, 2, 0.5), (4, 5, 0.25)], n_areas=6)
        W = g.weight_matrix
        assert np.array_equal(W.toarray(), g.dense_weights())
        assert not any(a.flags.writeable for a in (W.data, W.indices, W.indptr))
        with pytest.raises(ValueError):
            W.data[0] = 3.0
        x = np.arange(6.0)
        assert np.array_equal(g.neighbour_sums(x), W @ x)

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


ARRAYS = (
    "indptr", "indices", "weights", "edge_i", "edge_j", "edge_w", "weight_sums",
    "wplus_eff", "island_mask", "component_labels", "component_sizes",
)


def assert_matches_oracle(g, expected):
    assert g.n_areas == expected["n_areas"]
    assert g.n_components == expected["n_components"]
    for name in ARRAYS:
        got, want = getattr(g, name), expected[name]
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    pairs = [
        (g.components(), expected["components"]),
        (g.colour_classes, expected["colour_classes"]),
        *(((b.data, b.indices, b.indptr), (e.data, e.indices, e.indptr))
          for b, e in zip(g.colour_blocks, expected["colour_blocks"])),
    ]
    assert len(g.colour_blocks) == len(expected["colour_blocks"])
    for got, want in pairs:
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)


@st.composite
def edge_listings(draw):
    """Edge lists with both orientations, repeats (some within the 1e-12
    tolerance), zero weights, interior and trailing islands, binary or
    random weights, and optionally bad edges at random positions."""
    n = draw(st.integers(0, 10))
    pairs = []
    if n > 1:
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda p: p[0] != p[1])
        pairs = draw(st.lists(pair, unique_by=lambda p: (min(p), max(p)), max_size=25))
    binary = draw(st.booleans())
    weight = st.just(1.0) if binary else st.sampled_from([0.0, 1.0, 3.0]) | st.floats(0.01, 10.0)
    listings = []
    for i, j in pairs:
        w = draw(weight)
        for _ in range(draw(st.integers(1, 3))):
            a, b = (i, j) if draw(st.booleans()) else (j, i)
            w_listed = w if draw(st.booleans()) else w * (1 + 1e-13)
            two_tuple = w_listed == 1.0 and draw(st.booleans())
            listings.append((a, b) if two_tuple else (a, b, w_listed))
    listings = draw(st.permutations(listings))
    if n > 1 and draw(st.integers(0, 3)) == 0:
        for _ in range(draw(st.integers(1, 3))):
            i = draw(st.integers(0, n - 1))
            bad = draw(st.sampled_from([
                (i, i, 1.0), (i, (i + 1) % n, -0.5), (i, (i + 1) % n, 1.0),
                (i, (i + 1) % n, 3.0), (i, n + 2, 1.0),
            ]))
            listings.insert(draw(st.integers(0, len(listings))), bad)
    n_areas = draw(st.none() | st.integers(n, n + 3))
    return listings, n_areas


class TestBuildGraphMatchesOracle:
    @settings(max_examples=300, deadline=None)
    @given(edge_listings())
    def test_every_array_and_error_matches_the_dict_build(self, case):
        edges, n_areas = case
        try:
            expected = oracle_graph(edges, n_areas)
        except ValidationError as exc:
            with pytest.raises(ValidationError) as got:
                build_graph(edges, n_areas)
            assert str(got.value) == str(exc)
            return
        assert_matches_oracle(build_graph(edges, n_areas), expected)
        assert_matches_oracle(build_graph(iter(edges), n_areas), expected)

    @pytest.mark.parametrize("edges, message", [
        ([(0, 1), (2, 2), (1, 2, -1.0), (0, 1, 2.0)], "self-loop on area 2"),
        ([(0, 1), (1, 2, -1.0), (2, 2), (0, 1, 2.0)], "negative weight -1.0 on edge (1, 2)"),
        ([(0, 1), (1, 0, 2.0), (2, 2), (1, 2, -1.0)],
         "conflicting weights for edge (0, 1): 1.0 vs 2.0"),
        ([(1, 0, 1.5), (0, 1, 1.5 + 1e-13), (0, 1, 2.0)],
         "conflicting weights for edge (0, 1): 1.5 vs 2.0"),
        ([(0, 9), (3, 7), (3, 3)], "self-loop on area 3"),
        ([(0, 9), (3, 7), (1, 2)], "edge index 9 out of range for n_areas=5"),
        ([(0, 1), (-1, 2), (2, 3, np.nan)], "nonnegative integers, got edge (-1, 2)"),
        ([(0, 1, np.inf), (0.7, 2.2)], "non-finite weight inf on edge (0, 1)"),
        ([(0, 1), (0.7, 2.2), (1, 1)], "nonnegative integers, got edge (0.7, 2.2)"),
    ])
    def test_the_first_bad_edge_is_reported(self, edges, message):
        with pytest.raises(ValidationError) as exc:
            build_graph(edges, n_areas=5)
        assert message in str(exc.value)
        if all(np.isfinite(e).all() and min(e[:2]) >= 0
               and all(float(x).is_integer() for x in e[:2]) for e in edges):
            with pytest.raises(ValidationError) as oracle:
                oracle_graph(edges, n_areas=5)
            assert str(oracle.value) == str(exc.value)

    @pytest.mark.parametrize("edges", [
        [(-1, 2)], [(0, -3, 1.0)], [(0.7, 2.2)], [(0, 1), (1, np.nan)], [(np.inf, 1)],
    ])
    def test_bad_area_index_rejected(self, edges):
        for n_areas in (4, None):
            with pytest.raises(ValidationError, match="nonnegative integers"):
                build_graph(edges, n_areas=n_areas)

    @pytest.mark.parametrize("w", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_rejected(self, w):
        with pytest.raises(ValidationError, match="non-finite weight"):
            build_graph([(0, 1, w), (1, 2)])

    def test_arrays_and_mixed_tuples(self):
        g = build_graph([(0, 1), (1, 2, 2.5), (3, 2)], n_areas=5)
        assert build_graph(np.array([[0, 1, 1.0], [1, 2, 2.5], [2, 3, 1.0]]), 5) == g
        assert build_graph(np.array([[0, 1], [1, 2]]), 3) == build_graph([(0, 1), (2, 1)], 3)
        with pytest.raises(ValidationError, match=r"\(i, j\) or \(i, j, weight\)"):
            build_graph(np.zeros((2, 4)))

    def test_neighbour_lists_are_derived_views(self):
        g = build_graph([(0, 2, 0.5), (0, 1, 1.5)], n_areas=4)
        assert g.neighbor_lists == [[1, 2], [0], [0], []]
        assert g.neighbor_weights == [[1.5, 0.5], [1.5], [0.5], []]
        with pytest.raises(AttributeError):
            g.neighbor_lists = [[], [], [], []]


class TestMakeLattice:
    @pytest.mark.parametrize("rows, cols", [(2, 2), (2, 5), (5, 2), (4, 7), (9, 6)])
    def test_matches_build_graph_of_the_lattice_edges(self, rows, cols):
        edges = []
        for r in range(rows):
            for c in range(cols):
                i = r * cols + c
                if c + 1 < cols:
                    edges.append((i, i + 1, 1.0))
                if r + 1 < rows:
                    edges.append((i, i + cols, 1.0))
        g = make_lattice(rows, cols)
        assert g == build_graph(edges, n_areas=rows * cols)
        assert_matches_oracle(g, oracle_graph(edges, rows * cols))


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

    def test_matches_build_graph_of_the_kept_edges(self):
        rng = np.random.default_rng(8)
        edges = [(i, j, float(rng.uniform(0.1, 2.0)))
                 for i, j, _ in random_connected_graph(rng, 30, extra_edges=10)]
        g = build_graph(edges, n_areas=32)
        keep = rng.random(32) < 0.6
        sub, original = subgraph(g, keep)
        new = {int(a): k for k, a in enumerate(original)}
        kept = [(new[i], new[j], w) for i, j, w in edges if i in new and j in new]
        assert_matches_oracle(sub, oracle_graph(kept, len(original)))


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

    @pytest.mark.parametrize("permutations", [-1, 0, 1])
    def test_fewer_than_two_permutations_rejected(self, permutations):
        # the permutation variance, and with it z, needs at least 2 draws
        g = make_lattice(3, 3)
        x = np.arange(9, dtype=float)
        message = f"permutations must be at least 2, got {permutations}$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=message):
                morans_i(g, x, method="permutation", permutations=permutations)
