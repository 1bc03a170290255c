"""Areal adjacency graphs and graph-level spatial statistics.

A :class:`SpatialGraph` stores an undirected, weighted adjacency structure
over ``n_areas`` areal units (counties, lattice cells, ...). It is the
backbone of every intrinsic-CAR computation in this package: conditionals,
quadratic forms and constrained sweeps all read neighbour lists and weight
sums from here.

Graphs are immutable after construction and safe to share across worker
processes.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np
from scipy import sparse, stats

from .errors import ValidationError

__all__ = [
    "SpatialGraph",
    "build_graph",
    "subgraph",
    "morans_i",
    "MoranResult",
]


class SpatialGraph:
    """Symmetric weighted adjacency over ``n_areas`` areal units.

    Every array attribute is built once, at construction, and is
    read-only.

    Attributes
    ----------
    n_areas : int
        Number of areal units, indexed ``0 .. n_areas - 1``.
    neighbor_lists : list[list[int]]
        Sorted adjacent indices per area. ``i`` never lists itself.
    neighbor_weights : list[list[float]]
        Edge weights parallel to ``neighbor_lists``; symmetric by
        construction (``w_ij == w_ji``).
    indptr, indices, weights : ndarray
        The same adjacency in CSR form: the neighbours of ``i`` are
        ``indices[indptr[i]:indptr[i + 1]]``.
    edge_i, edge_j, edge_w : ndarray
        Each undirected edge once, ``edge_i < edge_j``, ordered by
        ``edge_i`` and then ``edge_j``.
    weight_sums : ndarray
        ``w_{i+} = sum_j w_ij`` per area. Zero exactly for islands.
    wplus_eff : ndarray
        ``weight_sums`` with 1 in place of each island's 0, the divisor
        of the island policy's N(0, sigma^2) prior.
    island_mask, island_indices : ndarray
        Degree-0 areas, as a mask and as sorted indices.
    component_labels : ndarray
        Connected-component id per area, numbered by smallest member index.
    component_sizes : ndarray
        Number of areas per component, by label.
    colour_classes : list[ndarray]
        Greedy colouring in ascending area order, as sorted member indices
        per colour: each area takes the smallest colour that none of its
        lower-indexed neighbours holds. No edge joins two areas of one
        class, so under an ICAR prior the areas of a class are
        conditionally independent given the rest of the field.
    colour_blocks : list[scipy.sparse.csr_matrix]
        The rows ``colour_classes[c]`` of the weight matrix W, so
        ``colour_blocks[c] @ x`` gives ``sum_j w_ij x_j`` for every area
        ``i`` of class ``c``.
    """

    def __init__(self, neighbor_lists, neighbor_weights, n_areas):
        self.n_areas = int(n_areas)
        self.neighbor_lists = neighbor_lists
        self.neighbor_weights = neighbor_weights
        degrees = np.array([len(nb) for nb in neighbor_lists], dtype=np.int64)
        self.indptr = np.concatenate(([0], np.cumsum(degrees))).astype(np.int64)
        self.indices = np.array(
            [j for nb in neighbor_lists for j in nb], dtype=np.int64
        )
        self.weights = np.array(
            [w for wts in neighbor_weights for w in wts], dtype=float
        )
        rows = np.repeat(np.arange(self.n_areas), degrees)
        upper = self.indices > rows
        self.edge_i = rows[upper]
        self.edge_j = self.indices[upper]
        self.edge_w = self.weights[upper]
        self.weight_sums = np.array(
            [math.fsum(w) for w in neighbor_weights], dtype=float
        )
        self.island_mask = degrees == 0
        self.island_indices = np.flatnonzero(self.island_mask)
        self.wplus_eff = np.where(self.island_mask, 1.0, self.weight_sums)
        self.component_labels = _label_components(neighbor_lists, self.n_areas)
        self.n_components = int(self.component_labels.max()) + 1 if self.n_areas else 0
        self.component_sizes = np.bincount(
            self.component_labels, minlength=self.n_components
        )
        by_label = np.argsort(self.component_labels, kind="stable")
        self._components = (
            np.split(by_label, np.cumsum(self.component_sizes)[:-1])
            if self.n_areas else []
        )
        self.colour_classes = _colour_classes(neighbor_lists)
        W = sparse.csr_matrix(
            (self.weights, self.indices, self.indptr), shape=(self.n_areas,) * 2
        )
        self.colour_blocks = [W[idx] for idx in self.colour_classes]
        for arr in (
            self.indptr, self.indices, self.weights, self.edge_i, self.edge_j,
            self.edge_w, self.weight_sums, self.wplus_eff, self.island_mask,
            self.island_indices, self.component_labels, self.component_sizes,
            *self._components, *self.colour_classes,
            *(a for b in self.colour_blocks for a in (b.data, b.indices, b.indptr)),
        ):
            arr.flags.writeable = False

    def degree(self, i: int) -> int:
        return len(self.neighbor_lists[i])

    @property
    def n_edges(self) -> int:
        return len(self.edge_i)

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """Yield each undirected edge once as ``(i, j, w)`` with ``i < j``."""
        return zip(self.edge_i.tolist(), self.edge_j.tolist(), self.edge_w.tolist())

    def dense_weights(self) -> np.ndarray:
        """Dense symmetric weight matrix. Intended for small-n oracles."""
        W = np.zeros((self.n_areas, self.n_areas))
        W[self.edge_i, self.edge_j] = self.edge_w
        W[self.edge_j, self.edge_i] = self.edge_w
        return W

    def components(self) -> list[np.ndarray]:
        """Sorted member indices of each connected component, by label order."""
        return list(self._components)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpatialGraph):
            return NotImplemented
        return (
            self.n_areas == other.n_areas
            and self.neighbor_lists == other.neighbor_lists
            and self.neighbor_weights == other.neighbor_weights
        )

    def __repr__(self) -> str:
        return (
            f"SpatialGraph(n_areas={self.n_areas}, n_edges={self.n_edges}, "
            f"n_components={self.n_components})"
        )


def _label_components(neighbor_lists, n: int) -> np.ndarray:
    labels = np.full(n, -1, dtype=int)
    current = 0
    for start in range(n):
        if labels[start] >= 0:
            continue
        stack = [start]
        labels[start] = current
        while stack:
            u = stack.pop()
            for v in neighbor_lists[u]:
                if labels[v] < 0:
                    labels[v] = current
                    stack.append(v)
        current += 1
    return labels


def _colour_classes(neighbor_lists) -> list[np.ndarray]:
    colour = [0] * len(neighbor_lists)
    for i, nbs in enumerate(neighbor_lists):
        taken = {colour[j] for j in nbs if j < i}
        c = 0
        while c in taken:
            c += 1
        colour[i] = c
    colour = np.array(colour, dtype=np.int64)
    n_colours = int(colour.max()) + 1 if len(colour) else 0
    return [np.flatnonzero(colour == c) for c in range(n_colours)]


def build_graph(
    edges: Iterable[tuple[int, int, float]] | Iterable[tuple[int, int]],
    n_areas: int | None = None,
) -> SpatialGraph:
    """Build a canonical symmetric graph from an undirected edge list.

    Each edge is ``(i, j)`` or ``(i, j, weight)``; missing weights default
    to 1.0 (binary contiguity). Listing an edge in either orientation, or
    repeatedly with the same weight, is accepted; repeating it with a
    different weight is a validation error, as is a self loop or a negative
    weight. Pairs not listed have weight zero. Areas never mentioned are
    islands, which are permitted here and handled by each downstream
    module's island policy.

    Parameters
    ----------
    edges : iterable of (i, j[, weight])
    n_areas : int, optional
        Total number of areas. Defaults to ``max index + 1``; pass it
        explicitly when trailing areas are islands.
    """
    pair_weights: dict[tuple[int, int], float] = {}
    max_idx = -1
    for edge in edges:
        if len(edge) == 2:
            i, j = edge
            w = 1.0
        else:
            i, j, w = edge
        i, j, w = int(i), int(j), float(w)
        if i == j:
            raise ValidationError(f"self-loop on area {i} is not allowed")
        if w < 0:
            raise ValidationError(f"negative weight {w} on edge ({i}, {j})")
        key = (i, j) if i < j else (j, i)
        if key in pair_weights:
            if not math.isclose(pair_weights[key], w, rel_tol=1e-12, abs_tol=1e-12):
                raise ValidationError(
                    f"conflicting weights for edge {key}: "
                    f"{pair_weights[key]} vs {w}"
                )
        else:
            pair_weights[key] = w
        max_idx = max(max_idx, i, j)

    n = max_idx + 1 if n_areas is None else int(n_areas)
    if n_areas is not None and max_idx >= n:
        raise ValidationError(
            f"edge index {max_idx} out of range for n_areas={n}"
        )
    if n < 0:
        raise ValidationError("n_areas must be nonnegative")

    neighbor_lists: list[list[int]] = [[] for _ in range(n)]
    neighbor_weights: list[list[float]] = [[] for _ in range(n)]
    for (i, j), w in sorted(pair_weights.items()):
        if w == 0.0:
            continue
        neighbor_lists[i].append(j)
        neighbor_weights[i].append(w)
        neighbor_lists[j].append(i)
        neighbor_weights[j].append(w)
    for i in range(n):
        order = np.argsort(neighbor_lists[i], kind="stable")
        neighbor_lists[i] = [neighbor_lists[i][k] for k in order]
        neighbor_weights[i] = [neighbor_weights[i][k] for k in order]
    return SpatialGraph(neighbor_lists, neighbor_weights, n)


def subgraph(graph: SpatialGraph, keep: Sequence[int] | np.ndarray) -> tuple[SpatialGraph, np.ndarray]:
    """Restrict a graph to a subset of areas, relabelling ``0 .. k-1``.

    ``keep`` is either a boolean mask of length ``n_areas`` or a sorted
    sequence of indices. Returns the restricted graph and the original
    indices of its areas (so results can be mapped back).
    """
    keep = np.asarray(keep)
    if keep.dtype == bool:
        if keep.shape != (graph.n_areas,):
            raise ValidationError("boolean keep mask has wrong length")
        original = np.flatnonzero(keep)
    else:
        original = np.unique(keep.astype(int))
        if len(original) and (original[0] < 0 or original[-1] >= graph.n_areas):
            raise ValidationError("keep indices out of range")
    new_index = np.full(graph.n_areas, -1)
    new_index[original] = np.arange(len(original))
    ei, ej = new_index[graph.edge_i], new_index[graph.edge_j]
    both = (ei >= 0) & (ej >= 0)
    edges = zip(ei[both].tolist(), ej[both].tolist(), graph.edge_w[both].tolist())
    return build_graph(edges, n_areas=len(original)), original


class MoranResult(NamedTuple):
    statistic: float
    z_score: float
    p_value: float
    expected: float
    variance: float
    n_used: int


def morans_i(
    graph: SpatialGraph,
    x: np.ndarray,
    method: str = "analytic",
    permutations: int = 999,
    seed: int = 0,
) -> MoranResult:
    """Global Moran's I with a two-sided significance test.

    ``I = (n / S0) * sum_ij w_ij (x_i - xbar)(x_j - xbar) / sum_i (x_i - xbar)^2``
    with ``S0 = sum_ij w_ij``. Areas with missing (NaN) ``x`` are removed
    together with their edges before anything is computed.

    ``method="analytic"`` uses the mean ``-1/(n-1)`` and variance of I
    under the normality null; ``method="permutation"`` instead compares
    against ``permutations`` seeded random relabellings (recommended for
    small n).
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (graph.n_areas,):
        raise ValidationError(
            f"x has length {x.shape[0]}, graph has {graph.n_areas} areas"
        )
    observed = np.isfinite(x)
    if not observed.all():
        graph, original = subgraph(graph, observed)
        x = x[original]
    n = graph.n_areas
    if n < 3:
        raise ValidationError("Moran's I needs at least 3 observed areas")
    z = x - x.mean()
    denom = float(z @ z)
    if denom == 0.0:
        raise ValidationError("x has zero variance")
    s0 = float(graph.weight_sums.sum())
    if s0 == 0.0:
        raise ValidationError("graph has no edges among observed areas")

    ei, ej, w = graph.edge_i, graph.edge_j, graph.edge_w
    cross = 2.0 * float(w @ (z[ei] * z[ej]))
    s1 = 4.0 * float(w @ w)
    stat = (n / s0) * cross / denom
    e_i = -1.0 / (n - 1)

    if method == "analytic":
        s2 = float(np.sum((2.0 * graph.weight_sums) ** 2))
        var = (n * n * s1 - n * s2 + 3.0 * s0 * s0) / (s0 * s0 * (n * n - 1.0)) - e_i**2
        if var <= 0:
            raise ValidationError("degenerate weight structure: variance of I <= 0")
        zscore = (stat - e_i) / math.sqrt(var)
        pvalue = 2.0 * stats.norm.sf(abs(zscore))
        return MoranResult(stat, zscore, pvalue, e_i, var, n)
    if method == "permutation":
        rng = np.random.default_rng(seed)
        sims = np.empty(permutations)
        for k in range(permutations):
            xp = rng.permutation(x)
            zp = xp - xp.mean()
            sims[k] = (n / s0) * 2.0 * float(w @ (zp[ei] * zp[ej])) / float(zp @ zp)
        var = float(np.var(sims, ddof=1))
        zscore = (stat - e_i) / math.sqrt(var) if var > 0 else math.inf
        extreme = np.sum(np.abs(sims - e_i) >= abs(stat - e_i))
        pvalue = (1.0 + float(extreme)) / (permutations + 1.0)
        return MoranResult(stat, zscore, pvalue, e_i, var, n)
    raise ValidationError(f"unknown method {method!r}")
