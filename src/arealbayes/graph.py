"""Areal adjacency graphs and graph-level spatial statistics.

A :class:`SpatialGraph` stores an undirected, weighted adjacency structure
over ``n_areas`` areal units (counties, lattice cells, ...). It is the
backbone of every intrinsic-CAR computation in this package: conditionals,
quadratic forms and constrained sweeps all read its arrays. The CSR
arrays are the only stored form of the adjacency: the edge arrays,
components, colour classes and the Python neighbour lists are derived from
them, and :func:`build_graph` builds them from an edge list in array
operations.

Graphs are immutable after construction and safe to share across worker
processes.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np
from scipy import sparse, stats
from scipy.sparse import csgraph

try:  # scipy's compiled CSR kernel, which ``csr_matrix @ x`` calls after its dispatch
    from scipy.sparse._sparsetools import csr_matvec as _csr_matvec
except ImportError:  # pragma: no cover - a scipy that moved its private kernels
    _csr_matvec = None

from .errors import DimensionMismatchError, ValidationError

__all__ = [
    "SpatialGraph",
    "csr_matvec",
    "build_graph",
    "subgraph",
    "morans_i",
    "MoranResult",
]


class SpatialGraph:
    """Symmetric weighted adjacency over ``n_areas`` areal units, in CSR form.

    :func:`build_graph` validates an edge list and builds the CSR arrays.
    The constructor trusts them (symmetric, sorted rows, positive weights)
    and derives every other attribute from them once, read-only.

    Attributes
    ----------
    n_areas : int
        Number of areal units, indexed ``0 .. n_areas - 1``.
    indptr, indices, weights : ndarray
        The adjacency in CSR form: the neighbours of ``i`` are
        ``indices[indptr[i]:indptr[i + 1]]``, sorted, with weights
        ``weights[indptr[i]:indptr[i + 1]]`` (``w_ij == w_ji``).
    edge_i, edge_j, edge_w : ndarray
        Each undirected edge once, ``edge_i < edge_j``, ordered by
        ``edge_i`` and then ``edge_j``.
    weight_sums : ndarray
        ``w_{i+} = sum_j w_ij`` per area, exactly rounded (``math.fsum``).
        Zero exactly for islands.
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
    weight_matrix : scipy.sparse.csr_matrix
        The weight matrix W over the CSR arrays, read-only: the one sparse
        W of the package, which the samplers and the precision Q slice
        and combine rather than rebuild.
    colour_blocks : list[scipy.sparse.csr_matrix]
        The rows ``colour_classes[c]`` of W, so
        ``colour_blocks[c] @ x`` gives ``sum_j w_ij x_j`` for every area
        ``i`` of class ``c``.
    neighbor_lists, neighbor_weights : list[list]
        The CSR rows as Python lists, rebuilt in full on every access.

    :meth:`neighbour_sums` gives ``W @ x``.
    """

    def __init__(self, n_areas, indptr, indices, weights):
        n = int(n_areas)
        self.n_areas = n
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.weights = np.asarray(weights, dtype=float)
        degrees = np.diff(self.indptr)
        rows = np.repeat(np.arange(n), degrees)
        upper = self.indices > rows
        self.edge_i = rows[upper]
        self.edge_j = self.indices[upper]
        self.edge_w = self.weights[upper]
        self.weight_sums = np.array(
            [math.fsum(w) for w in self.neighbor_weights], dtype=float
        )
        self.island_mask = degrees == 0
        self.island_indices = np.flatnonzero(self.island_mask)
        self.wplus_eff = np.where(self.island_mask, 1.0, self.weight_sums)
        W = self.weight_matrix = sparse.csr_matrix(
            (self.weights, self.indices, self.indptr), shape=(n, n)
        )
        labels = csgraph.connected_components(W, directed=False)[1]
        # number the components in order of their smallest member
        _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
        self.component_labels = np.argsort(np.argsort(first))[inverse]
        self.n_components = len(first)
        self.component_sizes = np.bincount(
            self.component_labels, minlength=self.n_components
        )
        by_label = np.argsort(self.component_labels, kind="stable")
        self._components = (
            np.split(by_label, np.cumsum(self.component_sizes)[:-1]) if n else []
        )
        self.colour_classes = _colour_classes(self.neighbor_lists)
        self.colour_blocks = [W[idx] for idx in self.colour_classes]
        for arr in (
            self.indptr, self.indices, self.weights, self.edge_i, self.edge_j,
            self.edge_w, self.weight_sums, self.wplus_eff, self.island_mask,
            self.island_indices, self.component_labels, self.component_sizes,
            *self._components, *self.colour_classes,
            *(a for b in (W, *self.colour_blocks) for a in (b.data, b.indices, b.indptr)),
        ):
            arr.flags.writeable = False

    def _rows(self, values: np.ndarray) -> list[list]:
        flat = values.tolist()
        ptr = self.indptr.tolist()
        return [flat[a:b] for a, b in zip(ptr[:-1], ptr[1:])]

    @property
    def neighbor_lists(self) -> list[list[int]]:
        """Sorted adjacent indices per area. ``i`` never lists itself.

        Every access rebuilds all ``n_areas`` lists from CSR, in O(n + m):
        bind the result once before a loop over areas, or read one row as
        ``indices[indptr[i]:indptr[i + 1]]``.
        """
        return self._rows(self.indices)

    @property
    def neighbor_weights(self) -> list[list[float]]:
        """Edge weights parallel to :attr:`neighbor_lists`, rebuilt on every access."""
        return self._rows(self.weights)

    def neighbour_sums(self, x: np.ndarray) -> np.ndarray:
        """``W @ x``: ``sum_j w_ij x_j`` for every area, 0 for islands."""
        return csr_matvec(self.weight_matrix, x)

    def degree(self, i: int) -> int:
        return int(self.indptr[i + 1] - self.indptr[i])

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
        return self.n_areas == other.n_areas and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("indptr", "indices", "weights")
        )

    def __repr__(self) -> str:
        return (
            f"SpatialGraph(n_areas={self.n_areas}, n_edges={self.n_edges}, "
            f"n_components={self.n_components})"
        )


def csr_matvec(A, x: np.ndarray) -> np.ndarray:
    """``A @ x`` for a CSR matrix A and a float vector x, bit for bit.

    The samplers multiply small colour-class blocks several times an
    iteration, and on a 112 x 225 block of the 15x15 lattice
    ``csr_matrix @ x`` spends about 3 of its 4 us in dispatch before it
    calls the kernel called here. The kernel reads x without a bounds
    check, so its length is checked first.
    """
    rows, cols = A.shape
    if x.shape != (cols,):
        raise DimensionMismatchError(f"vector of shape {x.shape} for a matrix of shape {A.shape}")
    if _csr_matvec is None:  # pragma: no cover
        return A @ x
    out = np.zeros(rows)
    _csr_matvec(rows, cols, A.indptr, A.indices, A.data, x, out)
    return out


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


def _edge_array(edges) -> np.ndarray:
    """Edges as an (m, 3) float array ``[i, j, w]``; a 2-tuple gets weight 1."""
    edges = edges if isinstance(edges, np.ndarray) else list(edges)
    try:
        arr = np.array(edges, dtype=float)
    except ValueError:  # a mix of 2- and 3-tuples
        arr = np.array(
            [(*e, 1.0) if len(e) == 2 else e for e in edges], dtype=float
        )
    arr = arr.reshape(len(arr), -1) if arr.size else np.zeros((0, 3))
    if arr.shape[1] == 2:
        arr = np.column_stack([arr, np.ones(len(arr))])
    if arr.shape[1] != 3:
        raise ValidationError("each edge must be (i, j) or (i, j, weight)")
    return arr


def build_graph(
    edges: Iterable[tuple[int, int, float]] | Iterable[tuple[int, int]] | np.ndarray,
    n_areas: int | None = None,
) -> SpatialGraph:
    """Build a canonical symmetric graph from an undirected edge list.

    Each edge is ``(i, j)`` or ``(i, j, weight)``, or a row of an (m, 2) or
    (m, 3) array; missing weights default to 1.0 (binary contiguity).
    Listing an edge in either orientation, or repeatedly with the same
    weight, is accepted, and the first weight listed is kept; repeating it
    with a different weight is a validation error, as is a self loop, an
    area index that is negative or not an integer, or a weight that is
    negative or not finite. The first bad edge in input order is reported;
    an index beyond ``n_areas`` only after all of them. Pairs not listed,
    or listed with weight zero, have no edge. Areas never mentioned are
    islands, which are permitted here and handled by each downstream
    module's island policy.

    Parameters
    ----------
    edges : iterable of (i, j[, weight]), or an (m, 2) or (m, 3) array
    n_areas : int, optional
        Total number of areas. Defaults to ``max index + 1``; pass it
        explicitly when trailing areas are islands.
    """
    arr = _edge_array(edges)
    i, j, w = arr.T
    lo = np.minimum(i, j)
    hi = np.maximum(i, j)
    # group the listings of each pair, in input order within a pair
    order = np.lexsort((np.arange(len(arr)), hi, lo))
    lo_s = lo[order]
    hi_s = hi[order]
    w_s = w[order]
    first = np.ones(len(arr), dtype=bool)
    first[1:] = (lo_s[1:] != lo_s[:-1]) | (hi_s[1:] != hi_s[:-1])
    first_w = np.empty(len(arr))
    first_w[order] = w_s[first][np.cumsum(first) - 1]
    with np.errstate(invalid="ignore"):
        bad_index = ~(
            (lo >= 0) & np.isfinite(hi) & (i == np.floor(i)) & (j == np.floor(j))
        )
        # math.isclose(first_w, w, rel_tol=1e-12, abs_tol=1e-12), elementwise
        tol = 1e-12 * np.maximum(np.maximum(np.abs(w), np.abs(first_w)), 1.0)
        conflict = ~(np.abs(w - first_w) <= tol)
        # each message with the mask of the edges it reports, in priority order
        checks = [
            ("area indices must be nonnegative integers, got edge ({i}, {j})",
             bad_index),
            ("self-loop on area {i} is not allowed", i == j),
            ("non-finite weight {w} on edge ({i}, {j})", ~np.isfinite(w)),
            ("negative weight {w} on edge ({i}, {j})", w < 0),
            ("conflicting weights for edge ({lo}, {hi}): {first_w} vs {w}",
             conflict),
        ]
    bad = np.logical_or.reduce([mask for _, mask in checks])
    if bad.any():
        k = int(np.argmax(bad))
        message = next(msg for msg, mask in checks if mask[k])
        index = {
            name: int(x) if x.is_integer() else x
            for name, x in (("i", i[k]), ("j", j[k]), ("lo", lo[k]), ("hi", hi[k]))
        }
        raise ValidationError(
            message.format(**index, w=float(w[k]), first_w=float(first_w[k]))
        )
    max_idx = int(hi.max()) if len(arr) else -1
    n = max_idx + 1 if n_areas is None else int(n_areas)
    if n_areas is not None and max_idx >= n:
        raise ValidationError(f"edge index {max_idx} out of range for n_areas={n}")
    if n < 0:
        raise ValidationError("n_areas must be nonnegative")
    keep = first & (w_s != 0.0)
    return _from_pairs(
        n, lo_s[keep].astype(np.int64), hi_s[keep].astype(np.int64), w_s[keep]
    )


def _from_pairs(n: int, i: np.ndarray, j: np.ndarray, w: np.ndarray) -> SpatialGraph:
    """The graph of distinct int64 pairs ``i < j`` with positive weights ``w``."""
    rows = np.concatenate([i, j])
    cols = np.concatenate([j, i])
    order = np.lexsort((cols, rows))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    return SpatialGraph(n, indptr, cols[order], np.concatenate([w, w])[order])


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
    # relabelling is monotone, so the kept edges stay distinct pairs i < j
    return _from_pairs(len(original), ei[both], ej[both], graph.edge_w[both]), original


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
    small n; at least 2, so that their variance is defined).
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
        if permutations < 2:
            raise ValidationError(f"permutations must be at least 2, got {permutations}")
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
