"""Intrinsic conditional autoregressive (ICAR) prior machinery.

The ICAR prior on a field ``x`` over a :class:`~arealbayes.graph.SpatialGraph`
has unnormalised log density

    -N log(sigma) - (1 / (2 sigma^2)) * sum_{j<i} w_ij (x_i - x_j)^2

equivalently ``-x' Q x / (2 sigma^2)`` with ``Q = diag(w_{i+}) - W``. The
density is improper (constant per connected component), so the samplers
re-impose a per-component sum-to-zero constraint by centering
(:func:`center_by_component`).

Single-site full conditionals are ``N(sum_j w_ij x_j / w_{i+},
sigma^2 / w_{i+})``. Degree-0 areas (islands) have no ICAR conditional;
the package-wide island policy gives them an independent ``N(0, sigma^2)``
prior instead, which keeps the joint density proper and is what
:func:`gibbs_sweep_values` and :func:`quad_form_and_rank` implement.

The samplers store no Q: their ``Q x`` is ``w_{i+} x - W x``, one product
with W. :func:`arealbayes.gmrf.icar_precision` builds Q as a matrix.

The Gibbs sweep is chromatic: areas that share no edge are conditionally
independent given the rest of the field, so the sweep draws one colour
class of the graph (:attr:`SpatialGraph.colour_classes`) at a time, every
site of the class at once from its exact full conditional, with the
neighbour sums taken from the class's CSR row block of W by
:func:`arealbayes.graph.csr_matvec`, the kernel stage 2's sweep calls too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gmrf
from .errors import DimensionMismatchError, ValidationError
from .graph import SpatialGraph, csr_matvec

__all__ = [
    "IcarField",
    "icar_logdensity_unnormalized",
    "center_by_component",
    "gibbs_sweep_values",
    "precision_matrix",
    "quad_form_and_rank",
]


@dataclass
class IcarField:
    """A real field over the areas of a graph with an ICAR prior scale.

    ``values`` is the field itself (eta, v or delta depending on the
    caller); ``variance`` is the conditional variance scale sigma^2,
    fixed to 1 in contexts where the scale is not identified.
    """

    graph: SpatialGraph
    values: np.ndarray
    variance: float = 1.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.graph.n_areas,):
            raise DimensionMismatchError(
                f"field has {self.values.shape[0]} values for a graph "
                f"with {self.graph.n_areas} areas"
            )
        if not self.variance > 0:
            raise ValidationError("variance must be positive")

    def component_sums(self) -> np.ndarray:
        return np.array(
            [self.values[idx].sum() for idx in self.graph.components()]
        )


def icar_logdensity_unnormalized(field: IcarField) -> float:
    """Unnormalised ICAR log density via the pairwise-difference sum.

    Equals ``-N log(sigma) - x' Q x / (2 sigma^2)`` with ``Q = diag(w_{i+})
    - W``, so islands add no quadratic term; the N in the power of sigma
    counts all areas. Invariant under adding a constant per connected component.
    """
    x = field.values
    quad = float(x @ _precision_product(field.graph, x, island_proper=False))
    n = field.graph.n_areas
    return -n * math.log(math.sqrt(field.variance)) - quad / (2.0 * field.variance)


def center_by_component(
    values: np.ndarray, graph: SpatialGraph
) -> tuple[np.ndarray, np.ndarray]:
    """Subtract each component's mean; also return the subtracted means.

    On a connected graph this is ``values - values.mean()`` (taken as
    ``values.sum() / n``, the same bits without ``mean``'s overhead).
    Otherwise the component sums come from one ``np.bincount`` over the
    component labels, which can round differently in the last bits from a
    per-component ``mean``.
    """
    values = np.asarray(values, dtype=float)
    if graph.n_components == 1:
        m = values.sum() / len(values)
        return values - m, np.array([m])
    labels = graph.component_labels
    means = (
        np.bincount(labels, weights=values, minlength=graph.n_components)
        / graph.component_sizes
    )
    return values - means[labels], means


def centered_dimension(graph: SpatialGraph) -> int:
    """Dimension of the subspace :func:`center_by_component` projects onto.

    One sum-to-zero constraint per component it centres; islands are
    centred too, which pins them at 0, so this is ``n - n_components``.
    """
    return graph.n_areas - graph.n_components


def gibbs_sweep_values(
    values: np.ndarray,
    graph: SpatialGraph,
    variance: float,
    lik_precision: np.ndarray,
    lik_weighted_mean: np.ndarray,
    normals: np.ndarray,
) -> None:
    """One colour-class single-site Gibbs sweep, in place.

    Each site is drawn from the exact Normal full conditional formed by
    the ICAR prior conditional and a Gaussian likelihood term given as
    (precision, precision * mean) per area. Islands use the N(0, variance)
    island prior. The classes of :attr:`SpatialGraph.colour_classes` run
    in colour order and the sites of a class are drawn at once, so each
    site sees the current values of its neighbours. ``values`` is a float
    array and is mutated; ``normals[i]`` is the standard normal draw of
    area ``i``, so the caller controls the random stream.
    """
    post_prec = graph.wplus_eff / variance + lik_precision
    # conditional mean = neighbour sum * scale + the likelihood's share
    scale = 1.0 / (variance * post_prec)
    offset = lik_weighted_mean / post_prec + normals / np.sqrt(post_prec)
    for idx, block in zip(graph.colour_classes, graph.colour_blocks):
        values[idx] = scale[idx] * csr_matvec(block, values) + offset[idx]


def precision_matrix(graph: SpatialGraph, island_proper: bool = False) -> np.ndarray:
    """Dense ICAR precision ``Q = diag(w_{i+}) - W``: :func:`gmrf.icar_precision`.

    With ``island_proper=True`` islands get a unit diagonal, matching the
    N(0, sigma^2) island prior; otherwise their rows are identically zero.
    Intended for oracles and simulation, not for large n.
    """
    Q = gmrf.icar_precision(graph).toarray()
    if not island_proper:
        Q[graph.island_indices, graph.island_indices] = 0.0
    return Q


def _precision_product(graph: SpatialGraph, x: np.ndarray, island_proper=True) -> np.ndarray:
    """``Q x`` as ``w_{i+} x - W x``, Q as :func:`precision_matrix` gives it."""
    diagonal = graph.wplus_eff if island_proper else graph.weight_sums
    return diagonal * x - graph.neighbour_sums(x)


def quad_form_and_rank(graph: SpatialGraph, values: np.ndarray) -> tuple[float, int]:
    """Quadratic form and effective rank of the ICAR prior at ``values``.

    Returns ``(sum_{j<i} w_ij (x_i - x_j)^2 + sum_islands x_i^2,
    n - n_components + n_islands)``, the quadratic form as ``x . (w_{i+} x
    - W x)``. The island terms come from the island policy's proper N(0,
    sigma^2) prior; for graphs without islands this is exactly the pairwise
    form with rank ``n - n_components``. This pair is what a conjugate Gamma
    precision update needs: shape gains rank/2 and rate gains quad/2.
    """
    values = np.asarray(values, dtype=float)
    quad = float(values @ _precision_product(graph, values))
    rank = graph.n_areas - graph.n_components + len(graph.island_indices)
    return quad, rank
