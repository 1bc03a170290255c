"""Intrinsic conditional autoregressive (ICAR) prior machinery.

The ICAR prior on a field ``x`` over a :class:`~arealbayes.graph.SpatialGraph`
has unnormalised log density

    -N log(sigma) - (1 / (2 sigma^2)) * sum_{j<i} w_ij (x_i - x_j)^2

equivalently ``-x' Q x / (2 sigma^2)`` with ``Q = diag(w_{i+}) - W``. The
density is improper (constant per connected component), so every sampler
here re-imposes a per-component sum-to-zero constraint by centering.

Single-site full conditionals are ``N(sum_j w_ij x_j / w_{i+},
sigma^2 / w_{i+})``. Degree-0 areas (islands) have no ICAR conditional;
the package-wide island policy gives them an independent ``N(0, sigma^2)``
prior instead, which keeps the joint density proper and is what
:func:`sample_icar_gibbs_sweep` and :func:`quad_form_and_rank` implement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, ValidationError
from .graph import SpatialGraph

__all__ = [
    "IcarField",
    "icar_conditional",
    "icar_logdensity_unnormalized",
    "project_sum_to_zero",
    "sample_icar_gibbs_sweep",
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


def icar_conditional(field: IcarField, i: int) -> tuple[float, float]:
    """Conditional mean and variance of site ``i`` given its neighbours.

    Raises for islands; callers must apply their island policy instead.
    """
    nbs = field.graph.neighbor_lists[i]
    if not nbs:
        raise ValidationError(
            f"area {i} is an island: the ICAR conditional is undefined"
        )
    wts = field.graph.neighbor_weights[i]
    wplus = field.graph.weight_sums[i]
    s = 0.0
    for j, w in zip(nbs, wts):
        s += w * field.values[j]
    return s / wplus, field.variance / wplus


def icar_logdensity_unnormalized(field: IcarField) -> float:
    """Unnormalised ICAR log density via the pairwise-difference sum.

    Equals ``-N log(sigma) - x' Q x / (2 sigma^2)`` with
    ``Q = diag(w_{i+}) - W``; the N in the power of sigma counts all
    areas. Invariant under adding a constant per connected component.
    """
    quad = _edge_quad(field.graph, field.values)
    n = field.graph.n_areas
    return -n * math.log(math.sqrt(field.variance)) - quad / (2.0 * field.variance)


def project_sum_to_zero(field: IcarField) -> IcarField:
    """Center the field within every connected component. Idempotent."""
    centered, _ = center_by_component(field.values, field.graph)
    return replace(field, values=centered)


def center_by_component(
    values: np.ndarray, graph: SpatialGraph
) -> tuple[np.ndarray, np.ndarray]:
    """Subtract each component's mean; also return the subtracted means."""
    out = np.array(values, dtype=float)
    shifts = np.empty(graph.n_components)
    for c, idx in enumerate(graph.components()):
        m = out[idx].mean()
        out[idx] -= m
        shifts[c] = m
    return out, shifts


def gibbs_sweep_values(
    values: list,
    graph: SpatialGraph,
    variance: float,
    lik_precision: Sequence[float],
    lik_weighted_mean: Sequence[float],
    normals: Sequence[float],
) -> None:
    """One ascending-order single-site Gibbs sweep, in place.

    Each site is drawn from the exact Normal full conditional formed by
    the ICAR prior conditional and a Gaussian likelihood term given as
    (precision, precision * mean) per area. Islands use the N(0, variance)
    island prior. ``values`` is a plain Python list and is mutated;
    ``normals`` supplies one standard normal draw per site so the caller
    controls the random stream.
    """
    nbr_idx, nbr_w, binary = graph.neighbor_lists, graph.neighbor_weights, graph.is_binary
    wplus_eff = graph.wplus_eff.tolist()
    inv_var = 1.0 / variance
    n = len(values)
    sqrt = math.sqrt
    if binary:
        for i in range(n):
            s = 0.0
            for j in nbr_idx[i]:
                s += values[j]
            post_prec = wplus_eff[i] * inv_var + lik_precision[i]
            values[i] = (s * inv_var + lik_weighted_mean[i]) / post_prec + normals[
                i
            ] / sqrt(post_prec)
    else:
        for i in range(n):
            s = 0.0
            for j, w in zip(nbr_idx[i], nbr_w[i]):
                s += w * values[j]
            post_prec = wplus_eff[i] * inv_var + lik_precision[i]
            values[i] = (s * inv_var + lik_weighted_mean[i]) / post_prec + normals[
                i
            ] / sqrt(post_prec)


def sample_icar_gibbs_sweep(
    field: IcarField,
    lik_precision: np.ndarray,
    lik_weighted_mean: np.ndarray,
    rng: np.random.Generator,
) -> IcarField:
    """Sweep every site in ascending index order, then re-center.

    ``lik_precision[i]`` and ``lik_weighted_mean[i]`` are the Gaussian
    likelihood contribution of area ``i`` in natural parameters (precision
    and precision-weighted mean); zeros mean "no data at this site" and
    yield a draw from the prior conditional. The ascending order and the
    one-draw-per-site stream make sweeps bitwise reproducible for a given
    generator state.
    """
    lik_precision = np.asarray(lik_precision, dtype=float)
    lik_weighted_mean = np.asarray(lik_weighted_mean, dtype=float)
    n = field.graph.n_areas
    if lik_precision.shape != (n,) or lik_weighted_mean.shape != (n,):
        raise DimensionMismatchError("likelihood contributions must have length n_areas")
    if (lik_precision < 0).any():
        raise ValidationError("likelihood precisions must be nonnegative")
    values = field.values.tolist()
    normals = rng.standard_normal(n).tolist()
    gibbs_sweep_values(
        values, field.graph, field.variance,
        lik_precision.tolist(), lik_weighted_mean.tolist(), normals,
    )
    centered, _ = center_by_component(np.asarray(values), field.graph)
    return replace(field, values=centered)


def precision_matrix(graph: SpatialGraph, island_proper: bool = False) -> np.ndarray:
    """Dense ICAR precision ``Q = diag(w_{i+}) - W``.

    With ``island_proper=True`` islands get a unit diagonal, matching the
    N(0, sigma^2) island prior; otherwise their rows are identically zero.
    Intended for oracles, simulation and the Laplace mode, not for large n.
    """
    Q = np.diag(graph.weight_sums)
    Q[graph.edge_i, graph.edge_j] = -graph.edge_w
    Q[graph.edge_j, graph.edge_i] = -graph.edge_w
    if island_proper:
        Q[graph.island_indices, graph.island_indices] = 1.0
    return Q


def _edge_quad(graph: SpatialGraph, values: np.ndarray) -> float:
    """``sum_{j<i} w_ij (x_i - x_j)^2``, summed in edge order.

    The running sum adds the terms one by one in the order of
    :meth:`SpatialGraph.edges`, so the result does not depend on how numpy
    would block a pairwise reduction.
    """
    if not len(graph.edge_w):
        return 0.0
    d = values[graph.edge_i] - values[graph.edge_j]
    return float(np.cumsum(graph.edge_w * d * d)[-1])


def quad_form_and_rank(graph: SpatialGraph, values: np.ndarray) -> tuple[float, int]:
    """Quadratic form and effective rank of the ICAR prior at ``values``.

    Returns ``(sum_{j<i} w_ij (x_i - x_j)^2 + sum_islands x_i^2,
    n - n_components + n_islands)``. The island terms come from the
    island policy's proper N(0, sigma^2) prior; for graphs without
    islands this is exactly the pairwise form with rank
    ``n - n_components``. This pair is what a conjugate Gamma precision
    update needs: shape gains rank/2 and rate gains quad/2.
    """
    values = np.asarray(values, dtype=float)
    islands = graph.island_indices
    quad = _edge_quad(graph, values)
    if len(islands):
        quad += float(np.sum(values[islands] ** 2))
    rank = graph.n_areas - graph.n_components + len(islands)
    return quad, rank
