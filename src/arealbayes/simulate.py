"""Synthetic data from both stages' generative models.

Everything here is deterministic given a seed and emits the same
structures (and, through :mod:`arealbayes.fileio`, the same CSV schemas)
the fitting code consumes, so round trips exercise the full pipeline.
"""

from __future__ import annotations

import numpy as np

from . import icar, svc
from .errors import DimensionMismatchError, ValidationError
from .graph import SpatialGraph, build_graph
from .prep import IndicatorPanel

__all__ = [
    "make_lattice",
    "sample_icar",
    "simulate_stage1",
    "simulate_stage2",
]

MAX_EXACT_ICAR = 2500


def make_lattice(rows: int, cols: int) -> SpatialGraph:
    """Rook-contiguity lattice, indexed row-major; needs rows, cols >= 2."""
    if rows < 2 or cols < 2:
        raise ValidationError("lattice needs rows >= 2 and cols >= 2")
    idx = np.arange(rows * cols).reshape(rows, cols)
    i = np.concatenate([idx[:, :-1].ravel(), idx[:-1, :].ravel()])
    j = np.concatenate([idx[:, 1:].ravel(), idx[1:, :].ravel()])
    return build_graph(np.column_stack([i, j]), n_areas=rows * cols)


def sample_icar(
    graph: SpatialGraph, variance: float, rng: np.random.Generator
) -> np.ndarray:
    """Exact draw from the sum-to-zero-constrained ICAR distribution.

    Uses the spectral pseudo-inverse of Q = diag(w+) - W: the draw lives
    in the span of Q's positive eigenvalues, so each component sums to
    zero by construction. Islands get independent N(0, variance) draws
    per the island policy. Exactness over speed; refuses n > 2500.
    """
    n = graph.n_areas
    if n > MAX_EXACT_ICAR:
        raise ValidationError(
            f"exact ICAR sampling is limited to n <= {MAX_EXACT_ICAR}"
        )
    if not variance > 0:
        raise ValidationError("variance must be positive")
    q = icar.precision_matrix(graph)
    eigvals, eigvecs = np.linalg.eigh(q)
    tol = 1e-9 * max(eigvals.max(), 1.0)
    pos = eigvals > tol
    z = rng.standard_normal(int(pos.sum()))
    x = eigvecs[:, pos] @ (z / np.sqrt(eigvals[pos])) * np.sqrt(variance)
    # positive-eigenvalue subspace is orthogonal to the component
    # indicators, so this centering only tidies rounding noise
    x, _ = icar.center_by_component(x, graph)
    islands = np.flatnonzero(graph.island_mask)
    if len(islands):
        x[islands] = rng.standard_normal(len(islands)) * np.sqrt(variance)
    return x


def simulate_stage1(
    graph: SpatialGraph,
    loadings: np.ndarray,
    noise_variances: np.ndarray,
    seed: int,
    intercepts: np.ndarray | None = None,
    anchor_index: int = 0,
    eta_variance: float = 1.0,
) -> tuple[IndicatorPanel, np.ndarray]:
    """Indicator panel and true latent field from the Stage-1 model.

    ``z_ip = alpha_p + lambda_p eta_i + N(0, sigma2_p)`` with eta an exact
    constrained ICAR draw. The anchor loading must already be 1.
    """
    loadings = np.asarray(loadings, dtype=float)
    noise_variances = np.asarray(noise_variances, dtype=float)
    p = len(loadings)
    if noise_variances.shape != (p,):
        raise DimensionMismatchError("loadings and noise_variances must align")
    if loadings[anchor_index] != 1.0:
        raise ValidationError("the anchor loading must equal 1")
    if (noise_variances < 0).any():
        raise ValidationError("noise variances must be nonnegative")
    intercepts = np.zeros(p) if intercepts is None else np.asarray(intercepts, float)
    rng = np.random.default_rng(seed)
    eta = sample_icar(graph, eta_variance, rng)
    noise = rng.standard_normal((graph.n_areas, p)) * np.sqrt(noise_variances)[None, :]
    values = intercepts[None, :] + eta[:, None] * loadings[None, :] + noise
    panel = IndicatorPanel(
        area_ids=[str(i) for i in range(graph.n_areas)],
        columns=[f"ind{k+1:02d}" for k in range(p)],
        values=values,
    )
    return panel, eta


def simulate_stage2(
    graph: SpatialGraph,
    spec: "svc.SvcModelSpec",
    state: "svc.SvcModelState",
    seed: int,
    n_suppressed: int = 0,
) -> np.ndarray:
    """Poisson counts at the state's true rates, optionally suppressed.

    ``n_suppressed`` areas chosen at random get NaN counts, mimicking
    policy-suppressed observations; they stay in the graph.
    """
    if graph.n_areas != spec.n_areas:
        raise DimensionMismatchError("graph and spec disagree on n_areas")
    if not 0 <= n_suppressed <= spec.n_areas:
        raise ValidationError("n_suppressed out of range")
    rng = np.random.default_rng(seed)
    theta = svc.linear_predictor_vector(state, spec)
    counts = rng.poisson(spec.offsets * np.exp(theta)).astype(float)
    if n_suppressed:
        hide = rng.choice(spec.n_areas, size=n_suppressed, replace=False)
        counts[hide] = np.nan
    return counts
