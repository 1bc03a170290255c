"""Stage 1: spatial latent factor model fit by conjugate Gibbs sampling.

Model, per indicator p and area i:

    z_ip = alpha_p + lambda_p * eta_i + xi_ip,   xi_ip ~ N(0, sigma2_p)

with an ICAR prior on the latent field eta (conditional variance fixed to
1 for scale identifiability) and one loading anchored at exactly 1. The
remaining priors are diffuse: alpha_p ~ N(0, 1000), free lambda_p ~
N(0, 1000) and sigma2_p ~ inverse-gamma(shape 0.5, rate 0.0005), rate
meaning the coefficient of 1/x in the exponent (so the conjugate update
is shape + n/2, rate + rss/2).

Every update below draws from an exact full conditional; the eta sweep
delegates to :mod:`arealbayes.icar`, which draws one colour class of
non-adjacent areas at a time, and is followed by per-component centering
(:func:`arealbayes.icar.center_by_component`). Missing indicator cells
contribute to nothing: fits are bitwise invariant to whatever garbage
sits in masked-out entries.

One fit handles one latent factor; multiple factors are fit by calling
:func:`fit_stage1` once per indicator block.
"""

from __future__ import annotations

import math
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import icar
from .errors import DimensionMismatchError, ValidationError
from .graph import SpatialGraph
from .icar import IcarField
from .mcmc import ChainArchive, McmcConfig, model_hash
from .prep import IndicatorPanel

__all__ = [
    "FactorModelSpec",
    "FactorModelState",
    "loglik_stage1",
    "gibbs_update_alpha",
    "gibbs_update_lambda",
    "gibbs_update_sigma2",
    "gibbs_update_eta",
    "gibbs_update_signflip",
    "fit_stage1",
    "summarize_loadings",
    "factor_quintiles",
    "factor_exceedance",
    "LoadingSummary",
]

SIGMA2_FLOOR = 1e-12


@dataclass(frozen=True)
class FactorModelSpec:
    """Prior constants and the anchor choice for one factor fit."""

    n_indicators: int
    anchor_index: int = 0
    alpha_prior_variance: float = 1000.0
    loading_prior_variance: float = 1000.0
    sigma2_prior_shape: float = 0.5
    sigma2_prior_rate: float = 0.0005
    eta_variance: float = 1.0

    def __post_init__(self):
        if self.n_indicators < 1:
            raise ValidationError("need at least one indicator")
        if not 0 <= self.anchor_index < self.n_indicators:
            raise ValidationError("anchor_index out of range")
        for name in (
            "alpha_prior_variance",
            "loading_prior_variance",
            "sigma2_prior_shape",
            "sigma2_prior_rate",
            "eta_variance",
        ):
            if not getattr(self, name) > 0:
                raise ValidationError(f"{name} must be positive")


@dataclass
class FactorModelState:
    """One MCMC state: intercepts, loadings, latent field, noise variances."""

    alpha: np.ndarray
    loadings: np.ndarray
    eta: IcarField
    sigma2: np.ndarray

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=float)
        self.loadings = np.asarray(self.loadings, dtype=float)
        self.sigma2 = np.asarray(self.sigma2, dtype=float)
        if not (self.alpha.shape == self.loadings.shape == self.sigma2.shape):
            raise DimensionMismatchError("alpha, loadings, sigma2 must share a length")
        if (self.sigma2 <= 0).any():
            raise ValidationError("sigma2 must be positive elementwise")


class _PanelCache:
    """Mask-aware sufficient-statistic pieces reused by every update."""

    def __init__(self, panel: IndicatorPanel):
        mask = panel.observed_mask
        self.M = mask.astype(float)
        self.Z = np.where(mask, panel.values, 0.0)
        self.n_obs = self.M.sum(axis=0)
        self.colsum_z = self.Z.sum(axis=0)
        self.n_areas, self.n_indicators = panel.values.shape


def loglik_stage1(state: FactorModelState, panel: IndicatorPanel) -> float:
    """Gaussian log likelihood summed over observed cells only."""
    mask = panel.observed_mask
    mean = state.alpha[None, :] + state.eta.values[:, None] * state.loadings[None, :]
    var = state.sigma2[None, :]
    cell = -0.5 * (np.log(2 * np.pi * var) + (panel.values - mean) ** 2 / var)
    return float(cell[mask].sum())


def _draw_alpha(rng, cache, lam, sigma2, eta_arr, spec):
    prec = cache.n_obs / sigma2 + 1.0 / spec.alpha_prior_variance
    rhs = (cache.colsum_z - lam * (cache.M.T @ eta_arr)) / sigma2
    return rhs / prec + rng.standard_normal(spec.n_indicators) / np.sqrt(prec)


def _draw_lambda(rng, cache, alpha, sigma2, eta_arr, spec):
    mt_eta = cache.M.T @ eta_arr
    mt_eta2 = cache.M.T @ (eta_arr * eta_arr)
    zt_eta = cache.Z.T @ eta_arr
    prec = mt_eta2 / sigma2 + 1.0 / spec.loading_prior_variance
    rhs = (zt_eta - alpha * mt_eta) / sigma2
    lam = rhs / prec + rng.standard_normal(spec.n_indicators) / np.sqrt(prec)
    lam[spec.anchor_index] = 1.0
    return lam


def _draw_sigma2(rng, cache, alpha, lam, eta_arr, spec):
    mean = alpha[None, :] + eta_arr[:, None] * lam[None, :]
    resid = cache.Z - cache.M * mean
    rss = np.einsum("ij,ij->j", resid, resid)
    shape = spec.sigma2_prior_shape + cache.n_obs / 2.0
    rate = spec.sigma2_prior_rate + rss / 2.0
    draw = 1.0 / rng.gamma(shape, 1.0 / rate)
    if (draw < SIGMA2_FLOOR).any():
        warnings.warn("sigma2 draw underflowed; floored at 1e-12")
        draw = np.maximum(draw, SIGMA2_FLOOR)
    return draw


def _eta_likelihood_terms(cache, alpha, lam, sigma2):
    """Per-area Gaussian likelihood contribution for the eta sweep.

    precision_i = sum_p lambda_p^2 / sigma2_p over observed p, and the
    precision-weighted mean is sum_p lambda_p (z_ip - alpha_p) / sigma2_p.
    """
    lam_over_s2 = lam / sigma2
    prec = cache.M @ (lam * lam_over_s2)
    pwm = cache.Z @ lam_over_s2 - cache.M @ (alpha * lam_over_s2)
    return prec, pwm


def gibbs_update_alpha(state, panel, spec, rng) -> FactorModelState:
    cache = _PanelCache(panel)
    alpha = _draw_alpha(rng, cache, state.loadings, state.sigma2, state.eta.values, spec)
    return replace(state, alpha=alpha)


def gibbs_update_lambda(state, panel, spec, rng) -> FactorModelState:
    cache = _PanelCache(panel)
    lam = _draw_lambda(rng, cache, state.alpha, state.sigma2, state.eta.values, spec)
    return replace(state, loadings=lam)


def gibbs_update_sigma2(state, panel, spec, rng) -> FactorModelState:
    cache = _PanelCache(panel)
    s2 = _draw_sigma2(rng, cache, state.alpha, state.loadings, state.eta.values, spec)
    return replace(state, sigma2=s2)


def gibbs_update_eta(state, panel, spec, rng) -> FactorModelState:
    cache = _PanelCache(panel)
    prec, pwm = _eta_likelihood_terms(cache, state.alpha, state.loadings, state.sigma2)
    eta = icar.sample_icar_gibbs_sweep(state.eta, prec, pwm, rng)
    return replace(state, eta=eta)


def _signflip_log_ratio(cache, alpha, sigma2, eta_arr, anchor) -> float:
    """Log Metropolis ratio of jointly negating eta and the free loadings.

    With the anchor loading pinned at +1, the flip only changes the anchor
    indicator's fit; every prior involved is symmetric. The move lets a
    chain that latched onto the sign-mirrored mode cross back in one step
    instead of waiting out an essentially infinite tunneling time.
    """
    zc = cache.Z[:, anchor] - cache.M[:, anchor] * alpha[anchor]
    return -2.0 * float(zc @ eta_arr) / sigma2[anchor]


def gibbs_update_signflip(state, panel, spec, rng) -> FactorModelState:
    cache = _PanelCache(panel)
    logr = _signflip_log_ratio(
        cache, state.alpha, state.sigma2, state.eta.values, spec.anchor_index
    )
    u = rng.random()
    if logr >= 0.0 or math.log(u) < logr:
        lam = -state.loadings
        lam[spec.anchor_index] = 1.0
        return replace(
            state, loadings=lam, eta=replace(state.eta, values=-state.eta.values)
        )
    return state


def _initial_state(cache, graph, spec) -> FactorModelState:
    """Deterministic, scale-aware start.

    The latent field starts at the centered anchor indicator (missing
    cells at zero) rather than at zero: a flat start leaves the first
    free-loading draw at its diffuse prior, whose random sign can throw
    the chain into the mirrored mode.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        n = np.maximum(cache.n_obs, 1.0)
        alpha = cache.colsum_z / n
        ssq = np.einsum("ij,ij->j", cache.Z, cache.Z) - n * alpha**2
        sigma2 = np.maximum(ssq / np.maximum(n - 1.0, 1.0), 1e-6)
    lam = np.ones(spec.n_indicators)
    a = spec.anchor_index
    eta0 = cache.Z[:, a] - cache.M[:, a] * alpha[a]
    eta0, _ = icar.center_by_component(eta0, graph)
    eta = IcarField(graph, eta0, spec.eta_variance)
    return FactorModelState(alpha, lam, eta, sigma2)


def _run_stage1_chain(payload):
    (z, m, graph, spec, config, entropy, overrides) = payload
    rng = np.random.default_rng(np.random.SeedSequence(entropy))
    cache = _PanelCache.__new__(_PanelCache)
    cache.Z, cache.M = z, m
    cache.n_obs = m.sum(axis=0)
    cache.colsum_z = z.sum(axis=0)
    cache.n_areas, cache.n_indicators = z.shape

    state = _initial_state(cache, graph, spec)
    if overrides:
        for key, value in overrides.items():
            if key == "eta":
                state.eta = IcarField(graph, np.asarray(value, float), spec.eta_variance)
            else:
                setattr(state, key, np.asarray(value, dtype=float))

    alpha, lam, sigma2 = state.alpha, state.loadings, state.sigma2
    eta_arr = state.eta.values.copy()
    n = graph.n_areas
    variance = spec.eta_variance

    keep = {"alpha": [], "lambda": [], "eta": [], "sigma2": []}
    for it in range(1, config.n_iter + 1):
        alpha = _draw_alpha(rng, cache, lam, sigma2, eta_arr, spec)
        lam = _draw_lambda(rng, cache, alpha, sigma2, eta_arr, spec)
        sigma2 = _draw_sigma2(rng, cache, alpha, lam, eta_arr, spec)
        prec, pwm = _eta_likelihood_terms(cache, alpha, lam, sigma2)
        icar.gibbs_sweep_values(
            eta_arr, graph, variance, prec, pwm, rng.standard_normal(n)
        )
        eta_arr, _ = icar.center_by_component(eta_arr, graph)
        logr = _signflip_log_ratio(cache, alpha, sigma2, eta_arr, spec.anchor_index)
        u = rng.random()
        if logr >= 0.0 or math.log(u) < logr:
            eta_arr = -eta_arr
            lam = -lam
            lam[spec.anchor_index] = 1.0
        if config.is_retained(it):
            keep["alpha"].append(alpha.copy())
            keep["lambda"].append(lam.copy())
            keep["eta"].append(eta_arr.copy())
            keep["sigma2"].append(sigma2.copy())
    return {name: np.array(draws) for name, draws in keep.items()}


def fit_stage1(
    panel: IndicatorPanel,
    graph: SpatialGraph,
    spec: FactorModelSpec | None = None,
    config: McmcConfig | None = None,
    n_workers: int = 1,
    init_overrides: list[dict] | None = None,
) -> ChainArchive:
    """Run the full Gibbs sampler and return the thinned archive.

    ``init_overrides`` optionally replaces parts of the deterministic
    initial state per chain (a list of dicts with keys among alpha,
    loadings, eta, sigma2), which is how overdispersed starts for
    convergence checks are set up.
    """
    if spec is None:
        spec = FactorModelSpec(n_indicators=panel.n_indicators)
    if config is None:
        config = McmcConfig()
    if spec.n_indicators != panel.n_indicators:
        raise DimensionMismatchError("spec and panel disagree on indicator count")
    if panel.n_areas != graph.n_areas:
        raise DimensionMismatchError(
            f"panel has {panel.n_areas} areas, graph has {graph.n_areas}"
        )
    mask = panel.observed_mask
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        col_means = np.nanmean(np.where(mask, panel.values, np.nan), axis=0)
    if np.nanmax(np.abs(col_means)) > 0.5:
        warnings.warn(
            "panel does not look standardized (|column mean| > 0.5); "
            "fitting anyway"
        )

    entropies = [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(config.seed).spawn(config.n_chains)]
    z = np.where(mask, panel.values, 0.0)
    m = mask.astype(float)
    payloads = [
        (
            z, m, graph, spec, config, entropies[c],
            None if init_overrides is None else init_overrides[c],
        )
        for c in range(config.n_chains)
    ]
    started = time.time()
    if n_workers > 1:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            chains = list(pool.map(_run_stage1_chain, payloads))
    else:
        chains = [_run_stage1_chain(p) for p in payloads]
    return ChainArchive(
        chains,
        config.retained_iterations(),
        config,
        metadata={
            "model": "stage1_factor",
            "model_hash": model_hash("stage1_factor", spec, graph.n_areas, graph.n_edges, config),
            "anchor_index": str(spec.anchor_index),
            "wall_time_s": f"{time.time() - started:.3f}",
        },
    )


class LoadingSummary(NamedTuple):
    indicator: str
    mean: float
    lower: float | None
    upper: float | None
    anchored: bool


def summarize_loadings(
    archive: ChainArchive, names: list[str] | None = None
) -> list[LoadingSummary]:
    """Posterior mean and equal-tailed 95% interval per loading.

    The anchored loading is reported as exactly 1 with no interval.
    """
    draws = archive.get("lambda")
    if draws.size == 0:
        raise ValidationError("archive is empty")
    p = draws.shape[1]
    anchor = int(archive.metadata.get("anchor_index", 0))
    if names is None:
        names = [f"indicator_{k}" for k in range(p)]
    rows = []
    for k in range(p):
        if k == anchor:
            rows.append(LoadingSummary(names[k], 1.0, None, None, True))
            continue
        lo, hi = np.quantile(draws[:, k], [0.025, 0.975])
        rows.append(
            LoadingSummary(names[k], float(draws[:, k].mean()), float(lo), float(hi), False)
        )
    return rows


def factor_quintiles(archive: ChainArchive) -> tuple[np.ndarray, np.ndarray]:
    """Posterior-mean factor score and quintile (1..5) per area.

    Cutpoints are the 20/40/60/80 empirical percentiles of the posterior
    means; an area at or below a cutpoint falls in the lower quintile, so
    tied values (including an all-equal field) share the lowest
    consistent quintile deterministically.
    """
    draws = archive.get("eta")
    if draws.size == 0:
        raise ValidationError("archive is empty")
    means = draws.mean(axis=0)
    cuts = np.quantile(means, [0.2, 0.4, 0.6, 0.8])
    quintiles = 1 + (means[:, None] > cuts[None, :]).sum(axis=1)
    return means, quintiles.astype(int)


def factor_exceedance(archive: ChainArchive, percentile: float = 0.80) -> np.ndarray:
    """Per-area probability of exceeding the within-draw score percentile.

    For each retained draw the field's own ``percentile`` quantile is the
    bar; the result is the fraction of draws in which the area clears it.
    """
    if not 0.0 < percentile < 1.0:
        raise ValidationError("percentile must lie in (0, 1)")
    draws = archive.get("eta")
    if draws.size == 0:
        raise ValidationError("archive is empty")
    bar = np.quantile(draws, percentile, axis=1, keepdims=True)
    return (draws > bar).mean(axis=0)
