"""Stage 1: spatial latent factor model fit by Metropolis-within-Gibbs.

Model, per indicator p and area i:

    z_ip = alpha_p + lambda_p * eta_i + xi_ip,   xi_ip ~ N(0, sigma2_p)

with an ICAR prior on the latent field eta (conditional variance fixed to
1 for scale identifiability) and one loading anchored at exactly 1. The
remaining priors are diffuse: alpha_p ~ N(0, 1000), free lambda_p ~
N(0, 1000) and sigma2_p ~ inverse-gamma(shape 0.5, rate 0.0005), rate
meaning the coefficient of 1/x in the exponent (so the conjugate update
is shape + n/2, rate + rss/2).

One iteration, a step of :func:`arealbayes.mcmc.run_chain`, runs in order:

* alpha, the free lambda and sigma2, each drawn from its exact full
  conditional;
* a sweep of eta through :mod:`arealbayes.icar`, which draws one colour
  class of non-adjacent areas at a time from its exact site conditionals,
  followed by per-component centering
  (:func:`arealbayes.icar.center_by_component`). Sweep-then-centre is not
  an exact draw of the constrained field: it matches the constrained
  posterior on the scalars but not every eta mean in small components;
* a sign flip, a Metropolis step that negates eta and the free loadings
  together;
* a scale move (:func:`_scale_move`), a Metropolis step along the orbit
  (eta, free lambda) -> (s eta, free lambda / s) whose step adapts toward
  ``mcmc.ADAPT_TARGET`` acceptance during burn-in. Single-site eta
  updates change the field's amplitude only slowly, and the free loadings
  follow that amplitude; the move resolves that coupling (Liu & Sabatti
  2000).

What an iteration computes, and from what. The panel's fixed parts sit
in :class:`_PanelCache`: the mask ``Mt`` and the centred panel ``Zct``
stacked as one matrix, the observed counts, means and sums of squares.
The scalar updates and both moves read eta only through three statistics
per indicator, ``(Mt eta, Zct eta, Mt eta^2)`` (:func:`_panel_stats`),
which one product of the stacked panel with ``[eta, eta^2]`` gives after
the sweep and centring. alpha, lambda and sigma2 are drawn from them and
the fixed sums; sigma2's sum of squares comes from its expanded form, with
no residual matrix. The sign flip and the scale move read the anchor's
terms from them too, and an accepted move updates them in closed form:
the flip multiplies them by (-1, -1, 1), the scale move by (s, s, s^2).
The sweep's likelihood terms come from one more product with the stacked
panel, its neighbour sums from the CSR kernel
(:func:`arealbayes.graph.csr_matvec`), and the scale move's ``eta' Q
eta`` from :func:`arealbayes.icar.quad_form_and_rank`, one product with W
and no stored Q. So an iteration makes two products with the panel and
one sweep, whatever the moves do; the random stream is the one the update
order above draws.

Missing indicator cells contribute to nothing: fits are bitwise invariant
to whatever garbage sits in masked-out entries.

One fit handles one latent factor; multiple factors are fit by calling
:func:`fit_stage1` once per indicator block.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import icar
from .errors import DimensionMismatchError, ValidationError
from .graph import SpatialGraph
from .icar import IcarField
from .mcmc import ChainArchive, McmcConfig, adapt_step, model_hash, run_chain, run_chains
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
# initial standard deviation of log s in the scale move; adapted in burn-in
SCALE_STEP = 0.05
INIT_KEYS = ("eta", "sigma2")


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
    """The fixed panel pieces every update reads.

    The panel is held transposed, indicators by areas, and stacked as
    ``K = [Mt; Zct]``: ``Mt`` is the 0/1 mask and ``Zct`` each indicator
    minus its observed mean ``zbar``, masked cells at zero, so every
    per-indicator reduction runs along a contiguous row. Centring keeps
    the expanded sums of squares free of cancellation in an indicator's
    offset; ``szz`` holds each row's sum of squares.
    """

    def __init__(self, panel: IndicatorPanel):
        mask = panel.observed_mask
        p = mask.shape[1]
        Mt = mask.T.astype(float)
        Zt = np.where(mask, panel.values, 0.0).T
        self.n_obs = Mt.sum(axis=1)
        self.colsum_z = Zt.sum(axis=1)
        self.zbar = self.colsum_z / np.maximum(self.n_obs, 1.0)
        self.K = np.ascontiguousarray(np.vstack([Mt, Zt - Mt * self.zbar[:, None]]))
        self.Zct = self.K[p:]
        self.szz = np.einsum("ij,ij->i", self.Zct, self.Zct)


def _panel_stats(cache, eta):
    """The statistics of eta that the scalar updates read, per indicator:
    ``(Mt eta, Zct eta, Mt eta^2)``, from one product with the stacked panel.

    A move that maps eta to ``c eta`` maps them to ``(c Mt eta, c Zct eta,
    c^2 Mt eta^2)``, so the moves carry them instead of recomputing.
    """
    p = len(cache.n_obs)
    powers = np.empty((2, len(eta)))
    powers[0] = eta
    np.multiply(eta, eta, out=powers[1])
    prod = powers @ cache.K.T  # rows eta, eta^2; columns Mt's rows, then Zct's
    return prod[0, :p], prod[0, p:], prod[1, :p]


def loglik_stage1(state: FactorModelState, panel: IndicatorPanel) -> float:
    """Gaussian log likelihood summed over observed cells only."""
    mask = panel.observed_mask
    mean = state.alpha[None, :] + state.eta.values[:, None] * state.loadings[None, :]
    var = state.sigma2[None, :]
    cell = -0.5 * (np.log(2 * np.pi * var) + (panel.values - mean) ** 2 / var)
    return float(cell[mask].sum())


def _draw_alpha(rng, cache, lam, sigma2, stats, spec):
    """Intercepts given the rest."""
    prec = cache.n_obs / sigma2 + 1.0 / spec.alpha_prior_variance
    rhs = (cache.colsum_z - lam * stats[0]) / sigma2
    return rhs / prec + rng.standard_normal(spec.n_indicators) / np.sqrt(prec)


def _cross(cache, alpha, stats):
    """``sum_i m_ip (z_ip - alpha_p) eta_i`` per indicator p."""
    mt_eta, zc_eta, _ = stats
    return zc_eta + (cache.zbar - alpha) * mt_eta


def _draw_lambda(rng, cache, alpha, sigma2, stats, spec):
    """Loadings given the rest, the anchor reset to 1."""
    prec = stats[2] / sigma2 + 1.0 / spec.loading_prior_variance
    rhs = _cross(cache, alpha, stats) / sigma2
    lam = rhs / prec + rng.standard_normal(spec.n_indicators) / np.sqrt(prec)
    lam[spec.anchor_index] = 1.0
    return lam


def _sigma2_rate(cache, alpha, lam, stats, spec):
    """The Gamma rate of each 1 / sigma2_p: the prior rate plus half of
    ``sum_i m_ip (z_ip - alpha_p - lambda_p eta_i)^2``.

    The sum expands to ``sum_i m_ip (z_ip - alpha_p)^2 - 2 lambda_p
    _cross_p + lambda_p^2 Mt eta^2``, and with ``d = zbar - alpha`` the
    first term is ``szz + n d^2`` (its ``2 d sum zc`` is zero but for
    rounding). A noise-free indicator can round the sum below 0, so it is
    clipped there.
    """
    d = cache.zbar - alpha
    cross = _cross(cache, alpha, stats)
    rss = cache.szz + cache.n_obs * d * d + lam * (lam * stats[2] - 2.0 * cross)
    return spec.sigma2_prior_rate + np.maximum(rss, 0.0) / 2.0


def _draw_sigma2(rng, cache, alpha, lam, stats, spec):
    shape = spec.sigma2_prior_shape + cache.n_obs / 2.0
    rate = _sigma2_rate(cache, alpha, lam, stats, spec)
    draw = 1.0 / (rng.standard_gamma(shape) * (1.0 / rate))
    floored = int(np.count_nonzero(draw < SIGMA2_FLOOR))
    if floored:
        draw = np.maximum(draw, SIGMA2_FLOOR)
    return draw, floored


def _warn_floored(floored: int) -> None:
    """One warning for ``floored`` sigma2 values raised to the floor."""
    if floored:
        warnings.warn(f"sigma2 draw underflowed {floored} time(s); floored at 1e-12")


def _eta_likelihood_terms(cache, alpha, lam, sigma2):
    """Per-area Gaussian likelihood contribution for the eta sweep.

    precision_i = sum_p lambda_p^2 / sigma2_p over observed p, and the
    precision-weighted mean is sum_p lambda_p (z_ip - alpha_p) / sigma2_p,
    both from one product with the stacked panel.
    """
    p = len(lam)
    lam_over_s2 = lam / sigma2
    coef = np.zeros((2, 2 * p))
    coef[0, :p] = lam * lam_over_s2
    coef[1, :p] = lam_over_s2 * (cache.zbar - alpha)
    coef[1, p:] = lam_over_s2
    prec, pwm = coef @ cache.K
    return prec, pwm


def _draw_eta(rng, cache, graph, variance, alpha, lam, sigma2, eta):
    """One colour-class sweep of ``eta`` (mutated), then centering."""
    prec, pwm = _eta_likelihood_terms(cache, alpha, lam, sigma2)
    icar.gibbs_sweep_values(
        eta, graph, variance, prec, pwm, rng.standard_normal(graph.n_areas)
    )
    return icar.center_by_component(eta, graph)[0]


def _anchor_cross(cache, alpha, sigma2, stats, a) -> float:
    """``sum_i m_ia (z_ia - alpha_a) eta_i / sigma2_a`` for the anchor a."""
    return float(_cross(cache, alpha, stats)[a]) / sigma2[a]


def _signflip(rng, cache, spec, alpha, sigma2, eta, lam, stats):
    """Metropolis step that jointly negates eta and the free loadings.

    With the anchor loading pinned at +1, the flip only changes the anchor
    indicator's fit; every prior involved is symmetric, so the log ratio
    is ``-2 * _anchor_cross``. The move lets a chain that latched onto the
    sign-mirrored mode cross back in one step instead of waiting out an
    essentially infinite tunneling time. ``stats`` are eta's
    :func:`_panel_stats`. Returns ``(eta, lam, stats, accepted)``.
    """
    logr = -2.0 * _anchor_cross(cache, alpha, sigma2, stats, spec.anchor_index)
    u = rng.random()
    if logr >= 0.0 or math.log(u) < logr:
        lam = -lam
        lam[spec.anchor_index] = 1.0
        mt_eta, zc_eta, mt_eta2 = stats
        return -eta, lam, (-mt_eta, -zc_eta, mt_eta2), True
    return eta, lam, stats, False


def _scale_move(rng, cache, graph, spec, alpha, lam, sigma2, eta, stats, step):
    """Metropolis step along the orbit (eta, free lambda) -> (s eta, lambda / s).

    The anchor loading stays at 1 and log s ~ N(0, step^2). The free
    indicators' likelihood is unchanged by the map, so with

        A = eta' Q eta / eta_variance + sum_i m_ia eta_i^2 / sigma2_a
        B = sum_i m_ia (z_ia - alpha_a) eta_i / sigma2_a

    the log ratio is ``-(s^2 - 1) A / 2 + (s - 1) B + (d - (P - 1)) log s
    - (sum_free lambda^2 / 2 v_lambda) (s^-2 - 1)``, where the power of s is
    the Jacobian on the d free eta coordinates
    (:func:`arealbayes.icar.centered_dimension`) and the P - 1 free
    loadings. ``eta' Q eta`` is :func:`arealbayes.icar.quad_form_and_rank`'s,
    islands on their unit diagonal; the anchor parts of A and B come from
    ``stats``, eta's :func:`_panel_stats`. Returns ``(eta, lam, stats,
    accepted, logr)``.
    """
    a = spec.anchor_index
    quad = icar.quad_form_and_rank(graph, eta)[0]
    big_a = quad / spec.eta_variance + float(stats[2][a]) / sigma2[a]
    big_b = _anchor_cross(cache, alpha, sigma2, stats, a)
    free_ss = float(lam @ lam) - 1.0  # the anchor loading is exactly 1
    power = icar.centered_dimension(graph) - (spec.n_indicators - 1)

    log_s = step * rng.standard_normal()
    s = math.exp(log_s)
    logr = (
        -0.5 * (s * s - 1.0) * big_a
        + (s - 1.0) * big_b
        + power * log_s
        - free_ss / (2.0 * spec.loading_prior_variance) * (1.0 / (s * s) - 1.0)
    )
    if logr >= 0.0 or math.log(rng.random()) < logr:
        lam = lam / s
        lam[a] = 1.0
        mt_eta, zc_eta, mt_eta2 = stats
        return eta * s, lam, (s * mt_eta, s * zc_eta, (s * s) * mt_eta2), True, logr
    return eta, lam, stats, False, logr


def gibbs_update_alpha(state, panel, spec, rng) -> FactorModelState:
    cache = _PanelCache(panel)
    stats = _panel_stats(cache, state.eta.values)
    alpha = _draw_alpha(rng, cache, state.loadings, state.sigma2, stats, spec)
    return replace(state, alpha=alpha)


def gibbs_update_lambda(state, panel, spec, rng) -> FactorModelState:
    cache = _PanelCache(panel)
    stats = _panel_stats(cache, state.eta.values)
    lam = _draw_lambda(rng, cache, state.alpha, state.sigma2, stats, spec)
    return replace(state, loadings=lam)


def gibbs_update_sigma2(state, panel, spec, rng) -> FactorModelState:
    cache = _PanelCache(panel)
    stats = _panel_stats(cache, state.eta.values)
    s2, floored = _draw_sigma2(rng, cache, state.alpha, state.loadings, stats, spec)
    _warn_floored(floored)
    return replace(state, sigma2=s2)


def gibbs_update_eta(state, panel, spec, rng) -> FactorModelState:
    cache = _PanelCache(panel)
    field = state.eta
    eta = _draw_eta(
        rng, cache, field.graph, field.variance,
        state.alpha, state.loadings, state.sigma2, field.values.copy(),
    )
    return replace(state, eta=replace(field, values=eta))


def gibbs_update_signflip(state, panel, spec, rng) -> FactorModelState:
    cache = _PanelCache(panel)
    eta = state.eta.values
    eta, lam, _, _ = _signflip(
        rng, cache, spec, state.alpha, state.sigma2, eta, state.loadings,
        _panel_stats(cache, eta),
    )
    return replace(state, loadings=lam, eta=replace(state.eta, values=eta))


def _initial_state(cache, graph, spec) -> FactorModelState:
    """Deterministic, scale-aware start.

    The latent field starts at the centered anchor indicator (missing
    cells at zero) rather than at zero: a flat start leaves the first
    free-loading draw at its diffuse prior, whose random sign can throw
    the chain into the mirrored mode.
    """
    alpha = cache.zbar.copy()
    sigma2 = np.maximum(cache.szz / np.maximum(cache.n_obs - 1.0, 1.0), 1e-6)
    lam = np.ones(spec.n_indicators)
    eta0, _ = icar.center_by_component(cache.Zct[spec.anchor_index], graph)
    eta = IcarField(graph, eta0, spec.eta_variance)
    return FactorModelState(alpha, lam, eta, sigma2)


def _override(state, overrides, graph, spec) -> FactorModelState:
    """``state`` with one chain's ``init_overrides`` applied and checked."""
    if not isinstance(overrides, dict):
        raise ValidationError(
            f"init_overrides entries must be dicts, got {type(overrides).__name__}"
        )
    unknown = sorted(set(overrides) - set(INIT_KEYS))
    if unknown:
        raise ValidationError(
            f"init_overrides: unknown key(s) {', '.join(unknown)}; "
            f"allowed: {', '.join(INIT_KEYS)}"
        )
    values = dict(overrides)
    if "eta" in values:
        values["eta"] = IcarField(graph, values["eta"], spec.eta_variance)
    return replace(state, **values)


def _run_stage1_chain(task):
    """Draws, the count of floored sigma2 draws, and the chain's
    ``acceptance`` and ``scale_log_step`` metadata values."""
    rng, (cache, graph, spec, config, state) = task
    alpha, lam, sigma2 = state.alpha, state.loadings, state.sigma2
    eta = state.eta.values.copy()
    stats = _panel_stats(cache, eta)
    scale_step = SCALE_STEP
    floored = flips = scales = 0

    def step(it, gain):
        nonlocal alpha, lam, sigma2, eta, stats, scale_step, floored, flips, scales
        alpha = _draw_alpha(rng, cache, lam, sigma2, stats, spec)
        lam = _draw_lambda(rng, cache, alpha, sigma2, stats, spec)
        sigma2, n = _draw_sigma2(rng, cache, alpha, lam, stats, spec)
        floored += n
        eta = _draw_eta(rng, cache, graph, spec.eta_variance, alpha, lam, sigma2, eta)
        stats = _panel_stats(cache, eta)
        eta, lam, stats, flipped = _signflip(rng, cache, spec, alpha, sigma2, eta, lam, stats)
        eta, lam, stats, scaled, logr = _scale_move(
            rng, cache, graph, spec, alpha, lam, sigma2, eta, stats, scale_step
        )
        flips += flipped
        scales += scaled
        scale_step = adapt_step(scale_step, logr, gain)

    def snapshot():
        return {"alpha": alpha, "lambda": lam, "eta": eta, "sigma2": sigma2}

    draws = run_chain(config, step, snapshot)
    meta = {
        "acceptance": f"scale={scales / config.n_iter:.3f};signflip={flips / config.n_iter:.3f}",
        "scale_log_step": f"scale={scale_step:.4f}",
    }
    return draws, (floored, meta)


def fit_stage1(
    panel: IndicatorPanel,
    graph: SpatialGraph,
    spec: FactorModelSpec | None = None,
    config: McmcConfig | None = None,
    n_workers: int | None = None,
    init_overrides: list[dict] | None = None,
) -> ChainArchive:
    """Run the full sampler and return the thinned archive.

    ``init_overrides`` optionally replaces parts of the deterministic
    initial state per chain: a list of one dict per chain, with keys among
    eta and sigma2 (an empty dict keeps the default start), checked like
    the state itself. This sets up overdispersed starts for convergence
    checks. Only eta and sigma2 disperse a start: the first alpha draw
    reads neither the previous alpha nor, for a centred eta on a complete
    panel, the loadings. ``n_workers`` is as in
    :func:`arealbayes.mcmc.run_chains`. Floored sigma2 draws are counted in
    the chains and warned about once, here. The archive metadata records
    per chain c the accepted share of iterations for each move
    (``chain<c>_acceptance``, ``scale=...;signflip=...``) and the scale
    move's final log-step (``chain<c>_scale_log_step``, ``scale=...``).
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
    if init_overrides is not None and len(init_overrides) != config.n_chains:
        raise ValidationError(
            f"init_overrides has {len(init_overrides)} entries for "
            f"{config.n_chains} chains; give one dict per chain"
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

    cache = _PanelCache(panel)
    start = _initial_state(cache, graph, spec)
    payloads = [
        (cache, graph, spec, config,
         start if init_overrides is None else _override(start, init_overrides[c], graph, spec))
        for c in range(config.n_chains)
    ]
    archive, extras = run_chains(_run_stage1_chain, payloads, config, n_workers)
    _warn_floored(sum(floored for floored, _ in extras))
    archive.metadata.update(
        model="stage1_factor",
        model_hash=model_hash("stage1_factor", spec, graph.n_areas, graph.n_edges, config),
        anchor_index=str(spec.anchor_index),
    )
    for c, (_, meta) in enumerate(extras):
        archive.metadata.update({f"chain{c}_{key}": value for key, value in meta.items()})
    return archive


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
