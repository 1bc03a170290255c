"""Stage 2: Poisson spatially-varying-coefficient models M1 through M4.

Counts follow ``Y_i | mu_i ~ Poisson(mu_i * E_i)`` with a log link:

    M1: log mu_i = b0 + b1 x_i
    M2: M1 + sum_m beta_m f_im          (latent factor scores as covariates)
    M3: M2 + v_i + phi_i                (ICAR + unstructured convolution)
    M4: M3 + x_i * delta_i              (ICAR prior on the local covariate
                                         effect around the global b1)

Fixed effects get N(0, 1000) priors; the precisions tau = 1/sigma^2 of
phi, v and delta get Gamma(shape 1, rate 0.5) priors by default, with the
diffuse Gamma(1, 0.0005) available for sensitivity runs.

The reference estimator is an adaptive Metropolis-within-Gibbs sampler:
single-site updates of the ICAR fields v and delta, conjugate Gamma
draws for the precisions with the rank of each ICAR block corrected per
connected component, and exact translations and Metropolis scale moves
along directions on which every linear predictor stays fixed (below).

v and delta move in one joint colour sweep over the stacked field
``[v; delta]`` (:class:`_SiteSweep`; v alone in M3). The graph's greedy
colouring in ascending area order (``SpatialGraph.colour_classes``) splits
the areas into k classes that share no edge. Step s of the sweep moves v
on class s together with delta on class ``(s + 1) mod k`` (with one class,
v and then delta): the sites of a step share no area and no edge, so they
are conditionally independent and move together in one set of array
operations on one CSR row block of ``blockdiag(W, W)``. Every site
proposes a new value against its prior conditional and its own likelihood
term and takes its own Metropolis-Hastings test; a proposal that moves
``|log mu|`` past ``PREDICTOR_BOUND`` is divergent and rejected. The
proposal is ``N(value + w g / p, 1 / p)`` from the gradient g and curvature
h of the site's log conditional, with ``p = w h + walk precision`` and the
field's gradient weight w (``GRADIENT_WEIGHTS``). A delta site (w = 1,
walk precision 0) takes one Newton step (Gamerman 1997), which under a
Gaussian likelihood is the exact conditional. A v site (w = 0) takes a
random walk of its own step, adapted after each burn-in sweep by
:func:`arealbayes.mcmc.adapt_step`, like every adaptive step here: a Newton
step on v overshoots from the cold start on high-count areas and the chain
stalls there.

phi takes no step of its own. Only the sum phi + v (+ x delta) is pinned
by the counts, so right after each step's accept test every site of the
step makes an exact Gibbs exchange along ``(phi_i + c, v_i - c)`` for a v
site and ``(phi_i + c x_i, delta_i - c)`` for a delta site. Both lines keep
the area's linear predictor unchanged, so only the priors change along
them and c has a Gaussian conditional (Eberly & Carlin 2000 on the
confounding). After the sweep each field is recentered and the
subtracted mean absorbed into b0 (for v) or b1 (for delta), which leaves
every area's linear predictor unchanged on a connected graph.

M1 and M2 move the fixed effects by per-coordinate adaptive random walks.
M3 and M4 move them only by exact Gibbs translations along lines on
which every area's linear predictor is unchanged, once per iteration
after the field sweeps (generalized Gibbs, Liu & Sabatti 2000): for every
fixed effect k, ``(b_k + c, phi - c X_k)``; and for every k >= 1,
``(b_k + c, b0 - c mean(X_k), v - c u_k, phi - c r_k)``, with u_k the
column X_k centred per component (so v keeps its zero sums) and r_k the
rest of X_k, zero on a connected graph. M4 adds one line that moves
delta, ``(delta + c u, beta - c gamma, v - c rho, phi - c r)`` with u the
covariate centred per component (see :class:`_RidgeMoves`), which trades
mean(x delta) against b0. Along such a line only the priors change, so c
has a Gaussian conditional and is drawn exactly.

When the precisions are sampled, M3 and M4 then make Metropolis scale
moves that keep every linear predictor fixed, so the likelihood cancels
from their ratios (group moves, Liu & Sabatti 2000, used as partially
non-centred updates of the precisions, Papaspiliopoulos, Roberts & Skold
2007): ``(v, phi, tau_v) -> (s v, phi - (s - 1) v, tau_v / s^2)``; for M4
also ``(delta, phi, tau_delta) -> (s delta, phi - (s - 1) x delta,
tau_delta / s^2)``, and the same scaling of delta with ``(s - 1) x delta``
taken by v (centred per component), b0 (its mean) and phi (the spread of
its component means). Each draws ``log s ~ N(0, step^2)`` with its own
step, adapted in burn-in. In M4
the two delta moves and tau_delta's conjugate Gamma draw then run
``SCALE_ROUNDS`` rounds, each the "delta" move, the "ridge" move and the
Gamma draw, on scalar statistics of the state that are formed once and
carried in closed form (:class:`_DeltaScaleMoves`); their shifts of phi,
v, delta and b0 are applied once, after the last round. The precisions
of phi and v then take their conjugate Gamma draws.

An M3 or M4 iteration draws its variates in one block per distribution,
at its start: standard normals, uniforms and, when the precisions are
sampled, the standard Gamma variates that their conjugate draws divide by
their rates (the ICAR rates' ``x' Q x`` is one product with W). With m
sites (n areas in M3, 2n in M4) and K fixed effects, the normals are, in
order, one proposal normal per site, one exchange normal per site (both in
the sweep's step order), one per translation (2K - 1 for M3, 2K for M4, or
2K - 1 when the covariate is constant on every component) and, with
sampled precisions, one for v's scale move and (M4) per round one each for
the "delta" and "ridge" moves. The uniforms are one per site and one per
scale move, in the same order. The Gamma variates are ``SCALE_ROUNDS`` of
tau_delta's shape (M4), then tau_phi's and tau_v's; tau_delta's and
tau_v's shapes are equal.

A Newton-mode Laplace approximation at fixed precisions is provided as an
independent cross-check and for empirical-Bayes selection of the
precisions over a user grid. It is sparse throughout: the latent vector
(beta, phi, v, delta) is kept in area coordinates, the ICAR blocks are
held to zero sum on every multi-area component by sparse indicator
constraint columns C (islands, under their proper prior, get none), and
each Newton step eliminates phi (its block of the curvature H is
diagonal) and factors only the sparse (v, delta) block, with the fixed
effects and the constraints in one small dense Schur complement
(:class:`gmrf.ConstrainedFactor`). That factor gives the step, the
constrained log determinant and, at the mode, the fixed-effect sds.
``gradient_norm`` is the max-norm of the gradient projected onto the
constraint set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np
from scipy import sparse, special, stats

from . import gmrf, icar
from .errors import DimensionMismatchError, ValidationError
from .graph import SpatialGraph, csr_matvec
from .icar import IcarField
from .mcmc import ADAPT_TARGET, ChainArchive, McmcConfig, adapt_step, model_hash, run_chains

__all__ = [
    "RUNGS",
    "SvcModelSpec",
    "SvcModelState",
    "PoissonLikelihood",
    "GaussianLikelihood",
    "linear_predictor_vector",
    "center_and_absorb",
    "fit_stage2_mcmc",
    "fit_stage2_laplace",
    "laplace_precision_grid",
    "LaplaceFit",
    "predictor_draws",
    "compute_dic",
    "compute_waic",
    "dic_components",
    "waic_components",
    "relative_risk_summary",
    "risk_exceedance",
    "rate_ratio",
    "format_rate_ratio",
    "precision_summary",
]

RUNGS = ("M1", "M2", "M3", "M4")
PREDICTOR_BOUND = 50.0
PRECISION_NAMES = ("tau_phi", "tau_v", "tau_delta")
# the theta-preserving scale moves of M3 ("v") and M4 (all three), their
# initial log-step, and the largest |log s| whose ratio is computed
SCALE_MOVES = ("v", "delta", "ridge")
SCALE_STEP = 0.1
MAX_LOG_SCALE = 300.0
# rounds of M4's "delta" and "ridge" moves and tau_delta's draw per iteration
SCALE_ROUNDS = 4
# the gradient's weight in each field's site proposal (0: a random walk, 1:
# a Newton step), and the walk's initial step
GRADIENT_WEIGHTS = {"v": 0.0, "delta": 1.0}
SITE_STEP = 0.3
# the Laplace fit's Newton step limit and its projected-gradient tolerance
MAX_NEWTON = 100
GRAD_TOL = 1e-9


@dataclass
class SvcModelSpec:
    """Model rung, data columns and prior constants for one Stage-2 fit."""

    rung: str
    covariate: np.ndarray
    offsets: np.ndarray
    latent_factors: np.ndarray | None = None
    beta_prior_variance: float = 1000.0
    precision_prior_shape: float = 1.0
    precision_prior_rate: float = 0.5

    def __post_init__(self):
        if self.rung not in RUNGS:
            raise ValidationError(f"rung must be one of {RUNGS}, got {self.rung!r}")
        self.covariate = np.asarray(self.covariate, dtype=float)
        self.offsets = np.asarray(self.offsets, dtype=float)
        if self.covariate.ndim != 1:
            raise ValidationError("covariate must be a vector")
        if self.offsets.shape != self.covariate.shape:
            raise DimensionMismatchError("offsets and covariate must align")
        if not np.isfinite(self.covariate).all():
            raise ValidationError(
                "covariate has missing values; apply a drop-node or impute "
                "policy before building the model spec"
            )
        if not (np.isfinite(self.offsets) & (self.offsets >= 0)).all():
            raise ValidationError("offsets (expected counts) must be finite and nonnegative")
        if self.latent_factors is not None:
            self.latent_factors = np.asarray(self.latent_factors, dtype=float)
            if self.latent_factors.ndim != 2 or self.latent_factors.shape[0] != self.n_areas:
                raise DimensionMismatchError("latent_factors must be (n_areas, m)")
        if self.rung != "M1" and self.latent_factors is None:
            raise ValidationError(f"rung {self.rung} needs latent factor scores")
        if not self.beta_prior_variance > 0:
            raise ValidationError("beta_prior_variance must be positive")
        if not (self.precision_prior_shape > 0 and self.precision_prior_rate > 0):
            raise ValidationError("precision prior parameters must be positive")

    @property
    def n_areas(self) -> int:
        return len(self.covariate)

    @property
    def n_factors(self) -> int:
        if self.rung == "M1" or self.latent_factors is None:
            return 0
        return self.latent_factors.shape[1]

    @property
    def has_convolution(self) -> bool:
        return self.rung in ("M3", "M4")

    @property
    def has_svc(self) -> bool:
        return self.rung == "M4"

    @property
    def n_fixed(self) -> int:
        return 2 + self.n_factors

    def fixed_design(self) -> np.ndarray:
        """Design of the fixed effects: intercept, covariate, factor scores."""
        cols = [np.ones(self.n_areas), self.covariate]
        if self.n_factors:
            cols.extend(self.latent_factors.T)
        return np.column_stack(cols)


@dataclass
class SvcModelState:
    """One MCMC state; blocks beyond the active rung stay None."""

    beta: np.ndarray
    phi: np.ndarray | None = None
    v: IcarField | None = None
    delta: IcarField | None = None
    tau_phi: float | None = None
    tau_v: float | None = None
    tau_delta: float | None = None

    def __post_init__(self):
        self.beta = np.asarray(self.beta, dtype=float)
        if self.phi is not None:
            self.phi = np.asarray(self.phi, dtype=float)


def _checked_precisions(precisions: dict | None) -> dict:
    """All three precisions: 2.0 each unless ``precisions`` gives them.

    Names outside ``PRECISION_NAMES`` and values that are not finite and
    positive raise ValidationError. A precision the rung does not use is
    still accepted, and ignored.
    """
    taus = dict.fromkeys(PRECISION_NAMES, 2.0)
    for name, value in (precisions or {}).items():
        if name not in taus:
            raise ValidationError(
                f"unknown precision {name!r}; expected one of {', '.join(PRECISION_NAMES)}"
            )
        value = float(value)
        if not (math.isfinite(value) and value > 0):
            raise ValidationError(f"{name} must be finite and positive, got {value}")
        taus[name] = value
    return taus


def _check_rung_state(state: SvcModelState, spec: SvcModelSpec) -> None:
    if len(state.beta) != spec.n_fixed:
        raise ValidationError(
            f"rung {spec.rung} needs {spec.n_fixed} fixed effects, "
            f"state has {len(state.beta)}"
        )
    if spec.has_convolution != (state.phi is not None and state.v is not None):
        raise ValidationError(
            f"rung {spec.rung} and state disagree on convolution effects"
        )
    if spec.has_svc != (state.delta is not None):
        raise ValidationError(f"rung {spec.rung} and state disagree on delta")


def linear_predictor_vector(state: SvcModelState, spec: SvcModelSpec) -> np.ndarray:
    """log mu for every area under the active rung."""
    _check_rung_state(state, spec)
    theta = spec.fixed_design() @ state.beta
    if spec.has_convolution:
        theta = theta + state.v.values + state.phi
    if spec.has_svc:
        theta = theta + spec.covariate * state.delta.values
    return theta


class PoissonLikelihood:
    """Poisson(mu E) outcome; NaN counts are suppressed areas.

    Areas with E = 0 (no population) carry no likelihood either, like
    suppressed areas; their observed count must then be 0 or missing.
    ``lik_a``, ``lik_b``: y and E, zero without likelihood (:func:`_lik_slope_curvature`).
    """

    def __init__(self, counts: np.ndarray, offsets: np.ndarray):
        y = np.asarray(counts, dtype=float)
        offsets = np.asarray(offsets, dtype=float)
        if y.shape != offsets.shape:
            raise DimensionMismatchError("counts and offsets must align")
        mask = np.isfinite(y)
        if (y[mask] < 0).any():
            raise ValidationError("counts must be nonnegative")
        if not np.allclose(y[mask], np.rint(y[mask])):
            raise ValidationError("counts must be integers")
        empty = offsets == 0
        if (empty & (y > 0)).any():
            raise ValidationError(
                f"area(s) {np.flatnonzero(empty & (y > 0)).tolist()} have observed "
                "counts but expected count 0"
            )
        mask &= ~empty
        self.y = y
        self.offsets = offsets
        self.mask = mask
        self.obs = np.flatnonzero(mask)
        self.y_obs = y[mask]
        self.e_obs = offsets[mask]
        self.lik_a = np.where(mask, y, 0.0)
        self.lik_b = np.where(mask, offsets, 0.0)
        self._const = float(np.sum(self.y_obs * np.log(self.e_obs) - special.gammaln(self.y_obs + 1)))

    def loglik(self, theta: np.ndarray) -> float:
        t = theta[self.obs]
        return float(self.y_obs @ t - self.e_obs @ np.exp(t)) + self._const

    def delta_sum(self, theta: np.ndarray, theta_new: np.ndarray) -> float:
        t0 = theta[self.obs]
        t1 = theta_new[self.obs]
        return float(self.y_obs @ (t1 - t0) - self.e_obs @ (np.exp(t1) - np.exp(t0)))

    def point_terms(self, theta_matrix: np.ndarray) -> np.ndarray:
        """(draws, n_observed) pointwise log densities for DIC/WAIC."""
        t = theta_matrix[:, self.obs]
        return (
            self.y_obs[None, :] * (t + np.log(self.e_obs)[None, :])
            - self.e_obs[None, :] * np.exp(t)
            - special.gammaln(self.y_obs + 1)[None, :]
        )


class GaussianLikelihood:
    """Identity-link Gaussian outcome, used for exactness cross-checks;
    ``lik_a``, ``lik_b``: y and ``1 / (2 s^2)``, zero without likelihood."""

    def __init__(self, y: np.ndarray, noise_variance: float):
        y = np.asarray(y, dtype=float)
        if not noise_variance > 0:
            raise ValidationError("noise_variance must be positive")
        self.y = y
        self.noise_variance = float(noise_variance)
        self.mask = np.isfinite(y)
        self.obs = np.flatnonzero(self.mask)
        self.y_obs = y[self.mask]
        self.lik_a = np.where(self.mask, y, 0.0)
        self.lik_b = np.where(self.mask, 1.0 / (2.0 * self.noise_variance), 0.0)

    def loglik(self, theta: np.ndarray) -> float:
        r = self.y_obs - theta[self.obs]
        s2 = self.noise_variance
        return float(-0.5 * (r @ r) / s2 - 0.5 * len(r) * math.log(2 * math.pi * s2))

    def delta_sum(self, theta: np.ndarray, theta_new: np.ndarray) -> float:
        r0 = self.y_obs - theta[self.obs]
        r1 = self.y_obs - theta_new[self.obs]
        return float((r0 @ r0 - r1 @ r1) / (2.0 * self.noise_variance))

    def point_terms(self, theta_matrix: np.ndarray) -> np.ndarray:
        r = self.y_obs[None, :] - theta_matrix[:, self.obs]
        s2 = self.noise_variance
        return -0.5 * r * r / s2 - 0.5 * math.log(2 * math.pi * s2)


def _make_likelihood(likelihood, counts, spec, noise_variance):
    if likelihood == "poisson":
        return PoissonLikelihood(counts, spec.offsets)
    if likelihood == "gaussian":
        if noise_variance is None:
            raise ValidationError("gaussian likelihood needs noise_variance")
        return GaussianLikelihood(counts, noise_variance)
    raise ValidationError(f"unknown likelihood {likelihood!r}")


def _fit_likelihood(likelihood, counts, spec, noise_variance):
    """The likelihood of a fit, which at least one area must carry."""
    lik = _make_likelihood(likelihood, counts, spec, noise_variance)
    if not np.any(lik.mask):
        raise ValidationError(
            "no area carries likelihood: every count is missing or has expected count 0"
        )
    return lik


def center_and_absorb(values: np.ndarray, graph: SpatialGraph) -> tuple[np.ndarray, float]:
    """Per-component centering plus the scalar shift a fixed effect absorbs.

    Returns the centered field and the area-weighted mean of the
    subtracted component means. Adding that scalar to the compensating
    fixed effect (the intercept for v, the covariate slope for delta)
    leaves every area's linear predictor unchanged on a connected graph;
    with several components the residual perturbation is the spread of
    the component means around their weighted mean, which the next sweep
    re-equilibrates.
    """
    centered, shifts = icar.center_by_component(values, graph)
    return centered, float(shifts @ graph.component_sizes) / graph.n_areas


# ---------------------------------------------------------------------------
# the Metropolis-within-Gibbs sampler
# ---------------------------------------------------------------------------


def _lik_slope_curvature(theta, exp_theta, lik_a, lik_b):
    """First derivative and minus the second derivative of each area's
    likelihood term in theta: Poisson ``y theta - E e^theta`` when
    ``exp_theta`` is given (``lik_a``, ``lik_b`` = y, E), else Gaussian
    ``-(y - theta)^2 / (2 s^2)`` (``lik_a``, ``lik_b`` = y, 1 / (2 s^2))."""
    if exp_theta is None:
        curv = 2.0 * lik_b
        return curv * (lik_a - theta), curv
    curv = lik_b * exp_theta
    return lik_a - curv, curv


def _site_proposal(
    cur, z, theta, exp_theta, prior_mean, prior_prec, coef, coef_sq, lik_a, lik_b,
    weight, walk_prec,
):
    """Proposals for the sites of one sweep step, with their log
    Metropolis-Hastings ratios.

    A site's log conditional is ``-prior_prec / 2 * (value - prior_mean)^2``
    plus its likelihood term (see :func:`_lik_slope_curvature`) in
    ``theta = ... + coef * value``. From a value with gradient g and
    curvature h (minus the second derivative) the proposal is ``N(value +
    weight g / p, 1 / p)`` with ``p = weight h + walk_prec``, drawn here with
    the standard normals ``z``: a Newton step (Gamerman 1997) for weight 1
    and walk_prec 0, which under a Gaussian likelihood is the exact
    conditional, and a random walk of sd ``walk_prec ** -0.5`` for weight 0.
    A proposal that moves ``|theta|`` past ``PREDICTOR_BOUND`` is divergent:
    its predictor stays at ``theta`` and its log ratio is ``-inf``, so it is
    rejected. Returns the proposals, their predictors, exp of those
    (Poisson only), the divergent mask and ``log pi(prop) q(cur | prop) -
    log pi(cur) q(prop | cur)``.
    """
    dev = cur - prior_mean
    slope, curv = _lik_slope_curvature(theta, exp_theta, lik_a, lik_b)
    p = weight * (prior_prec + coef_sq * curv) + walk_prec
    step = weight * (coef * slope - prior_prec * dev) / p + z / np.sqrt(p)
    t_new = theta + coef * step
    div = np.abs(t_new) > PREDICTOR_BOUND
    any_div = np.count_nonzero(div)
    if any_div:
        np.copyto(t_new, theta, where=div)
    e_new = None if exp_theta is None else np.exp(t_new)
    slope_new, curv_new = _lik_slope_curvature(t_new, e_new, lik_a, lik_b)
    p_new = weight * (prior_prec + coef_sq * curv_new) + walk_prec
    dev_new = dev + step
    # the proposal's distance from the proposal mean taken at the proposal
    back = step + weight * (coef * slope_new - prior_prec * dev_new) / p_new
    if exp_theta is None:
        r, r_new = lik_a - theta, lik_a - t_new
        loglik = lik_b * (r * r - r_new * r_new)
    else:
        loglik = lik_a * (t_new - theta) - (curv_new - curv)
    # p (prop - mean at cur)^2 is z^2 by construction
    logr = loglik + 0.5 * (
        np.log(p_new / p) + z * z - p_new * back * back - prior_prec * step * (dev + dev_new)
    )
    if any_div:
        np.copyto(logr, -np.inf, where=div)
    return cur + step, t_new, e_new, div, logr


class _SiteSweep:
    """The joint colour sweep of the ICAR fields: its layout and one sweep.

    The sites are the entries of the stacked field ``[v; delta]`` (M4) or
    ``v`` (M3), site ``i`` of v and site ``n + i`` of delta. With k colour
    classes (:attr:`SpatialGraph.colour_classes`) the sweep runs k steps:
    step s moves v on class s together with delta on class ``(s + 1) mod
    k``, and with one class (k = 1, M4) it runs two steps, v then delta.
    The sites of one step share no area and no ICAR edge, so they are
    conditionally independent, and so are their exchanges with phi (which
    move phi at the site's area): a step is one set of array operations on
    one CSR row block of ``blockdiag(W, W)``.

    Per-site constants are kept in step order: ``areas``, the field's
    coefficient in the predictor (1 for v, the covariate for delta),
    ``w_{i+}``, the likelihood constants of :func:`_lik_slope_curvature`,
    the gradient weight of :func:`_site_proposal` (``GRADIENT_WEIGHTS``) and
    ``walk_prec``, the random walk's precision, ``(1 - weight) /
    SITE_STEP^2`` at the start and adapted in burn-in by the chain's sweep.
    """

    def __init__(self, graph, spec, lik):
        n, classes = graph.n_areas, graph.colour_classes
        none = np.zeros(0, dtype=np.int64)
        if not spec.has_svc:
            pairs = [(c, none) for c in classes]
        elif len(classes) == 1:
            pairs = [(classes[0], none), (none, classes[0])]
        else:
            pairs = [(c, classes[(s + 1) % len(classes)]) for s, c in enumerate(classes)]
        W = graph.weight_matrix
        if spec.has_svc:
            W = sparse.block_diag((W, W), format="csr")
        step_sites = [np.concatenate((v_idx, n + d_idx)) for v_idx, d_idx in pairs]
        order = np.concatenate(step_sites)
        self.n_sites = len(order)
        self.areas = order % n
        self.is_delta = order >= n
        self.coef = np.where(self.is_delta, spec.covariate[self.areas], 1.0)
        self.coef_sq = self.coef * self.coef
        self.wplus = graph.wplus_eff[self.areas]
        weight = np.where(self.is_delta, GRADIENT_WEIGHTS["delta"], GRADIENT_WEIGHTS["v"])
        self.walk_prec = (1.0 - weight) / SITE_STEP**2
        consts = (1.0 / self.wplus, self.coef, self.coef_sq, lik.lik_a[self.areas],
                  lik.lik_b[self.areas], weight)
        self.steps, lo = [], 0
        for sites in step_sites:
            sl = slice(lo, lo + len(sites))
            self.steps.append((sl, sites, self.areas[sl], W[sites], *(c[sl] for c in consts)))
            lo = sl.stop

    def sweep(self, values, phi, theta, exp_theta, taus, z, exchange_z, log_us):
        """One sweep over the stacked field ``values``, a step at a time.

        Every site of a step gets a :func:`_site_proposal` from its entry of
        ``z`` against its prior conditional (mean ``sum_j w_ij values_j /
        w_{i+}``, precision ``tau w_{i+}``; 0 and ``tau`` for islands) and
        its own acceptance test, which rejects a divergent proposal. Right
        after it, every site of the step makes an exact Gibbs exchange with
        phi along ``(phi_i + c coef_i, value_i - c)``, which leaves its
        area's predictor term ``phi_i + coef_i value_i`` unchanged. Only the
        priors change along that line, phi's iid ``N(0, 1 / tau_phi)`` and
        the field's conditional, so the log density of c is ``-a c^2 / 2 +
        b c`` with ``a = tau_phi coef_i^2 + tau w_{i+}`` and ``b = tau w_{i+}
        (value_i - prior mean) - tau_phi coef_i phi_i``, and c is drawn
        exactly from ``N(b / a, 1 / a)`` with the standard normals
        ``exchange_z``. ``z``, ``exchange_z`` and ``log_us`` (the log
        uniforms of the tests) are in step order. Mutates values, phi, theta
        and exp_theta; returns per site the accept and divergent masks and
        the log ratio.
        """
        tau_phi = taus["tau_phi"]
        prior_precs = self.wplus * np.where(self.is_delta, taus["tau_delta"], taus["tau_v"])
        a_all = tau_phi * self.coef_sq + prior_precs
        noise_all = np.sqrt(a_all) * exchange_z
        m = self.n_sites
        accepted, divergent, log_ratios = np.empty(m, bool), np.empty(m, bool), np.empty(m)
        for sl, sites, areas, block, inv_wplus, coef, coef_sq, lik_a, lik_b, weight in self.steps:
            cur, t_old = values[sites], theta[areas]
            e_old = None if exp_theta is None else exp_theta[areas]
            prior_mean = csr_matvec(block, values) * inv_wplus
            prior_prec = prior_precs[sl]
            prop, t_new, e_new, div, logr = _site_proposal(
                cur, z[sl], t_old, e_old, prior_mean, prior_prec, coef, coef_sq,
                lik_a, lik_b, weight, self.walk_prec[sl],
            )
            # log u is finite, so a divergent proposal (logr = -inf) is rejected
            accept = log_us[sl] < logr
            np.copyto(t_old, t_new, where=accept)
            theta[areas] = t_old
            if exp_theta is not None:
                np.copyto(e_old, e_new, where=accept)
                exp_theta[areas] = e_old
            # cur becomes the step's new values
            np.copyto(cur, prop, where=accept)
            phi_i = phi[areas]
            b = prior_prec * (cur - prior_mean) - tau_phi * coef * phi_i
            c = (b + noise_all[sl]) / a_all[sl]
            phi[areas] = phi_i + coef * c
            values[sites] = cur - c
            accepted[sl], divergent[sl], log_ratios[sl] = accept, div, logr
        return accepted, divergent, log_ratios


def _beta_walk(rng, lik, X, beta, theta, steps, prior_variance, gain) -> tuple[int, int]:
    """One random-walk Metropolis pass over the fixed effects, a coordinate at a time.

    Coordinate k proposes ``beta[k] + steps[k] * z`` under the likelihood
    and a ``N(0, prior_variance)`` prior; a proposal that moves some
    ``|theta_i|`` past ``PREDICTOR_BOUND`` is divergent and rejected. Adapts
    each step by :func:`arealbayes.mcmc.adapt_step` with ``gain``, mutates
    its arrays and returns (accepted, divergent).
    """
    accepted = divergent = 0
    for k in range(len(beta)):
        prop = beta[k] + steps[k] * rng.standard_normal()
        theta_new = theta + X[:, k] * (prop - beta[k])
        if np.max(np.abs(theta_new)) > PREDICTOR_BOUND:
            divergent += 1
            logr = -math.inf
        else:
            logr = lik.delta_sum(theta, theta_new)
            logr += (beta[k] ** 2 - prop**2) / (2.0 * prior_variance)
            if logr >= 0 or math.log(rng.random()) < logr:
                beta[k] = prop
                theta[:] = theta_new
                accepted += 1
        steps[k] = adapt_step(steps[k], logr, gain)
    return accepted, divergent


class _RidgeMoves:
    """Exact Gibbs translations of the fixed effects that leave theta unchanged.

    Each move translates the state (beta, phi, v[, delta]) along a fixed
    direction d, ``state + c d``, with X beta + phi + v (+ x delta)
    unchanged. For every fixed effect k a phi-ridge moves
    ``(b_k + c, phi - c X_k)``; for every k >= 1 a v-ridge moves
    ``(b_k + c, b_0 - c m_k, v - c u_k, phi - c r_k)``, where m_k is the
    mean of X_k, u_k is X_k centred per component (zero on islands, so v
    keeps its zero component sums) and ``r_k = X_k - u_k - m_k`` is the
    spread of the component means, zero on a connected graph. Given the
    covariate x (M4), a last direction moves delta:
    ``(delta + c u, beta - c gamma, v - c rho, phi - c r)``, with u the
    covariate centred per component, gamma the least-squares coefficients
    of ``x u`` on X, rho the residual ``x u - X gamma`` centred per
    component and r its component means. It trades mean(x delta) against
    the intercept, which no other line of constant theta reaches; it is
    left out when the covariate is constant on every component (u = 0).
    Only the Gaussian priors change along a direction, so the log density
    of c is ``-a c^2 / 2 + b c`` and c is drawn exactly from
    ``N(b / a, 1 / a)``.

    The moves run one after another. In the coordinates c of all
    directions the prior is Gaussian with precision
    ``A = D_beta' D_beta / sigma_beta^2 + tau_phi D_phi' D_phi
    + tau_v D_v' Q D_v + tau_delta D_delta' Q D_delta``, so move m has
    ``a = A_mm`` and ``b = b0_m - sum_{l<m} A_ml c_l``, b0 being the linear
    term at the start. The blocks' Gram matrices and the stacked maps
    ``D' P`` (P a block's prior precision without its tau) are computed
    once, and the small triangular recursion runs on Python floats.
    """

    def __init__(self, X, graph, beta_prior_variance, covariate=None):
        n, K = X.shape
        labels, zero = graph.component_labels, np.zeros(n)
        rows = []  # (d_beta, d_phi, d_v, d_delta) of every direction
        for k in range(K):
            rows.append((np.eye(K)[k], -X[:, k], zero, zero))
        for k in range(1, K):
            u, means = icar.center_by_component(X[:, k], graph)
            d_beta = np.eye(K)[k]
            d_beta[0] = -X[:, k].mean()
            rows.append((d_beta, -d_beta[0] - means[labels], -u, zero))
        n_blocks = 3
        if covariate is not None:
            u = icar.center_by_component(covariate, graph)[0]
            if np.abs(u).max() > 1e-12 * np.abs(covariate).max():
                xu = covariate * u
                gamma = np.linalg.lstsq(X, xu, rcond=None)[0]
                rho, means = icar.center_by_component(xu - X @ gamma, graph)
                rows.append((-gamma, -means[labels], -rho, u))
                n_blocks = 4
        self.directions = [np.array(block) for block in zip(*rows)][:n_blocks]
        maps = [self.directions[0] / beta_prior_variance, self.directions[1]]
        maps += [np.array([icar._precision_product(graph, x) for x in d])
                 for d in self.directions[2:]]
        self.n_moves = len(rows)
        self.grams = np.array([(m @ d.T).ravel() for m, d in zip(maps, self.directions)])
        self.maps = np.hstack(maps)

    def move(self, beta, phi, v, tau_phi, tau_v, normals, delta=None, tau_delta=None) -> None:
        """Every move once, in order; mutates beta, phi, v and delta.

        ``normals`` holds one standard normal per move (``n_moves``);
        ``delta`` and ``tau_delta`` are read when there is a delta direction.
        """
        states = (beta, phi, v, delta)[:len(self.directions)]
        taus = (1.0, tau_phi, tau_v, tau_delta)[:len(self.directions)]
        gram = (np.array(taus) @ self.grams).reshape(self.n_moves, -1).tolist()
        scaled = [beta, *(tau * s for tau, s in zip(taus[1:], states[1:]))]
        lin = self.maps @ np.concatenate(scaled)
        c = []
        for m, (b, row, z) in enumerate(zip(lin.tolist(), gram, normals.tolist())):
            b = -b
            for a_ml, c_l in zip(row, c):
                b -= a_ml * c_l
            c.append(b / row[m] + z / math.sqrt(row[m]))
        c = np.array(c)
        for state, d in zip(states, self.directions):
            state += c @ d


class _DeltaScaleMoves:
    """M4's "delta" and "ridge" scale moves on scalar statistics carried in
    closed form.

    Both moves scale delta by s and tau_delta by ``1 / s^2`` and keep theta
    fixed. With ``w = x delta`` and ``t = s - 1``, "delta" moves phi by
    ``-t w``; "ridge" splits w as :class:`_RidgeMoves` splits its columns
    and moves v by ``-t u`` (u: w centred per component), b0 by ``-t m``
    (m: the mean of w) and phi by ``-t r`` (r: the spread of w's component
    means, zero on a connected graph). Their log ratios
    (:meth:`_Stage2Chain._scale_log_ratio`) read only the products ``w.w``,
    ``w.phi``, ``u'Q u``, ``(Q u).v``, ``r.r``, ``r.phi`` and ``w.r``, m
    and b0, and tau_delta's Gamma draw reads ``delta' Q delta``. These are
    formed once from the chain's state (Q by one product with W); an
    accepted move updates them in closed form (every product with delta's
    side twice scales by s^2, m by s) and adds its shifts, as multiples of
    the fixed w, u and r, to coefficients that :meth:`apply` writes into
    the chain's fields at the end. The precisions of phi and v do not change
    meanwhile.
    """

    def __init__(self, chain):
        self.chain = chain
        fields, graph = chain.fields, chain.graph
        delta, phi, v = fields["delta"], fields["phi"], fields["v"]
        w = chain.spec.covariate * delta
        u, means = icar.center_by_component(w, graph)
        qu = icar._precision_product(graph, u)
        self.w, self.u, self.r = w, u, None
        self.ww, self.wphi = float(w @ w), float(w @ phi)
        self.uqu, self.quv = float(u @ qu), float(qu @ v)
        self.m = float(w.sum()) / len(w)
        self.rr = self.rphi = self.wr = 0.0
        if len(means) > 1:
            self.r = means[graph.component_labels] - self.m
            self.rr, self.rphi, self.wr = (float(self.r @ x) for x in (self.r, phi, w))
        self.quad_delta = icar.quad_form_and_rank(graph, delta)[0]
        self.beta0 = float(chain.beta[0])
        # delta's overall scale, and the multiples of w and r that phi and
        # of u that v have taken since the statistics were formed
        self.scale, self.phi_w, self.phi_r, self.v_u = 1.0, 0.0, 0.0, 0.0

    def move(self, name, log_s, log_u) -> float:
        """The scale move ``name`` ("delta" or "ridge") by ``s = exp(log_s)``,
        taken when ``log_u`` is below its log ratio, which it returns."""
        chain = self.chain
        taus = chain.taus
        tau_phi = taus["tau_phi"]
        if name == "delta":
            quad, lin = tau_phi * self.ww, tau_phi * self.wphi
        else:
            prec, tau_v, m = 1.0 / chain.spec.beta_prior_variance, taus["tau_v"], self.m
            quad = tau_v * self.uqu + prec * m * m + tau_phi * self.rr
            lin = tau_v * self.quv + prec * m * self.beta0 + tau_phi * self.rphi
        logr = chain._scale_log_ratio(log_s, quad, lin, taus["tau_delta"])
        if log_u < logr:
            t, s = math.expm1(log_s), math.exp(log_s)
            shift = t * self.scale
            if name == "delta":
                self.phi_w += shift
                self.wphi = s * (self.wphi - t * self.ww)
                self.rphi = s * (self.rphi - t * self.wr)
                self.quv *= s
            else:
                self.v_u += shift
                self.phi_r += shift
                self.beta0 -= t * self.m
                self.quv = s * (self.quv - t * self.uqu)
                self.rphi = s * (self.rphi - t * self.rr)
                self.wphi = s * (self.wphi - t * self.wr)
            s2 = s * s
            self.ww *= s2
            self.wr *= s2
            self.rr *= s2
            self.uqu *= s2
            self.quad_delta *= s2
            self.m *= s
            self.scale *= s
            taus["tau_delta"] *= math.exp(-2.0 * log_s)
            chain.scale_accepted[name] += 1
        return logr

    def apply(self) -> None:
        """Write the accepted moves' shifts into phi, v, delta and b0."""
        fields = self.chain.fields
        fields["phi"] -= self.phi_w * self.w
        if self.r is not None:
            fields["phi"] -= self.phi_r * self.r
        fields["v"] -= self.v_u * self.u
        fields["delta"] *= self.scale
        self.chain.beta[0] = self.beta0


class _Stage2Chain:
    """One stage-2 chain for :func:`arealbayes.mcmc.run_chains`: its state,
    one iteration of the moves the module docstring lists, their counts and
    the divergence abort. ``payload`` is ``(spec, lik, graph,
    sample_precisions, taus)``.
    """

    extra = None  # nothing beside the draws and the metadata

    def __init__(self, rng, config, payload):
        spec, lik, graph, sample_precisions, taus = payload
        self.rng, self.spec, self.graph, self.lik = rng, spec, graph, lik
        self.sample_precisions, self.taus = sample_precisions, dict(taus)
        self.gaussian = isinstance(lik, GaussianLikelihood)
        n = spec.n_areas
        self.X = spec.fixed_design()

        # deterministic start
        self.beta = np.zeros(spec.n_fixed)
        if self.gaussian:
            self.beta[0] = float(np.mean(lik.y_obs))
        else:
            self.beta[0] = math.log(max(lik.y_obs.sum(), 0.5) / lik.e_obs.sum())
        self.theta = self.X @ self.beta
        names = ("phi", "v", "delta")[:2 + spec.has_svc] if spec.has_convolution else ()
        self.fields = {name: np.zeros(n) for name in names}

        # each block proposes block_size values per iteration; phi moves
        # only by exchanges and translations, which are exact draws
        self.accepted = dict.fromkeys(names[1:] or ("beta",), 0)
        self.block_size = n if names else spec.n_fixed
        self.divergent = self.divergent_before_window = 0
        self.config = config
        # the scale moves change the precisions, so they run only when those
        # are sampled; their tallies stay out of ``accepted``, which the
        # divergence abort counts proposals by
        scale_names = SCALE_MOVES[:1 + 2 * spec.has_svc] if names and sample_precisions else ()
        self.scale_steps = dict.fromkeys(scale_names, SCALE_STEP)
        self.scale_accepted = dict.fromkeys(scale_names, 0)
        if not names:
            self.beta_steps = np.full(spec.n_fixed, 0.1)
            return

        self.sites = _SiteSweep(graph, spec, lik)
        self.ridges = _RidgeMoves(
            self.X, graph, spec.beta_prior_variance, spec.covariate if spec.has_svc else None
        )
        self.rank = icar.quad_form_and_rank(graph, np.zeros(n))[1]
        a = spec.precision_prior_shape
        self.scale_power = icar.centered_dimension(graph) - self.rank - 2.0 * a
        # the iteration's variates, one block per distribution (module docstring)
        n_scale = 1 + 2 * SCALE_ROUNDS * spec.has_svc if scale_names else 0
        self.n_normals = 2 * self.sites.n_sites + self.ridges.n_moves + n_scale
        self.n_uniforms = self.sites.n_sites + n_scale
        # standard Gamma shapes: tau_delta's rounds, then tau_phi and tau_v
        icar_shape = a + self.rank / 2.0
        self.gamma_shapes = np.array(
            [icar_shape] * (SCALE_ROUNDS * spec.has_svc) + [a + n / 2.0, icar_shape]
        )

    def _tally(self, block, accepted, divergent):
        self.accepted[block] += accepted
        self.divergent += divergent

    def _sweep(self, normals, log_us, gain):
        """The joint sweep of v (and delta) with its exchanges with phi,
        from the first ``2 n_sites`` normals and ``n_sites`` log uniforms;
        then each field is recentered per component and the subtracted mean
        absorbed into b0 (v) or b1 (delta), and in burn-in the random-walk
        steps adapt."""
        fields, sites, graph, beta = self.fields, self.sites, self.graph, self.beta
        names = ("v", "delta")[:1 + self.spec.has_svc]
        values = np.concatenate([fields[name] for name in names])
        theta = self.theta
        exp_theta = None if self.gaussian else np.exp(np.minimum(theta, 700.0))
        m = sites.n_sites
        accept, div, logr = sites.sweep(
            values, fields["phi"], theta, exp_theta, self.taus, normals[:m], normals[m:2 * m],
            log_us[:m],
        )
        n_accepted = int(np.count_nonzero(accept))
        if self.spec.has_svc:
            delta_accepted = int(np.count_nonzero(accept & sites.is_delta))
            self.accepted["delta"] += delta_accepted
            n_accepted -= delta_accepted
        self._tally("v", n_accepted, int(np.count_nonzero(div)))
        if gain:
            # each walk step, walk_prec ** -0.5, moves by mcmc.adapt_step's rule
            # (a Newton site's walk_prec stays 0; a divergent logr is -inf)
            signal = np.where(logr > -700.0, np.exp(np.minimum(logr, 0.0)), 0.0)
            sites.walk_prec *= np.exp((-2.0 * gain) * (signal - ADAPT_TARGET))
        n = self.spec.n_areas
        for k, name in enumerate(names):
            fields[name], shift = center_and_absorb(values[k * n:(k + 1) * n], graph)
            beta[k] += shift

    def step(self, it, gain):
        spec, rng, beta, fields = self.spec, self.rng, self.beta, self.fields
        if not fields:
            self._tally("beta", *_beta_walk(
                rng, self.lik, self.X, beta, self.theta, self.beta_steps,
                spec.beta_prior_variance, gain,
            ))
        else:
            normals = rng.standard_normal(self.n_normals)
            log_us = np.log1p(-rng.random(self.n_uniforms))
            m, n_moves = self.sites.n_sites, self.ridges.n_moves
            self._sweep(normals, log_us, gain)
            self.ridges.move(
                beta, fields["phi"], fields["v"], self.taus["tau_phi"], self.taus["tau_v"],
                normals[2 * m:2 * m + n_moves], fields.get("delta"), self.taus["tau_delta"],
            )
            self.theta = self.X @ beta + fields["phi"] + fields["v"]
            if spec.has_svc:
                self.theta += spec.covariate * fields["delta"]
            if self.sample_precisions:
                self._precision_moves(
                    gain, normals[2 * m + n_moves:].tolist(), log_us[m:].tolist(),
                    rng.standard_gamma(self.gamma_shapes).tolist(),
                )

        # the divergence abort looks at the late burn-in, or at the whole run
        # when there is no burn-in
        burn_in = self.config.burn_in
        opens, closes = burn_in // 2, burn_in or self.config.n_iter
        if it == opens:
            self.divergent_before_window = self.divergent
        if it == closes:
            proposals = (closes - opens) * self.block_size * len(self.accepted)
            frac = (self.divergent - self.divergent_before_window) / proposals
            if frac > 0.10:
                raise RuntimeError(
                    f"persistent divergence: {frac:.1%} of proposals in the "
                    f"{'late burn-in' if burn_in else 'run'} pushed |log mu| "
                    f"past {PREDICTOR_BOUND}; check offsets and covariate scaling"
                )

    def _precision_moves(self, gain, normals, log_us, gammas):
        """The scale moves and the conjugate Gamma draws of the precisions,
        in the order the module docstring lists: ``normals`` and ``log_us``
        hold one variate per scale move (v's, then per round "delta" and
        "ridge"), ``gammas`` the standard Gamma variates of
        ``gamma_shapes``."""
        spec, fields, taus = self.spec, self.fields, self.taus
        b = spec.precision_prior_rate
        steps = self.scale_steps
        steps["v"] = adapt_step(steps["v"], self._scale_v(steps["v"] * normals[0], log_us[0]), gain)
        if spec.has_svc:
            moves = _DeltaScaleMoves(self)
            for r in range(SCALE_ROUNDS):
                for j, name in enumerate(("delta", "ridge"), start=1 + 2 * r):
                    logr = moves.move(name, steps[name] * normals[j], log_us[j])
                    steps[name] = adapt_step(steps[name], logr, gain)
                taus["tau_delta"] = gammas[r] / (b + moves.quad_delta / 2.0)
            moves.apply()
        phi, v = fields["phi"], fields["v"]
        taus["tau_phi"] = gammas[-2] / (b + float(phi @ phi) / 2.0)
        taus["tau_v"] = gammas[-1] / (b + icar.quad_form_and_rank(self.graph, v)[0] / 2.0)

    def _scale_log_ratio(self, log_s, quad, lin, tau) -> float:
        """Log ratio of a scale move by ``s = exp(log_s)``.

        Each move scales an ICAR field by s and its precision ``tau`` by
        ``1 / s^2`` and keeps theta fixed by subtracting ``t w``, ``t = s -
        1``, from blocks that compensate (:meth:`_scale_v` and
        :class:`_DeltaScaleMoves`). The compensating priors change by
        ``-t^2 quad / 2 + t lin``, and with the field's Jacobian, the
        precision's Gamma(a, b) prior and the Gamma update's rank r the log
        ratio is that plus ``(d - r - 2 a) log s - b tau (s^-2 - 1)``, d
        being :func:`arealbayes.icar.centered_dimension`: s^d is the field's
        Jacobian and ``s^-2`` the precision's. A ``|log_s|`` past
        ``MAX_LOG_SCALE`` gives ``-inf``, which every move rejects.
        """
        if abs(log_s) > MAX_LOG_SCALE:
            return -math.inf
        t = math.expm1(log_s)
        return (-0.5 * t * t * quad + t * lin + self.scale_power * log_s
                - self.spec.precision_prior_rate * tau * math.expm1(-2.0 * log_s))

    def _scale_v(self, log_s, log_u) -> float:
        """The "v" scale move by ``s = exp(log_s)``: v scales by s, tau_v by
        ``1 / s^2`` and phi takes ``-(s - 1) v``. Taken when ``log_u`` is
        below the log ratio, which it returns."""
        fields, taus = self.fields, self.taus
        phi, v = fields["phi"], fields["v"]
        tau_phi = taus["tau_phi"]
        logr = self._scale_log_ratio(
            log_s, tau_phi * float(v @ v), tau_phi * float(v @ phi), taus["tau_v"]
        )
        if log_u < logr:
            phi -= math.expm1(log_s) * v
            v *= math.exp(log_s)
            taus["tau_v"] *= math.exp(-2.0 * log_s)
            self.scale_accepted["v"] += 1
        return logr

    def snapshot(self):
        taus = {f"tau_{name}": self.taus[f"tau_{name}"] for name in self.fields}
        return {"beta": self.beta, **self.fields, **taus}

    def metadata(self):
        """Each block's acceptance rate, the divergence count and, with
        sampled precisions, the scale moves' final log-steps."""
        n_iter = self.config.n_iter
        rates = {block: accepted / (n_iter * self.block_size)
                 for block, accepted in self.accepted.items()}
        # "delta" and "ridge" propose SCALE_ROUNDS times an iteration
        rates.update((f"scale_{name}", accepted / (n_iter * (1 if name == "v" else SCALE_ROUNDS)))
                     for name, accepted in self.scale_accepted.items())
        meta = {
            "acceptance": ";".join(f"{key}={rate:.3f}" for key, rate in sorted(rates.items())),
            "divergent": str(self.divergent),
        }
        if self.scale_steps:
            meta["scale_log_step"] = ";".join(
                f"{name}={step:.4f}" for name, step in sorted(self.scale_steps.items())
            )
        return meta


def fit_stage2_mcmc(
    spec: SvcModelSpec,
    counts: np.ndarray,
    graph: SpatialGraph,
    config: McmcConfig | None = None,
    likelihood: str = "poisson",
    noise_variance: float | None = None,
    sample_precisions: bool = True,
    initial_precisions: dict | None = None,
    n_workers: int | None = None,
) -> ChainArchive:
    """Sample the active rung's posterior and return the thinned archive.

    Suppressed areas (NaN counts) and areas with zero expected count stay
    in the graph, their random effects driven by the prior, and contribute
    no likelihood. Each chain's number of proposals that pushed
    ``|log mu|`` past ``PREDICTOR_BOUND`` is recorded as metadata
    ``chain<c>_divergent``. With
    ``sample_precisions=False`` the precisions stay at
    ``initial_precisions`` (2.0 where not given; unknown names and values
    that are not finite and positive raise ValidationError), which is how
    the Laplace cross-check matches hyperparameters. ``n_workers`` is as in
    :func:`arealbayes.mcmc.run_chains`.
    """
    if config is None:
        config = McmcConfig()
    counts = np.asarray(counts, dtype=float)
    if counts.shape != (spec.n_areas,):
        raise DimensionMismatchError("counts length must equal n_areas")
    if graph.n_areas != spec.n_areas:
        raise DimensionMismatchError(
            f"graph has {graph.n_areas} areas, spec has {spec.n_areas}"
        )
    lik = _fit_likelihood(likelihood, counts, spec, noise_variance)
    taus = _checked_precisions(initial_precisions)
    payload = (spec, lik, graph, sample_precisions, taus)
    archive, _ = run_chains(_Stage2Chain, [payload] * config.n_chains, config, n_workers)
    archive.metadata.update(
        model=f"stage2_svc_{spec.rung}",
        model_hash=model_hash(
            spec.rung, spec.beta_prior_variance, spec.precision_prior_shape,
            spec.precision_prior_rate, spec.n_areas, spec.n_factors,
            graph.n_edges, config, likelihood,
        ),
        likelihood=likelihood,
    )
    return archive


# ---------------------------------------------------------------------------
# Laplace approximation at fixed precisions
# ---------------------------------------------------------------------------


class LaplaceFit(NamedTuple):
    """Mode, fixed-effect sds, convergence record and log marginal of a
    :func:`fit_stage2_laplace` fit."""

    state: SvcModelState
    beta_sd: np.ndarray
    gradient_norm: float
    n_newton: int
    log_marginal: float


def fit_stage2_laplace(
    spec: SvcModelSpec,
    counts: np.ndarray,
    graph: SpatialGraph,
    precisions: dict | None = None,
    likelihood: str = "poisson",
    noise_variance: float | None = None,
) -> LaplaceFit:
    """Gaussian approximation of the latent field at fixed precisions.

    Newton-Raphson climbs log-likelihood plus log-prior of the joint
    latent vector ``z = (beta, phi, v, delta)`` in area coordinates, with
    the ICAR blocks held to zero sum on every multi-area component by a
    sparse constraint matrix C (one indicator column per component and
    ICAR block; islands carry their proper prior and no constraint). The
    design ``A = [X | I | I | diag(x)]`` and the prior precision
    ``P = blockdiag(I / sigma_beta^2, tau_phi I, tau_v Q, tau_delta Q)``
    are sparse, so the curvature ``H = A' diag(w) A + P`` is sparse plus
    the dense rows of the fixed effects. phi's block of H is diagonal, so
    each Newton step eliminates phi area by area and factors the rest of H
    on the constraint set once (:class:`gmrf.ConstrainedFactor`: a sparse
    symmetric factor of the (v, delta) block and a dense Schur complement
    over the fixed effects and the constraints). That factor gives the
    constrained step, log det of H on the constraint set and, at the
    mode, ``beta_sd`` (the fixed-effect block of the constrained inverse).
    A component whose areas are all suppressed leaves the (v, delta) block
    singular; the factor handles it exactly. The prior's Q is factored on
    its constraint set once per fit.
    ``log_marginal`` is the resulting approximate log marginal of the
    fixed precisions (up to a constant), the quantity
    :func:`laplace_precision_grid` maximises.

    ``gradient_norm`` is the max-norm of the log-posterior gradient
    projected orthogonally onto the constraint set, i.e. with each
    component's mean removed from the v and delta blocks.

    ``precisions`` missing from the dict are 2.0; unknown names and values
    that are not finite and positive raise ValidationError. Newton stops
    once ``gradient_norm`` is below ``GRAD_TOL`` and raises after
    ``MAX_NEWTON`` steps. Diverging steps are halved; more than 50 halvings
    on one step raises with the current gradient norm.
    """
    counts = np.asarray(counts, dtype=float)
    lik = _fit_likelihood(likelihood, counts, spec, noise_variance)
    if graph.n_areas != spec.n_areas:
        raise DimensionMismatchError("graph and spec disagree on n_areas")
    tau_phi, tau_v, tau_delta = _checked_precisions(precisions).values()

    n = spec.n_areas
    K = spec.n_fixed
    eye = sparse.identity(n, format="csr")
    X = spec.fixed_design()
    blocks = [sparse.csr_matrix(X)]
    priors = [sparse.identity(K) / spec.beta_prior_variance]
    icar_taus = []
    logdet_p = K * math.log(1.0 / spec.beta_prior_variance)
    if spec.has_convolution:
        Q = gmrf.icar_precision(graph)
        Cq = gmrf.sum_to_zero_columns(graph, n, [0])
        logdet_q = gmrf.ConstrainedFactor(Q, Cq).logdet
        blocks += [eye, eye]
        priors += [tau_phi * eye, tau_v * Q]
        icar_taus.append(tau_v)
        logdet_p += n * math.log(tau_phi)
        if spec.has_svc:
            blocks.append(sparse.diags(spec.covariate))
            priors.append(tau_delta * Q)
            icar_taus.append(tau_delta)
        for tau in icar_taus:
            logdet_p += (n - Cq.shape[1]) * math.log(tau) + logdet_q
    A = sparse.hstack(blocks, format="csr")
    P = sparse.block_diag(priors, format="csr")
    d = A.shape[1]
    # z = (beta, phi, latent), latent = (v, delta), on the rungs that have them
    n_phi = n if spec.has_convolution else 0
    lat = K + n_phi
    A_l = A[:, lat:]
    P_l = P[lat:, lat:]
    C = gmrf.sum_to_zero_columns(graph, d - lat, n * np.arange(len(icar_taus)))
    C_sizes = np.asarray(C.sum(axis=0)).ravel()
    fixed_prior = np.eye(K) / spec.beta_prior_variance

    z = np.zeros(d)
    poisson = isinstance(lik, PoissonLikelihood)
    if poisson:
        z[0] = math.log(max(lik.y_obs.sum(), 0.5) / lik.e_obs.sum())

    def objective(zvec):
        return lik.loglik(A @ zvec) - 0.5 * float(zvec @ (P @ zvec))

    obj = objective(z)
    grad_norm = math.inf
    for it in range(1, MAX_NEWTON + 1):
        theta = A @ z
        g_lik, w = _lik_slope_curvature(
            theta, np.exp(np.minimum(theta, 700.0)) if poisson else None, lik.lik_a, lik.lik_b
        )
        grad = A.T @ g_lik - P @ z
        g_l = grad[lat:]
        grad_norm = float(max(
            np.max(np.abs(grad[:lat])),
            np.max(np.abs(g_l - C @ ((C.T @ g_l) / C_sizes)), initial=0.0),
        ))
        w_r, folded, d_phi = w, np.zeros(n), np.zeros(0)
        if n_phi:
            # phi's block of the curvature is diag(w + tau_phi): eliminating it
            # leaves the curvature of (beta, latent) with weights
            # w tau_phi / (w + tau_phi), and folds phi's gradient into theirs
            d_phi = w + tau_phi
            w_r = w * tau_phi / d_phi
            folded = w / d_phi * grad[K:lat]
        Xw = X * w_r[:, None]
        factor = gmrf.ConstrainedFactor(
            A_l.T @ sparse.diags(w_r) @ A_l + P_l, C, A_l.T @ Xw, X.T @ Xw + fixed_prior
        )
        logdet_h = factor.logdet + float(np.sum(np.log(d_phi)))
        if grad_norm < GRAD_TOL:
            break
        r = factor.solve(np.concatenate([grad[:K] - X.T @ folded, g_l - A_l.T @ folded]))
        theta_r = X @ r[:K] + A_l @ r[K:]
        step_phi = (grad[K:lat] - w[:n_phi] * theta_r[:n_phi]) / d_phi
        step = np.concatenate([r[:K], step_phi, r[K:]])
        t = 1.0
        # acceptance tolerance is relative: near the mode the true
        # improvement sits below the float noise of the objective itself
        slack = 1e-9 * (1.0 + abs(obj))
        for halving in range(51):
            candidate = z + t * step
            cand_obj = objective(candidate)
            if np.isfinite(cand_obj) and cand_obj >= obj - slack:
                break
            t *= 0.5
        else:
            raise RuntimeError(
                f"Newton step failed after 50 halvings; gradient max-norm "
                f"{grad_norm:.3e}"
            )
        z = candidate
        obj = cand_obj
    else:
        raise RuntimeError(
            f"Newton did not converge in {MAX_NEWTON} iterations; "
            f"gradient max-norm {grad_norm:.3e}"
        )

    beta_sd = np.sqrt(np.diag(factor.fixed_covariance()))
    fields = z[K:].reshape(-1, n)
    state = SvcModelState(
        beta=z[:K].copy(),
        phi=fields[0].copy() if spec.has_convolution else None,
        v=IcarField(graph, fields[1].copy(), 1.0 / tau_v) if spec.has_convolution else None,
        delta=IcarField(graph, fields[2].copy(), 1.0 / tau_delta) if spec.has_svc else None,
        tau_phi=tau_phi if spec.has_convolution else None,
        tau_v=tau_v if spec.has_convolution else None,
        tau_delta=tau_delta if spec.has_svc else None,
    )

    log_marginal = obj + 0.5 * logdet_p - 0.5 * logdet_h
    a, b = spec.precision_prior_shape, spec.precision_prior_rate
    if spec.has_convolution:
        log_marginal += float(stats.gamma.logpdf(tau_phi, a, scale=1.0 / b))
        log_marginal += float(stats.gamma.logpdf(tau_v, a, scale=1.0 / b))
    if spec.has_svc:
        log_marginal += float(stats.gamma.logpdf(tau_delta, a, scale=1.0 / b))

    return LaplaceFit(state, beta_sd, grad_norm, it, log_marginal)


def laplace_precision_grid(
    spec: SvcModelSpec,
    counts: np.ndarray,
    graph: SpatialGraph,
    grid: Iterable[dict],
    likelihood: str = "poisson",
    noise_variance: float | None = None,
) -> tuple[LaplaceFit, list[tuple[dict, float]]]:
    """Empirical-Bayes precision selection over a user-supplied grid.

    Fits the Laplace mode at every grid point and returns the fit with the
    largest approximate log marginal, plus the whole evaluation table.
    Every point is validated before the first fit.
    """
    grid = list(grid)
    for point in grid:
        _checked_precisions(point)
    table = []
    best = None
    for point in grid:
        fit = fit_stage2_laplace(
            spec, counts, graph, point, likelihood, noise_variance
        )
        table.append((dict(point), fit.log_marginal))
        if best is None or fit.log_marginal > best.log_marginal:
            best = fit
    if best is None:
        raise ValidationError("precision grid is empty")
    return best, table


# ---------------------------------------------------------------------------
# draw-based summaries and model comparison
# ---------------------------------------------------------------------------


def predictor_draws(archive: ChainArchive, spec: SvcModelSpec) -> np.ndarray:
    """(draws, n_areas) linear predictors reconstructed from the archive."""
    theta = archive.get("beta") @ spec.fixed_design().T
    names = archive.param_names
    if "phi" in names:
        theta = theta + archive.get("phi") + archive.get("v")
    if "delta" in names:
        theta = theta + archive.get("delta") * spec.covariate[None, :]
    return theta


class DicComponents(NamedTuple):
    dic: float
    mean_deviance: float
    deviance_at_mean: float
    p_d: float


class WaicComponents(NamedTuple):
    waic: float
    lppd: float
    p_waic: float


def _point_terms(archive, spec, counts, likelihood, noise_variance):
    if archive.total_draws < 2:
        raise ValidationError("model comparison needs at least 2 retained draws")
    lik = _make_likelihood(likelihood, np.asarray(counts, dtype=float), spec, noise_variance)
    theta = predictor_draws(archive, spec)
    return lik, theta, lik.point_terms(theta)


def dic_components(
    archive: ChainArchive,
    spec: SvcModelSpec,
    counts: np.ndarray,
    likelihood: str = "poisson",
    noise_variance: float | None = None,
) -> DicComponents:
    """DIC = mean deviance + p_D, with p_D = Dbar - D(mean predictor)."""
    lik, theta, terms = _point_terms(archive, spec, counts, likelihood, noise_variance)
    deviances = -2.0 * terms.sum(axis=1)
    dbar = float(deviances.mean())
    d_hat = -2.0 * float(lik.point_terms(theta.mean(axis=0, keepdims=True)).sum())
    p_d = dbar - d_hat
    return DicComponents(dbar + p_d, dbar, d_hat, p_d)


def waic_components(
    archive: ChainArchive,
    spec: SvcModelSpec,
    counts: np.ndarray,
    likelihood: str = "poisson",
    noise_variance: float | None = None,
) -> WaicComponents:
    """WAIC = -2 (lppd - p_WAIC), pointwise over observed areas.

    lppd sums log mean predictive density per area; p_WAIC sums the
    per-area sample variance (n-1 denominator) of the log densities.
    """
    _, _, terms = _point_terms(archive, spec, counts, likelihood, noise_variance)
    s = terms.shape[0]
    lppd = float(np.sum(special.logsumexp(terms, axis=0) - math.log(s)))
    p_waic = float(np.sum(np.var(terms, axis=0, ddof=1)))
    return WaicComponents(-2.0 * (lppd - p_waic), lppd, p_waic)


def compute_dic(archive, spec, counts, **kwargs) -> float:
    return dic_components(archive, spec, counts, **kwargs).dic


def compute_waic(archive, spec, counts, **kwargs) -> float:
    return waic_components(archive, spec, counts, **kwargs).waic


def relative_risk_summary(
    archive: ChainArchive, spec: SvcModelSpec
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Posterior mean and 95% interval of exp(linear predictor) per area.

    "Relative risk" here is always the multiplicative departure
    exp(log mu) from the expected count, the convention used throughout
    this package.
    """
    theta = predictor_draws(archive, spec)
    rr = np.exp(theta)
    lo, hi = np.quantile(rr, [0.025, 0.975], axis=0)
    return rr.mean(axis=0), lo, hi


def risk_exceedance(
    archive: ChainArchive,
    spec: SvcModelSpec,
    thresholds: tuple[float, ...] = (1.25, 1.5, 2.0),
) -> np.ndarray:
    """P(relative risk > t) per area, one column per threshold."""
    theta = predictor_draws(archive, spec)
    out = np.empty((spec.n_areas, len(thresholds)))
    for j, t in enumerate(thresholds):
        out[:, j] = (theta > math.log(t)).mean(axis=0)
    return out


class RateRatio(NamedTuple):
    point: float
    lower: float
    upper: float


def rate_ratio(draws: np.ndarray) -> RateRatio:
    """exp-scale effect of a unit covariate change from coefficient draws.

    The point estimate is exp of the posterior mean; the interval is the
    exp-transformed equal-tailed 95% interval of the draws.
    """
    draws = np.asarray(draws, dtype=float)
    lo, hi = np.quantile(draws, [0.025, 0.975])
    return RateRatio(float(np.exp(draws.mean())), float(np.exp(lo)), float(np.exp(hi)))


def format_rate_ratio(rr: RateRatio, label: str = "beta") -> str:
    return (
        f"e^{label} = {rr.point:.3f}, 95% credible interval: "
        f"{rr.lower:.3f}, {rr.upper:.3f}"
    )


def precision_summary(archive: ChainArchive, param: str) -> dict:
    """Posterior mean, kernel-density mode and 95% interval of a precision.

    Reported value conventions differ across software, so both the mean
    and an approximate posterior mode are returned.
    """
    draws = archive.get(param)
    if draws.ndim != 1:
        raise ValidationError("precision parameters are scalar")
    lo, hi = np.quantile(draws, [0.025, 0.975])
    if np.ptp(draws) == 0:
        mode = float(draws[0])
    else:
        kde = stats.gaussian_kde(draws)
        grid = np.linspace(draws.min(), draws.max(), 512)
        mode = float(grid[np.argmax(kde(grid))])
    return {
        "mean": float(draws.mean()),
        "mode": mode,
        "lower": float(lo),
        "upper": float(hi),
    }
