"""Two-stage Bayesian spatial modelling on areal adjacency graphs.

Stage 1 fits a spatial latent factor model (Gaussian indicators, ICAR
latent field) by conjugate Gibbs sampling; Stage 2 feeds the resulting
factor scores into a ladder of Poisson spatially-varying-coefficient
models (M1..M4) fit by adaptive Metropolis-within-Gibbs, with an optional
Laplace mode, DIC/WAIC model comparison and risk summaries.
"""

from .graph import SpatialGraph, build_graph, morans_i, subgraph
from .icar import IcarField, icar_logdensity_unnormalized
from .mcmc import ChainArchive, McmcConfig, effective_sample_size, gelman_rubin, posterior_summary
from .prep import (
    IndicatorPanel,
    StrataTable,
    compute_ice,
    expected_counts,
    impute_by_group,
    smr,
    standardize,
)
from .factor import (
    FactorModelSpec,
    FactorModelState,
    factor_exceedance,
    factor_quintiles,
    fit_stage1,
    loglik_stage1,
    summarize_loadings,
)
from .svc import (
    SvcModelSpec,
    SvcModelState,
    compute_dic,
    compute_waic,
    fit_stage2_laplace,
    fit_stage2_mcmc,
    linear_predictor_vector,
    relative_risk_summary,
    risk_exceedance,
)
from .simulate import make_lattice, sample_icar, simulate_stage1, simulate_stage2

__version__ = "0.1.0"

__all__ = [
    "SpatialGraph", "build_graph", "morans_i", "subgraph",
    "IcarField", "icar_logdensity_unnormalized",
    "ChainArchive", "McmcConfig", "effective_sample_size", "gelman_rubin",
    "posterior_summary",
    "IndicatorPanel", "StrataTable", "compute_ice", "expected_counts",
    "impute_by_group", "smr", "standardize",
    "FactorModelSpec", "FactorModelState", "factor_exceedance",
    "factor_quintiles", "fit_stage1", "loglik_stage1", "summarize_loadings",
    "SvcModelSpec", "SvcModelState", "compute_dic", "compute_waic",
    "fit_stage2_laplace", "fit_stage2_mcmc", "linear_predictor_vector",
    "relative_risk_summary", "risk_exceedance",
    "make_lattice", "sample_icar", "simulate_stage1", "simulate_stage2",
]
