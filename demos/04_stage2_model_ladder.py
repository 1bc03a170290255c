"""The Poisson model ladder M1..M4 with model comparison and risk output.

Simulates counts from an M4 truth (global segregation effect plus a
spatially varying local deviation), fits all four rungs, and prints the
DIC/WAIC ladder, the rate-ratio presentation of the covariate effect,
exceedance probabilities and a Laplace-mode cross-check. Takes ~60 s.
"""

import numpy as np

from arealbayes import IcarField, McmcConfig, compute_dic, compute_waic
from arealbayes.simulate import make_lattice, sample_icar, simulate_stage2
from arealbayes.svc import (
    SvcModelSpec,
    SvcModelState,
    fit_stage2_laplace,
    fit_stage2_mcmc,
    format_rate_ratio,
    precision_summary,
    rate_ratio,
    risk_exceedance,
)

grid = make_lattice(12, 12)
n = grid.n_areas
rng = np.random.default_rng(3)

ice = 0.8 * np.tanh(sample_icar(grid, 1.0, rng) / 1.2)
factor = sample_icar(grid, 0.5, rng)
offsets = np.full(n, 250.0)
delta_true = sample_icar(grid, 0.3, rng)

truth_spec = SvcModelSpec(
    rung="M4", covariate=ice, offsets=offsets, latent_factors=factor[:, None]
)
truth = SvcModelState(
    beta=np.array([0.05, -0.7, 0.35]),
    phi=rng.standard_normal(n) * 0.1,
    v=IcarField(grid, sample_icar(grid, 0.05, rng)),
    delta=IcarField(grid, delta_true),
    tau_phi=100.0, tau_v=20.0, tau_delta=1 / 0.3,
)
counts = simulate_stage2(grid, truth_spec, truth, seed=4, n_suppressed=6)
print(f"simulated counts, {np.isnan(counts).sum()} suppressed areas kept in the graph")

config = McmcConfig(n_chains=2, n_iter=8000, burn_in=3000, thin=5, seed=5)
fits = {}
print("\nrung  DIC        WAIC")
for rung in ("M1", "M2", "M3", "M4"):
    spec = SvcModelSpec(
        rung=rung, covariate=ice, offsets=offsets,
        latent_factors=None if rung == "M1" else factor[:, None],
    )
    archive = fit_stage2_mcmc(spec, counts, grid, config)
    fits[rung] = (spec, archive)
    print(
        f"{rung}   {compute_dic(archive, spec, counts):9.1f}  "
        f"{compute_waic(archive, spec, counts):9.1f}"
    )

spec4, archive4 = fits["M4"]
rr = rate_ratio(archive4.get("beta", 1))
print("\nsegregation effect:", format_rate_ratio(rr, label="beta"))

delta_hat = archive4.get("delta").mean(axis=0)
print(f"corr(posterior mean delta, truth) = {np.corrcoef(delta_hat, delta_true)[0, 1]:.3f}")
for name in ("tau_phi", "tau_v", "tau_delta"):
    s = precision_summary(archive4, name)
    print(f"{name}: mean {s['mean']:6.2f}  mode {s['mode']:6.2f}")

probs = risk_exceedance(archive4, spec4, thresholds=(1.25, 1.5, 2.0))
print("areas with P(RR > t) > 0.8:", (probs > 0.8).sum(axis=0), "for t = 1.25, 1.5, 2")

taus = {"tau_phi": 100.0, "tau_v": 20.0, "tau_delta": 1 / 0.3}
laplace = fit_stage2_laplace(spec4, counts, grid, taus)
beta_mcmc = archive4.get("beta").mean(axis=0)
print(
    "\nLaplace-mode fixed effects vs MCMC means:",
    np.round(laplace.state.beta, 3), "vs", np.round(beta_mcmc, 3),
)
