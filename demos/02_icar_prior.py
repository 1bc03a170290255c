"""The intrinsic CAR prior and its constrained Gibbs machinery.

Shows the two equivalent log-density forms, the single-site conditional,
exact constrained sampling, and how the colour-class Gibbs sweep followed
by per-component centering behaves in the prior-dominated and
data-dominated limits.
"""

import numpy as np

from arealbayes import IcarField, icar_logdensity_unnormalized
from arealbayes.icar import center_by_component, gibbs_sweep_values, precision_matrix
from arealbayes.simulate import make_lattice, sample_icar

rng = np.random.default_rng(42)
grid = make_lattice(6, 6)
n = grid.n_areas

field = IcarField(grid, sample_icar(grid, 1.0, rng), variance=1.0)

# pairwise-difference form vs quadratic form x' Q x
q = precision_matrix(grid)
pairwise = icar_logdensity_unnormalized(field)
quadform = -n * np.log(1.0) - field.values @ q @ field.values / 2.0
print(f"log density (pairwise) = {pairwise:.10f}")
print(f"log density (x'Qx)     = {quadform:.10f}")

# the conditional of an interior site given its neighbours, by completing
# the square in x' Q x: mean sum_j w_ij x_j / w_i+, variance sigma^2 / w_i+
site, x = 14, field.values
mean = (q[site, site] * x[site] - q[site] @ x) / q[site, site]
var = field.variance / q[site, site]
print(f"\nsite {site} conditional: N({mean:.3f}, {var:.3f})  (degree {grid.degree(site)})")


def sweep_then_center(values, variance, lik_precision, lik_weighted_mean):
    """One Gibbs sweep, a colour class at a time, then centering per component."""
    values = values.copy()
    gibbs_sweep_values(
        values, grid, variance, lik_precision, lik_weighted_mean, rng.standard_normal(n)
    )
    return center_by_component(values, grid)[0]


# prior-dominated limit: no data, tiny variance -> field flattens to zero
flat = rng.standard_normal(n)
zeros = np.zeros(n)
for _ in range(50):
    flat = sweep_then_center(flat, 1e-10, zeros, zeros)
print(f"\nprior-dominated sweeps: max|field| = {np.max(np.abs(flat)):.2e}")

# data-dominated limit: huge precision pins the field to centered targets
targets = rng.standard_normal(n)
prec = np.full(n, 1e12)
pinned = sweep_then_center(np.zeros(n), 1.0, prec, prec * targets)
err = np.max(np.abs(pinned - (targets - targets.mean())))
print(f"data-dominated sweep:   max|field - centered targets| = {err:.2e}")

# every draw respects the per-component sum-to-zero constraint
print(f"component sums after sweep: {IcarField(grid, pinned).component_sums()}")
