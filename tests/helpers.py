"""Shared oracle utilities for the test suite.

Everything here is deliberately independent of the package's own
computation paths: dense matrices, double loops and grid quadrature only.
"""

import math

import numpy as np


def dense_morans_i(W: np.ndarray, x: np.ndarray) -> float:
    """Double-loop Moran's I from a dense weight matrix."""
    n = len(x)
    z = x - x.mean()
    s0 = 0.0
    num = 0.0
    for i in range(n):
        for j in range(n):
            s0 += W[i, j]
            num += W[i, j] * z[i] * z[j]
    return (n / s0) * num / float(z @ z)


def grid_logpdf_to_cdf(logpdf, lo, hi, n=20001):
    """Normalised CDF of an unnormalised log density by trapezoid rule."""
    xs = np.linspace(lo, hi, n)
    logp = np.array([logpdf(x) for x in xs])
    p = np.exp(logp - logp.max())
    cdf = np.concatenate([[0.0], np.cumsum((p[1:] + p[:-1]) / 2.0 * np.diff(xs))])
    cdf /= cdf[-1]
    return xs, cdf


def grid_moments(logpdf, lo, hi, n=20001):
    """Mean and variance of an unnormalised log density on a grid."""
    xs = np.linspace(lo, hi, n)
    logp = np.array([logpdf(x) for x in xs])
    p = np.exp(logp - logp.max())
    z = np.trapezoid(p, xs)
    mean = np.trapezoid(xs * p, xs) / z
    var = np.trapezoid((xs - mean) ** 2 * p, xs) / z
    return mean, var


def ks_statistic(draws, xs, cdf):
    """Kolmogorov-Smirnov distance of draws against a gridded CDF."""
    draws = np.sort(np.asarray(draws))
    f = np.interp(draws, xs, cdf)
    n = len(draws)
    ecdf_hi = np.arange(1, n + 1) / n
    ecdf_lo = np.arange(0, n) / n
    return float(max(np.max(np.abs(ecdf_hi - f)), np.max(np.abs(f - ecdf_lo))))


def random_connected_graph(rng, n, extra_edges=3):
    """Random spanning tree plus a few extra edges, unit weights."""
    edges = []
    order = rng.permutation(n)
    for k in range(1, n):
        j = order[k]
        i = order[rng.integers(0, k)]
        edges.append((int(i), int(j), 1.0))
    have = {(min(i, j), max(i, j)) for i, j, _ in edges}
    tries = 0
    while extra_edges > 0 and tries < 100:
        i, j = rng.integers(0, n, size=2)
        key = (min(int(i), int(j)), max(int(i), int(j)))
        tries += 1
        if i != j and key not in have:
            edges.append((key[0], key[1], 1.0))
            have.add(key)
            extra_edges -= 1
    return edges


def gaussian_moments_z(draws, mean, cov, edge_i, edge_j, n_batches=100):
    """Batch-means z-scores of per-site means and variances and of the
    covariances of adjacent pairs, against the closed-form moments."""
    d = draws - mean
    stats = np.hstack([draws, d * d, d[:, edge_i] * d[:, edge_j]])
    expected = np.concatenate([mean, np.diag(cov), cov[edge_i, edge_j]])
    usable = len(stats) // n_batches * n_batches
    batches = stats[:usable].reshape(n_batches, -1, stats.shape[1]).mean(axis=1)
    se = batches.std(axis=0, ddof=1) / math.sqrt(n_batches)
    return (batches.mean(axis=0) - expected) / se
