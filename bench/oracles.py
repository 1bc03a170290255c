"""Independent computations the workload checks compare against.

None of these call the package: they work from the benchmark's own edge
lists, dense matrices and plain CSV parses, so a faster program that
computes a wrong answer does not pass.
"""

from __future__ import annotations

import csv
import math
from collections import defaultdict

import numpy as np
from scipy import special, stats


def ess_geyer(chains) -> float:
    """Effective sample size summed over chains, Geyer's initial monotone
    sequence on the FFT autocorrelation of each chain.

    The benchmark keeps its own estimator so that its ESS figures keep one
    definition when the package's diagnostics change.
    """
    total = 0.0
    for x in chains:
        x = np.asarray(x, dtype=float)
        n = len(x)
        x = x - x.mean()
        if not np.any(x):
            continue
        size = 1 << (2 * n - 1).bit_length()
        f = np.fft.rfft(x, size)
        acov = np.fft.irfft(f * np.conj(f), size)[:n]
        rho = acov / acov[0]
        pairs = rho[: n - n % 2].reshape(-1, 2).sum(axis=1)
        stop = np.flatnonzero(pairs <= 0.0)
        pairs = pairs[: stop[0]] if len(stop) else pairs
        pairs = np.minimum.accumulate(pairs)
        tau = max(-1.0 + 2.0 * pairs.sum(), 1.0 / n)
        total += n / tau
    return total


def min_ess(per_chain: dict[str, list[np.ndarray]]) -> float:
    """Smallest ESS over named scalar series, each a list of per-chain arrays."""
    return min(ess_geyer(chains) for chains in per_chain.values())


def poisson_dic_waic(theta: np.ndarray, y: np.ndarray, offsets: np.ndarray) -> tuple[float, float]:
    """DIC and WAIC from predictor draws with ``scipy.stats.poisson.logpmf``.

    ``theta`` is (draws, areas); areas with NaN ``y`` are left out.
    """
    obs = np.isfinite(y)
    t = theta[:, obs]
    yo, eo = y[obs], offsets[obs]
    ll = stats.poisson.logpmf(yo[None, :], eo[None, :] * np.exp(t))
    dbar = float(np.mean(-2.0 * ll.sum(axis=1)))
    dhat = -2.0 * float(stats.poisson.logpmf(yo, eo * np.exp(t.mean(axis=0))).sum())
    s = ll.shape[0]
    lppd = float(np.sum(special.logsumexp(ll, axis=0) - math.log(s)))
    p_waic = float(np.sum(np.var(ll, axis=0, ddof=1)))
    return 2.0 * dbar - dhat, -2.0 * (lppd - p_waic)


def dense_weights(n: int, edges) -> np.ndarray:
    W = np.zeros((n, n))
    for i, j, w in edges:
        W[i, j] = W[j, i] = w
    return W


def morans_dense(W: np.ndarray, x: np.ndarray) -> tuple[float, float]:
    """Moran's I and its variance under the normality null, from dense W."""
    n = len(x)
    z = x - x.mean()
    s0 = W.sum()
    stat = n / s0 * float(z @ W @ z) / float(z @ z)
    s1 = 0.5 * float(((W + W.T) ** 2).sum())
    s2 = float(((W.sum(axis=0) + W.sum(axis=1)) ** 2).sum())
    e = -1.0 / (n - 1)
    var = (n * n * s1 - n * s2 + 3.0 * s0 * s0) / (s0 * s0 * (n * n - 1.0)) - e * e
    return stat, var


def laplace_gradient(
    X: np.ndarray, y: np.ndarray, offsets: np.ndarray, Q_proper: np.ndarray,
    labels: np.ndarray, beta, phi, v, tau_phi: float, tau_v: float,
    beta_prior_variance: float = 1000.0,
) -> float:
    """Max-norm of the M3 log-posterior gradient at (beta, phi, v).

    The v block is projected onto the per-component sum-to-zero subspace;
    islands carry a proper prior and are not projected. Suppressed (NaN)
    counts contribute no likelihood.
    """
    theta = X @ beta + phi + v
    resid = np.where(np.isfinite(y), np.nan_to_num(y) - offsets * np.exp(theta), 0.0)
    g_beta = X.T @ resid - beta / beta_prior_variance
    g_phi = resid - tau_phi * phi
    g_v = resid - tau_v * (Q_proper @ v)
    sizes = np.bincount(labels)
    means = np.bincount(labels, weights=g_v) / sizes
    g_v = g_v - np.where(sizes[labels] > 1, means[labels], 0.0)
    return float(max(np.abs(g_beta).max(), np.abs(g_phi).max(), np.abs(g_v).max()))


def read_table(path) -> dict[str, list[str]]:
    """Plain CSV parse into columns of strings."""
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    header = rows[0]
    return {name: [r[k] for r in rows[1:] if r] for k, name in enumerate(header)}


def floats(cells) -> np.ndarray:
    return np.array([float(c) if c.strip() else np.nan for c in cells])


def read_archive_csv(path) -> dict[str, list[np.ndarray]]:
    """Plain CSV parse of a ``chain,iter,param,index,value`` archive.

    Returns, per parameter, one (draws, width) array per chain, draws in
    iteration order.
    """
    cells: dict[tuple[str, int], dict[tuple[int, int], float]] = defaultdict(dict)
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        next(reader)
        for chain, it, param, index, value in reader:
            cells[(param, int(chain))][(int(it), int(index))] = float(value)
    out: dict[str, list[np.ndarray]] = defaultdict(list)
    for (param, chain) in sorted(cells, key=lambda k: (k[0], k[1])):
        table = cells[(param, chain)]
        iters = sorted({it for it, _ in table})
        width = 1 + max(idx for _, idx in table)
        arr = np.empty((len(iters), width))
        pos = {it: s for s, it in enumerate(iters)}
        for (it, idx), value in table.items():
            arr[pos[it], idx] = value
        out[param].append(arr)
    return dict(out)
