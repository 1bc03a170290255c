"""Shared oracle utilities for the test suite.

Everything here is deliberately independent of the package's own
computation paths: dense matrices, double loops and grid quadrature only.
The exceptions are :func:`recording_pool`, a stand-in for the process
pool that the package's parallel paths share,
:func:`array_delta_scale_move`, which takes a chain's ``Q u`` from the
package's one ICAR product, and :func:`stage1_chain`, which builds the
stage-1 chain whose single updates the conditional tests draw.
"""

import math

import numpy as np

from arealbayes import factor, icar, mcmc, svc


def recording_pool(monkeypatch) -> list:
    """Replace the process pool behind ``mcmc.worker_map`` by one that runs
    ``map`` in this process; returns the list of pool sizes asked for."""
    sizes = []

    class Pool:
        def __init__(self, max_workers, mp_context=None):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(mcmc, "ProcessPoolExecutor", Pool)
    return sizes


def stage1_chain(state, panel, spec, rng):
    """A stage-1 chain at ``state`` (a ``FactorModelState``) on ``panel``
    that draws from ``rng``; each of its update methods draws one update."""
    return factor._Stage1Chain(
        rng, mcmc.McmcConfig(), (factor._PanelCache(panel), state.eta.graph, spec, state)
    )


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


def oracle_graph(edges, n_areas=None) -> dict:
    """Every array of a SpatialGraph, built the dict-and-list way.

    Edges go through a dict keyed by the sorted pair (the first weight
    listed is kept), Python neighbour lists sorted per area, a depth-first
    component search and the greedy colouring in ascending area order.
    Raises ``ValidationError`` with the package's messages for a self loop,
    a negative weight, conflicting weights and an index beyond ``n_areas``.
    """
    from scipy import sparse

    from arealbayes.errors import ValidationError

    pair_weights = {}
    max_idx = -1
    for edge in edges:
        i, j, w = (*edge, 1.0) if len(edge) == 2 else edge
        i, j, w = int(i), int(j), float(w)
        if i == j:
            raise ValidationError(f"self-loop on area {i} is not allowed")
        if w < 0:
            raise ValidationError(f"negative weight {w} on edge ({i}, {j})")
        key = (i, j) if i < j else (j, i)
        if key in pair_weights:
            if not math.isclose(pair_weights[key], w, rel_tol=1e-12, abs_tol=1e-12):
                raise ValidationError(
                    f"conflicting weights for edge {key}: {pair_weights[key]} vs {w}"
                )
        else:
            pair_weights[key] = w
        max_idx = max(max_idx, i, j)
    n = max_idx + 1 if n_areas is None else int(n_areas)
    if n_areas is not None and max_idx >= n:
        raise ValidationError(f"edge index {max_idx} out of range for n_areas={n}")
    if n < 0:
        raise ValidationError("n_areas must be nonnegative")

    nbrs = [[] for _ in range(n)]
    for (i, j), w in sorted(pair_weights.items()):
        if w != 0.0:
            nbrs[i].append((j, w))
            nbrs[j].append((i, w))
    nbrs = [sorted(row) for row in nbrs]
    degrees = np.array([len(row) for row in nbrs], dtype=np.int64)
    indptr = np.concatenate(([0], np.cumsum(degrees))).astype(np.int64)
    indices = np.array([j for row in nbrs for j, _ in row], dtype=np.int64)
    weights = np.array([w for row in nbrs for _, w in row], dtype=float)
    rows = np.repeat(np.arange(n), degrees)
    upper = indices > rows
    weight_sums = np.array([math.fsum(w for _, w in row) for row in nbrs], dtype=float)

    labels = np.full(n, -1, dtype=np.int64)
    n_components = 0
    for start in range(n):
        if labels[start] < 0:
            labels[start] = n_components
            stack = [start]
            while stack:
                for v, _ in nbrs[stack.pop()]:
                    if labels[v] < 0:
                        labels[v] = n_components
                        stack.append(v)
            n_components += 1

    colour = []
    for i, row in enumerate(nbrs):
        taken = {colour[j] for j, _ in row if j < i}
        colour.append(min(set(range(len(taken) + 1)) - taken))
    colour = np.array(colour, dtype=np.int64)
    classes = [np.flatnonzero(colour == c) for c in range(int(colour.max(initial=-1)) + 1)]
    W = sparse.csr_matrix((weights, indices, indptr), shape=(n, n))
    return dict(
        n_areas=n, indptr=indptr, indices=indices, weights=weights,
        edge_i=rows[upper], edge_j=indices[upper], edge_w=weights[upper],
        weight_sums=weight_sums, island_mask=degrees == 0,
        wplus_eff=np.where(degrees == 0, 1.0, weight_sums),
        component_labels=labels, n_components=n_components,
        component_sizes=np.bincount(labels, minlength=n_components),
        components=[np.flatnonzero(labels == c) for c in range(n_components)],
        colour_classes=classes, colour_blocks=[W[idx] for idx in classes],
    )


def oracle_read_adjacency(path) -> list:
    """``fileio.read_adjacency`` as a cell-by-cell loop over ``csv`` rows.

    Same messages in the same order: missing or empty file, header, then
    per row the column count, src, dst and weight cells and the integer
    check. A row with no cells or only blank cells is skipped and columns
    beyond the third are ignored. A NaN or infinite src or dst escapes as
    a raw ``ValueError`` or ``OverflowError`` from ``int``.
    """
    import csv
    from pathlib import Path

    from arealbayes.errors import SchemaError

    def number(lineno, column, cell):
        cell = cell.strip()
        if cell == "":
            raise SchemaError(f"{path}:{lineno}: column {column!r}: value required")
        try:
            return float(cell)
        except ValueError:
            raise SchemaError(
                f"{path}:{lineno}: column {column!r}: expected a number, got {cell!r}"
            ) from None

    if not Path(path).exists():
        raise SchemaError(f"{path}: file not found")
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows:
        raise SchemaError(f"{path}: empty file (header row is mandatory)")
    if [h.strip() for h in rows[0][:3]] != ["src", "dst", "weight"]:
        raise SchemaError(
            f"{path}:1: header must start with src,dst,weight, got {','.join(rows[0])}"
        )
    edges = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) < 3:
            raise SchemaError(f"{path}:{lineno}: expected 3 columns src,dst,weight")
        src = number(lineno, "src", row[0])
        dst = number(lineno, "dst", row[1])
        w = number(lineno, "weight", row[2])
        if src != int(src) or dst != int(dst):
            raise SchemaError(f"{path}:{lineno}: src and dst must be integers")
        edges.append((int(src), int(dst), w))
    return edges


def gaussian_m4_posterior_means(y, X, x, Q, noise_variance, shape, rate,
                                beta_prior_variance=1000.0, grid=np.arange(-7.0, 5.01, 0.25)):
    """Posterior means of (log tau_phi, log tau_v, log tau_delta) and beta
    of a Gaussian-likelihood M4 model, by quadrature over the log precisions.

    The model is y = X beta + phi + v + x * delta + noise, with beta iid
    N(0, beta_prior_variance), phi iid N(0, 1 / tau_phi), v and delta the
    per-component sum-to-zero ICAR fields of precision ``tau Q`` (Q without
    islands) and Gamma(shape, rate) precisions. Given the precisions y is
    N(0, S) with ``S = s^2 I + beta_prior_variance X X' + I / tau_phi
    + Q+ / tau_v + D_x Q+ D_x / tau_delta``, Q+ the pseudo-inverse of Q, and
    ``E[beta | y, tau] = beta_prior_variance X' S^-1 y``. The posterior of
    the log precisions is summed on the product ``grid`` of each.
    """
    n = len(y)
    cov_icar = np.linalg.pinv(Q)
    fixed = noise_variance * np.eye(n) + beta_prior_variance * X @ X.T
    parts = np.stack([np.eye(n), cov_icar, x[:, None] * cov_icar * x[None, :]])
    l2, l3 = (a.ravel() for a in np.meshgrid(grid, grid, indexing="ij"))
    log_post, stats = [], []
    for l1 in grid:
        logs = np.column_stack([np.full(len(l2), l1), l2, l3])
        S = fixed + np.tensordot(np.exp(-logs), parts, 1)
        L = np.linalg.cholesky(S)
        alpha = np.linalg.solve(S, y)
        logdet = 2.0 * np.log(np.diagonal(L, axis1=1, axis2=2)).sum(axis=1)
        # a Gamma(shape, rate) precision has log density shape l - rate e^l in l = log tau
        log_prior = (shape * logs - rate * np.exp(logs)).sum(axis=1)
        log_post.append(-0.5 * (logdet + alpha @ y) + log_prior)
        stats.append(np.hstack([logs, beta_prior_variance * alpha @ X]))
    log_post, stats = np.concatenate(log_post), np.vstack(stats)
    w = np.exp(log_post - log_post.max())
    return w @ stats / w.sum()


def batch_means_z(chains, expected, n_batches=50):
    """Batch-means z-score of the pooled mean of scalar draws (one array per
    chain, batches taken within each chain) against ``expected``."""
    per_chain = n_batches // len(chains)
    batches = np.concatenate([
        c[: len(c) // per_chain * per_chain].reshape(per_chain, -1).mean(axis=1) for c in chains
    ])
    se = batches.std(ddof=1) / math.sqrt(len(batches))
    return (batches.mean() - expected) / se


def _parity(perm) -> int:
    """Sign of a permutation: ``(-1) ** (length - number of cycles)``."""
    perm = list(perm)
    seen = [False] * len(perm)
    cycles = 0
    for start in range(len(perm)):
        if not seen[start]:
            cycles += 1
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
    return -1 if (len(perm) - cycles) % 2 else 1


def _bordered_lu(M, C):
    """``splu`` of ``[[M, C], [C', 0]]`` and log det of M on ``null(C')``:
    ``|det| = det(T' M T) * prod_c m_c`` with sign ``(-1)^k`` for k
    disjoint indicator columns of sizes m_c, when M is positive definite
    on ``null(C')``."""
    from scipy import sparse
    from scipy.sparse.linalg import splu

    k = C.shape[1]
    lu = splu(sparse.bmat([[M, C], [C.T, None]], format="csc"), permc_spec="MMD_AT_PLUS_A")
    diag = lu.U.diagonal()
    sign = np.prod(np.sign(diag)) * _parity(lu.perm_r) * _parity(lu.perm_c)
    if sign != (-1) ** k:
        raise RuntimeError("prior or curvature matrix is not positive definite")
    sizes = np.asarray(C.sum(axis=0)).ravel()
    return lu, float(np.sum(np.log(np.abs(diag))) - np.sum(np.log(sizes)))


def bordered_laplace_reference(spec, counts, graph, taus, max_newton=100, grad_tol=1e-9):
    """Poisson Laplace fit by the bordered-system algorithm, for reference.

    Newton on ``z = (beta, phi, v, delta)`` with one sparse LU of the whole
    bordered system ``[[H, C], [C', 0]]`` per step (C: one indicator column
    per multi-area component and ICAR block), the prior's
    ``[[Q, C], [C', 0]]`` for log det Q, and ``beta_sd`` from the inverse's
    fixed-effect rows. Returns a dict with ``beta``, ``phi``, ``v``,
    ``delta`` (None on rungs without them), ``beta_sd``, ``log_marginal``,
    ``gradient_norm`` and ``n_newton``.
    """
    from scipy import sparse, special, stats

    n, X = graph.n_areas, spec.fixed_design()
    K = X.shape[1]
    y = np.asarray(counts, dtype=float)
    obs = np.isfinite(y) & (spec.offsets > 0)
    y_obs, e_obs = y[obs], spec.offsets[obs]
    const = float(np.sum(y_obs * np.log(e_obs) - special.gammaln(y_obs + 1)))

    W = sparse.csr_matrix((graph.weights, graph.indices, graph.indptr), shape=(n, n))
    Q = (sparse.diags(np.where(graph.island_mask, 1.0, graph.weight_sums)) - W).tocsc()
    multi = [idx for idx in graph.components() if len(idx) > 1]

    def constraints(n_rows, starts):
        rows, cols = [], []
        for b, start in enumerate(starts):
            for c, idx in enumerate(multi):
                rows += (start + idx).tolist()
                cols += [b * len(multi) + c] * len(idx)
        return sparse.csc_matrix(
            (np.ones(len(rows)), (rows, cols)), shape=(n_rows, len(multi) * len(starts))
        )

    eye = sparse.identity(n, format="csr")
    blocks, priors = [sparse.csr_matrix(X)], [sparse.identity(K) / spec.beta_prior_variance]
    icar_taus = []
    logdet_p = K * math.log(1.0 / spec.beta_prior_variance)
    if spec.has_convolution:
        logdet_q = _bordered_lu(Q, constraints(n, [0]))[1]
        blocks += [eye, eye]
        priors += [taus["tau_phi"] * eye, taus["tau_v"] * Q]
        icar_taus.append(taus["tau_v"])
        logdet_p += n * math.log(taus["tau_phi"])
        if spec.has_svc:
            blocks.append(sparse.diags(spec.covariate))
            priors.append(taus["tau_delta"] * Q)
            icar_taus.append(taus["tau_delta"])
        for tau in icar_taus:
            logdet_p += (n - len(multi)) * math.log(tau) + logdet_q
    A = sparse.hstack(blocks, format="csr")
    P = sparse.block_diag(priors, format="csr")
    d = A.shape[1]
    C = constraints(d, K + n * np.arange(1, 1 + len(icar_taus)))
    C_sizes = np.asarray(C.sum(axis=0)).ravel()

    def objective(z):
        t = (A @ z)[obs]
        return float(y_obs @ t - e_obs @ np.exp(t)) + const - 0.5 * float(z @ (P @ z))

    z = np.zeros(d)
    z[0] = math.log(max(y_obs.sum(), 0.5) / e_obs.sum())
    obj = objective(z)
    for it in range(1, max_newton + 1):
        rate = np.where(obs, spec.offsets * np.exp(A @ z), 0.0)
        grad = A.T @ np.where(obs, y - rate, 0.0) - P @ z
        grad_norm = float(np.max(np.abs(grad - C @ ((C.T @ grad) / C_sizes))))
        lu, logdet_h = _bordered_lu((A.T @ sparse.diags(rate) @ A + P).tocsc(), C)
        if grad_norm < grad_tol:
            break
        step = lu.solve(np.concatenate([grad, np.zeros(C.shape[1])]))[:d]
        t = 1.0
        for _ in range(51):
            cand_obj = objective(z + t * step)
            if np.isfinite(cand_obj) and cand_obj >= obj - 1e-9 * (1.0 + abs(obj)):
                break
            t *= 0.5
        else:
            raise RuntimeError("Newton step failed after 50 halvings")
        z, obj = z + t * step, cand_obj
    else:
        raise RuntimeError("Newton did not converge")

    log_marginal = obj + 0.5 * logdet_p - 0.5 * logdet_h
    a, b = spec.precision_prior_shape, spec.precision_prior_rate
    names = (["tau_phi", "tau_v"] if spec.has_convolution else []) + (
        ["tau_delta"] if spec.has_svc else [])
    for name in names:
        log_marginal += float(stats.gamma.logpdf(taus[name], a, scale=1.0 / b))
    fields = z[K:].reshape(-1, n)
    return dict(
        beta=z[:K],
        phi=fields[0] if spec.has_convolution else None,
        v=fields[1] if spec.has_convolution else None,
        delta=fields[2] if spec.has_svc else None,
        beta_sd=np.sqrt(np.diag(lu.solve(np.eye(d + C.shape[1], K))[:K])),
        log_marginal=log_marginal,
        gradient_norm=grad_norm,
        n_newton=it,
    )


def array_delta_scale_move(chain, name, log_s, log_u) -> float:
    """The "delta" or "ridge" scale move of a stage-2 M4 chain made on its
    arrays, for reference: the move's w, u, r and products are formed from
    the current state and the shifts are applied at once.

    With ``w = x delta`` and ``t = s - 1``, both scale delta by s and
    tau_delta by ``1 / s^2``; "delta" moves phi by ``-t w``, "ridge" moves
    v by ``-t u`` (w centred per component), b0 by ``-t mean(w)`` and phi
    by ``-t r`` (the spread of w's component means). Taken when ``log_u``
    is below the log ratio, which it returns; ``|log_s|`` past
    ``svc.MAX_LOG_SCALE`` is rejected outright.
    """
    if abs(log_s) > svc.MAX_LOG_SCALE:
        return -math.inf
    fields, taus, beta, spec = chain.fields, chain.taus, chain.beta, chain.spec
    phi, v, delta = fields["phi"], fields["v"], fields["delta"]
    w = spec.covariate * delta
    tau_phi = taus["tau_phi"]
    mean = 0.0
    if name == "ridge":
        labels = chain.graph.component_labels
        means = np.bincount(labels, weights=w) / np.bincount(labels)
        u = w - means[labels]
        qu = icar._precision_product(chain.graph, u)
        mean = float(w.sum()) / len(w)
        prec = 1.0 / spec.beta_prior_variance
        quad = taus["tau_v"] * float(u @ qu) + prec * mean * mean
        lin = taus["tau_v"] * float(qu @ v) + prec * mean * float(beta[0])
        shifts = [(v, u)]
        if len(means) > 1:
            spread = means[labels] - mean
            quad += tau_phi * float(spread @ spread)
            lin += tau_phi * float(spread @ phi)
            shifts.append((phi, spread))
    else:
        quad, lin = tau_phi * float(w @ w), tau_phi * float(w @ phi)
        shifts = [(phi, w)]
    t = math.expm1(log_s)
    logr = (-0.5 * t * t * quad + t * lin + chain.scale_power * log_s
            - spec.precision_prior_rate * taus["tau_delta"] * math.expm1(-2.0 * log_s))
    if log_u < logr:
        for block, shift in shifts:
            block -= t * shift
        beta[0] -= t * mean
        delta *= math.exp(log_s)
        taus["tau_delta"] *= math.exp(-2.0 * log_s)
    return logr
