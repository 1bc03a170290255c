"""Input generators for the benchmark workloads.

Everything here is independent of ``arealbayes.simulate`` and of the
sampler code: graphs are plain edge lists, ICAR draws come from the
benchmark's own dense precision matrix, and the CLI inputs are written as
CSV with the standard library. The program under test only ever sees the
generated inputs.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np
from scipy import linalg
from scipy.spatial import Delaunay


def lattice_edges(rows: int, cols: int) -> list[tuple[int, int, float]]:
    """Rook-contiguity edges of a row-major lattice, unit weights."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            if c + 1 < cols:
                edges.append((i, i + 1, 1.0))
            if r + 1 < rows:
                edges.append((i, i + cols, 1.0))
    return edges


def dense_precision(n: int, edges, island_proper: bool = False) -> np.ndarray:
    """``Q = diag(w_+) - W`` from an edge list; islands get 1 if proper."""
    Q = np.zeros((n, n))
    for i, j, w in edges:
        Q[i, j] -= w
        Q[j, i] -= w
        Q[i, i] += w
        Q[j, j] += w
    if island_proper:
        iso = np.flatnonzero(np.diag(Q) == 0.0)
        Q[iso, iso] = 1.0
    return Q


def component_labels(n: int, edges) -> np.ndarray:
    """Connected-component label per area by union-find over the edges."""
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j, _ in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    roots = np.array([find(a) for a in range(n)])
    _, labels = np.unique(roots, return_inverse=True)
    return labels


def icar_draw(Q: np.ndarray, labels: np.ndarray, variance: float, rng) -> np.ndarray:
    """Exact draw from the ICAR prior constrained to sum to zero per component.

    For a component of size m >= 2 with precision block ``Q_c``, the matrix
    ``A = Q_c + 11'/m`` is positive definite and ``A^-1 = Q_c^+ + 11'/m``;
    a draw from ``N(0, A^-1)`` minus its mean is a draw from ``N(0, Q_c^+)``.
    Islands get independent ``N(0, variance)`` draws.
    """
    x = np.empty(len(labels))
    for c in range(labels.max() + 1):
        idx = np.flatnonzero(labels == c)
        m = len(idx)
        if m == 1:
            x[idx] = rng.standard_normal()
            continue
        A = Q[np.ix_(idx, idx)] + 1.0 / m
        L = linalg.cholesky(A, lower=True)
        z = linalg.solve_triangular(L.T, rng.standard_normal(m), lower=False)
        x[idx] = z - z.mean()
    return x * np.sqrt(variance)


# ---------------------------------------------------------------------------
# m4-lattice


M4_DATA_SEED = 622


def m4_inputs(rows: int = 15, cols: int = 15) -> dict:
    """Criterion-06-shaped stage-2 data on a rook lattice.

    Smooth covariate in (-0.9, 0.9), one ICAR factor, offsets of 300 and
    a true delta drawn from an ICAR. The data seed is a constant: see the
    README for why this workload does not vary with ``--seed``.
    """
    n = rows * cols
    edges = lattice_edges(rows, cols)
    Q = dense_precision(n, edges)
    labels = np.zeros(n, dtype=int)
    rng = np.random.default_rng(M4_DATA_SEED)
    x = 0.9 * np.tanh(icar_draw(Q, labels, 1.0, rng) / 1.2)
    factor = icar_draw(Q, labels, 0.5, rng)
    delta = icar_draw(Q, labels, 0.35, rng)
    v = icar_draw(Q, labels, 0.04, rng)
    phi = rng.standard_normal(n) * 0.1
    beta = np.array([0.1, -0.8, 0.4])
    offsets = np.full(n, 300.0)
    theta = beta[0] + beta[1] * x + beta[2] * factor + v + phi + x * delta
    counts = rng.poisson(offsets * np.exp(theta)).astype(float)
    return dict(
        n=n, edges=edges, x=x, factor=factor, delta=delta, beta=beta,
        offsets=offsets, counts=counts,
    )


# ---------------------------------------------------------------------------
# county-map

COUNTY_REGIONS = (762, 60, 40, 30)
COUNTY_ISLANDS = 8
LOADINGS = np.array([1.0, 1.2, -0.8, 1.5, 0.5])


def county_graph(rng) -> tuple[int, list[tuple[int, int, float]]]:
    """Irregular weighted planar map: Delaunay regions plus islands.

    Each region is the Delaunay triangulation of uniform points in its own
    unit square, so regions are separate connected components; weights
    stand in for shared-border lengths. Area numbers are shuffled so
    components interleave in index order, as county codes do.
    """
    edges = []
    base = 0
    for k, m in enumerate(COUNTY_REGIONS):
        pts = rng.random((m, 2)) + np.array([2.0 * k, 0.0])
        pairs = set()
        for s in Delaunay(pts).simplices:
            for a, b in ((s[0], s[1]), (s[1], s[2]), (s[0], s[2])):
                pairs.add((min(a, b) + base, max(a, b) + base))
        edges += [(i, j, round(float(rng.uniform(0.2, 2.0)), 3)) for i, j in sorted(pairs)]
        base += m
    n = base + COUNTY_ISLANDS
    perm = rng.permutation(n)
    return n, [(int(perm[i]), int(perm[j]), w) for i, j, w in edges]


COUNTY_MAP_SEED = 900


def county_inputs(seed: int) -> dict:
    """About 900 areas: several components, islands, 3% missing cells,
    and a few suppressed counts for the M3 empirical-Bayes grid.

    The map, the latent field and the indicator panel come from a constant
    seed, as an analyst's county map and indicator table are fixed, so the
    stage-1 fit whose ESS is measured sees the same data on every run (see
    the README); the covariate, the expected and observed counts and the
    suppressed areas come from ``seed``.
    """
    map_rng = np.random.default_rng(COUNTY_MAP_SEED)
    n, edges = county_graph(map_rng)
    Q = dense_precision(n, edges)
    labels = component_labels(n, edges)
    eta = icar_draw(Q, labels, 1.0, map_rng)
    noise = map_rng.standard_normal((n, len(LOADINGS))) * 0.5
    values = eta[:, None] * LOADINGS[None, :] + noise
    values[map_rng.random(values.shape) < 0.03] = np.nan

    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    x = 0.8 * np.tanh(icar_draw(Q, labels, 1.0, rng) / 2.0)
    v = icar_draw(Q, labels, 0.1, rng)
    phi = rng.standard_normal(n) * np.sqrt(0.05)
    offsets = rng.uniform(20.0, 200.0, n)
    theta = 0.1 - 0.5 * x + 0.3 * eta + v + phi
    counts = rng.poisson(offsets * np.exp(theta)).astype(float)
    counts[rng.choice(n, size=9, replace=False)] = np.nan
    return dict(
        n=n, edges=edges, labels=labels, eta=eta, values=values, x=x,
        offsets=offsets, counts=counts,
    )


ISLAND_PROBE_SEED = 4242


def island_probe_inputs() -> dict:
    """Fixed small map for the island-policy check: 6x6 lattice + 4 islands."""
    rng = np.random.default_rng(ISLAND_PROBE_SEED)
    n = 40
    edges = lattice_edges(6, 6)
    Q = dense_precision(n, edges)
    labels = component_labels(n, edges)
    eta = icar_draw(Q, labels, 1.0, rng)
    loadings = np.array([1.0, 0.8, -1.2])
    values = eta[:, None] * loadings[None, :] + rng.standard_normal((n, 3)) * 0.6
    return dict(n=n, edges=edges, labels=labels, values=values)


# ---------------------------------------------------------------------------
# cli-pipeline

CLI_ROWS = CLI_COLS = 10
STRATA = ("age_0_64", "age_65_plus")
RATES = np.array([0.012, 0.035])


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(["" if isinstance(c, float) and np.isnan(c) else
                             repr(float(c)) if isinstance(c, (float, np.floating)) else c
                             for c in row])


CLI_PANEL_SEED = 77


def cli_inputs(seed: int, outdir: Path) -> dict:
    """Raw CSVs for the CLI chain on a connected 10x10 map.

    Five raw-scale indicators with about 3% missing cells, five group
    (state) bands, ICE extremes, two-stratum populations and deaths drawn
    from an M4 truth, and a reference-rate file. The latent field and the
    indicator panel come from a constant seed, so the stage-1 fit whose
    ESS is measured sees the same data on every run (see the README); the
    segregation index, populations and deaths come from ``seed``.
    """
    n = CLI_ROWS * CLI_COLS
    edges = lattice_edges(CLI_ROWS, CLI_COLS)
    Q = dense_precision(n, edges)
    labels = np.zeros(n, dtype=int)
    ids = [f"a{i:03d}" for i in range(n)]
    groups = [f"state{i // (2 * CLI_COLS)}" for i in range(n)]

    panel_rng = np.random.default_rng(CLI_PANEL_SEED)
    eta = icar_draw(Q, labels, 1.0, panel_rng)
    raw = eta[:, None] * LOADINGS[None, :] + panel_rng.standard_normal((n, 5)) * 0.5
    raw = 10.0 * (1 + np.arange(5))[None, :] + (2.0 + np.arange(5))[None, :] * raw
    raw[panel_rng.random(raw.shape) < 0.03] = np.nan

    rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
    ice = 0.8 * np.tanh(icar_draw(Q, labels, 1.0, rng) / 2.0)
    total = np.full(n, 1000.0)
    privileged = total * (1.0 + ice) / 2.0
    deprived = total * (1.0 - ice) / 2.0

    pop = np.column_stack([
        np.round(rng.uniform(300, 700, n)), np.round(rng.uniform(200, 500, n)),
    ])
    theta = (-0.8 * ice + 0.4 * eta + icar_draw(Q, labels, 0.1, rng)
             + rng.standard_normal(n) * np.sqrt(0.05)
             + ice * icar_draw(Q, labels, 0.09, rng))
    deaths = rng.poisson(np.exp(theta)[:, None] * pop * RATES[None, :]).astype(float)

    outdir.mkdir(parents=True, exist_ok=True)
    _write_csv(outdir / "adjacency.csv", ("src", "dst", "weight"), edges)
    _write_csv(outdir / "areas.csv", ("area_id", "name", "group"),
               zip(ids, [f"cell_{i}" for i in range(n)], groups))
    _write_csv(outdir / "indicators_raw.csv", ["area_id"] + [f"ind{k + 1}" for k in range(5)],
               ([ids[i]] + list(raw[i]) for i in range(n)))
    _write_csv(outdir / "extremes.csv", ("area_id", "privileged", "deprived", "total"),
               zip(ids, privileged, deprived, total))
    _write_csv(outdir / "strata.csv", ("area_id", "stratum", "population", "deaths"),
               ([ids[i], STRATA[s], pop[i, s], deaths[i, s]] for i in range(n) for s in range(2)))
    _write_csv(outdir / "rates.csv", ("stratum", "rate"), zip(STRATA, RATES))
    return dict(n=n, ids=ids, pop=pop, deaths=deaths, ice=ice)
