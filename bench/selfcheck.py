"""Checks of the benchmark itself.

    python3 bench/selfcheck.py

Each oracle is compared with a case computed by hand, and each workload
check is shown to pass on a good output and to fail on a deliberately
corrupted one. Exits 1 if any expectation does not hold. Takes about a
minute: the county-map grid check runs the real Laplace grid once.
"""

from __future__ import annotations

import math
import shutil
import sys
import tempfile
from pathlib import Path

import run

run.import_package()

import numpy as np  # noqa: E402

import gen  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402
from arealbayes import graph, svc  # noqa: E402
from arealbayes.mcmc import ChainArchive, McmcConfig  # noqa: E402

RESULTS: list[tuple[str, bool]] = []


def expect(name: str, ok) -> None:
    RESULTS.append((name, bool(ok)))
    print(f"{'ok  ' if ok else 'FAIL'} {name}")


def archive_of(chains: list[dict]) -> ChainArchive:
    draws = len(next(iter(chains[0].values())))
    config = McmcConfig(n_chains=len(chains), n_iter=2 * draws, burn_in=draws, thin=1, seed=0)
    return ChainArchive(chains, config.retained_iterations(), config)


def center(x, labels):
    sizes = np.bincount(labels)
    means = np.bincount(labels, weights=x) / sizes
    return x - np.where(sizes[labels] > 1, means[labels], 0.0)


# ---------------------------------------------------------------------------
# oracles against hand-computed cases


def check_oracles(tmp: Path) -> None:
    Q = gen.dense_precision(4, [(0, 1, 1.0), (1, 2, 2.0)], island_proper=True)
    expect("dense_precision: path with weights 1, 2 plus a proper island",
           np.array_equal(Q, [[1, -1, 0, 0], [-1, 3, -2, 0], [0, -2, 2, 0], [0, 0, 0, 1]]))
    expect("component_labels: two pairs and an island",
           list(gen.component_labels(5, [(0, 1, 1.0), (3, 2, 1.0)])) == [0, 0, 1, 1, 2])

    # two areas joined by one edge: x = (a, -a) with var(a) = Q^+_00 * sigma^2 = 0.25 * 2
    rng = np.random.default_rng(0)
    Q2, labels = gen.dense_precision(3, [(0, 1, 1.0)]), np.array([0, 0, 1])
    draws = np.array([gen.icar_draw(Q2, labels, 2.0, rng) for _ in range(20000)])
    expect("icar_draw: pair sums to zero", np.abs(draws[:, 0] + draws[:, 1]).max() < 1e-12)
    expect("icar_draw: pair variance 0.5 within 4%", abs(draws[:, 0].var() / 0.5 - 1) < 0.04)
    expect("icar_draw: island variance 2 within 4%", abs(draws[:, 2].var() / 2.0 - 1) < 0.04)

    # alternating chain: rho = 1, -3/4, 1/2, -1/4; pair sums 1/4, 1/4; tau floored at 1/n
    expect("ess_geyer: alternating [1,-1,1,-1] gives 16",
           math.isclose(oracles.ess_geyer([np.array([1.0, -1, 1, -1])]), 16.0))
    expect("ess_geyer: constant chain contributes 0", oracles.ess_geyer([np.ones(10)]) == 0.0)
    ar = np.empty(100_000)
    ar[0] = 0.0
    noise = rng.standard_normal(len(ar))
    for t in range(1, len(ar)):
        ar[t] = 0.9 * ar[t - 1] + noise[t]
    expect("ess_geyer: AR(1) rho 0.9 within 15% of N(1-rho)/(1+rho)",
           abs(oracles.ess_geyer([ar]) / (len(ar) * 0.1 / 1.9) - 1) < 0.15)

    theta = np.array([[0.0, 0.1, -0.2], [0.1, 0.0, -0.1], [-0.1, 0.2, 0.0], [0.2, -0.1, 0.1]])
    e, y = np.array([10.0, 15.0, 20.0]), np.array([11.0, 13.0, 21.0])
    ll = [[y[i] * math.log(e[i] * math.exp(theta[s, i])) - e[i] * math.exp(theta[s, i])
           - math.lgamma(y[i] + 1) for i in range(3)] for s in range(4)]
    dbar = sum(-2 * sum(row) for row in ll) / 4
    tbar = theta.mean(axis=0)
    dhat = -2 * sum(y[i] * math.log(e[i] * math.exp(tbar[i])) - e[i] * math.exp(tbar[i])
                    - math.lgamma(y[i] + 1) for i in range(3))
    lppd = sum(math.log(sum(math.exp(ll[s][i]) for s in range(4)) / 4) for i in range(3))
    pw = sum(np.var([ll[s][i] for s in range(4)], ddof=1) for i in range(3))
    dic, waic = oracles.poisson_dic_waic(theta, y, e)
    expect("poisson_dic_waic: DIC of the 3-area toy", math.isclose(dic, 2 * dbar - dhat, rel_tol=1e-12))
    expect("poisson_dic_waic: WAIC of the 3-area toy", math.isclose(waic, -2 * (lppd - pw), rel_tol=1e-12))

    # 4-cycle, x = (1,0,1,0): every edge joins opposite deviations, I = -1;
    # S0 = 8, S1 = 16, S2 = 64, so var = 192/960 - 1/9
    W = oracles.dense_weights(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)])
    stat, var = oracles.morans_dense(W, np.array([1.0, 0.0, 1.0, 0.0]))
    expect("morans_dense: 4-cycle statistic -1", math.isclose(stat, -1.0))
    expect("morans_dense: 4-cycle variance 0.2 - 1/9", math.isclose(var, 0.2 - 1 / 9))

    # two joined areas: residual (2, 0) at theta = 0 -> beta grad (2, 2), max 2
    Qp = gen.dense_precision(2, [(0, 1, 1.0)], island_proper=True)
    X = np.array([[1.0, 1.0], [1.0, -1.0]])
    g = oracles.laplace_gradient(X, np.array([3.0, np.nan]), np.ones(2), Qp, np.zeros(2, int),
                                 np.zeros(2), np.zeros(2), np.zeros(2), 1.0, 1.0)
    expect("laplace_gradient: suppressed area carries no likelihood (max 2)", math.isclose(g, 2.0))
    # zero residuals; v = (0.5, -0.5, 2) with area 2 an island: Qv = (1, -1, 2);
    # the pair's gradient (-1, 1) is already centred, the island's -2 is not projected
    Qp3 = gen.dense_precision(3, [(0, 1, 1.0)], island_proper=True)
    v = np.array([0.5, -0.5, 2.0])
    g = oracles.laplace_gradient(np.ones((3, 1)), np.exp(v), np.ones(3), Qp3, np.array([0, 0, 1]),
                                 np.zeros(1), np.zeros(3), v, 1.0, 1.0)
    expect("laplace_gradient: island is not projected (max 2)", math.isclose(g, 2.0))
    # residuals (1, 1, 0) balanced by phi = (1, 1, 0) at tau_phi = 1 and no
    # fixed effects: only the v block is left, (1, 1, 0), whose pair mean
    # the projection removes
    phi = np.array([1.0, 1.0, 0.0])
    g = oracles.laplace_gradient(np.zeros((3, 1)), np.exp(phi) + phi, np.ones(3), Qp3,
                                 np.array([0, 0, 1]), np.zeros(1), phi, np.zeros(3), 1.0, 1.0)
    expect("laplace_gradient: component mean is projected out (max 0)", abs(g) < 1e-12)

    path = tmp / "toy_archive.csv"
    path.write_text("chain,iter,param,index,value\n"
                    "0,2,beta,0,1.5\n0,2,beta,1,-2.0\n0,4,beta,0,2.5\n0,4,beta,1,-1.0\n"
                    "0,2,tau,0,3.0\n0,4,tau,0,4.0\n"
                    "1,2,beta,0,0.5\n1,2,beta,1,0.25\n1,4,beta,0,-0.5\n1,4,beta,1,0.75\n"
                    "1,2,tau,0,5.0\n1,4,tau,0,6.0\n")
    parsed = oracles.read_archive_csv(path)
    expect("read_archive_csv: per-chain (draws, width) arrays",
           np.array_equal(parsed["beta"][0], [[1.5, -2.0], [2.5, -1.0]])
           and np.array_equal(parsed["beta"][1], [[0.5, 0.25], [-0.5, 0.75]])
           and np.array_equal(parsed["tau"][1], [[5.0], [6.0]]))
    table = oracles.read_table(path)
    expect("read_table: columns of strings", table["param"][:2] == ["beta", "beta"]
           and list(oracles.floats(table["value"][:2])) == [1.5, -2.0])


# ---------------------------------------------------------------------------
# workload checks: pass on good output, fail on corrupted output


def check_m4(tmp: Path) -> None:
    w = workloads.M4Lattice()
    w.setup(1, tmp)
    d, rng = w.d, np.random.default_rng(1)
    n = d["n"]

    def chain():
        return {
            "beta": d["beta"] + 0.01 * rng.standard_normal((300, 3)),
            "phi": 0.05 * rng.standard_normal((300, n)),
            "v": np.array([center(0.1 * rng.standard_normal(n), w.labels) for _ in range(300)]),
            "delta": np.array([center(d["delta"] + 0.1 * rng.standard_normal(n), w.labels)
                               for _ in range(300)]),
        }

    good = [chain(), chain()]
    expect("m4 fit check passes a good archive", w.check_fit(archive_of(good)) == [])
    bad = [dict(c, beta=c["beta"] + 1.0) for c in good]
    expect("m4 fit check: beta intervals missing the truth", w.check_fit(archive_of(bad)))
    bad = [dict(c, delta=c["delta"][:, rng.permutation(n)]) for c in good]
    expect("m4 fit check: delta unrelated to the truth", w.check_fit(archive_of(bad)))
    bad = [dict(c, v=c["v"] + np.eye(n)[0] * 0.01) for c in good]
    expect("m4 fit check: v draws not summing to zero", w.check_fit(archive_of(bad)))
    archive = archive_of(good)
    theta = (archive.get("beta") @ w.X.T + archive.get("phi") + archive.get("v")
             + archive.get("delta") * d["x"][None, :])
    dic, waic = oracles.poisson_dic_waic(theta, d["counts"], d["offsets"])
    got_dic = svc.compute_dic(archive, w.spec, d["counts"])
    got_waic = svc.compute_waic(archive, w.spec, d["counts"])
    expect("m4 DIC/WAIC checks pass the program's values",
           workloads.criterion_failures("dic", got_dic, dic) == []
           and workloads.criterion_failures("waic", got_waic, waic) == [])
    expect("m4 DIC check: value off by 1e-7 relative",
           workloads.criterion_failures("dic", got_dic * (1 + 1e-7), dic))


def check_county(tmp: Path) -> None:
    w = workloads.CountyMap()
    w.setup(1, tmp)
    d, rng = w.d, np.random.default_rng(2)
    n, labels = d["n"], d["labels"]
    eta = np.array([center(d["eta"] + 0.2 * rng.standard_normal(n), labels) for _ in range(200)])
    expect("county stage-1 check passes a good archive",
           w.check_stage1(archive_of([{"eta": eta}])) == [])
    expect("county stage-1 check: scores unrelated to the truth",
           w.check_stage1(archive_of([{"eta": eta[:, rng.permutation(n)]}])))
    shifted = eta + (labels == 1)[None, :] * 0.01
    expect("county stage-1 check: a component not summing to zero",
           w.check_stage1(archive_of([{"eta": shifted}])))

    eta_hat = eta.mean(axis=0)
    oracle = oracles.morans_dense(oracles.dense_weights(n, d["edges"]), eta_hat)
    analytic = graph.morans_i(w.graph, eta_hat)
    perm = graph.morans_i(w.graph, eta_hat, method="permutation", permutations=99)
    expect("county Moran checks pass the program's results",
           w.check_moran(analytic, oracle, False) == [] and w.check_moran(perm, oracle, True) == [])
    expect("county Moran check: statistic off by 1e-6",
           w.check_moran(analytic._replace(statistic=analytic.statistic + 1e-6), oracle, False))
    expect("county Moran check: analytic variance off by 1%",
           w.check_moran(analytic._replace(variance=analytic.variance * 1.01), oracle, False))

    spec3 = svc.SvcModelSpec(rung="M3", covariate=d["x"], offsets=d["offsets"],
                             latent_factors=eta_hat[:, None])
    X = np.column_stack([np.ones(n), d["x"], eta_hat])
    fits = [svc.fit_stage2_laplace(spec3, d["counts"], w.graph, p) for p in w.GRID]
    table = [(dict(p), f.log_marginal) for p, f in zip(w.GRID, fits)]
    best = max(fits, key=lambda f: f.log_marginal)
    expect("county grid check passes the program's grid", w.check_grid((best, table), fits, X) == [])
    s = fits[0].state
    moved = fits[0]._replace(state=s.__class__(
        beta=s.beta, phi=s.phi, v=s.v.__class__(w.graph, s.v.values + 0.01 * rng.standard_normal(n)),
        tau_phi=s.tau_phi, tau_v=s.tau_v))
    expect("county grid check: a mode that is not a mode",
           w.check_grid((best, table), [moved] + fits[1:], X))
    worst = min(fits, key=lambda f: f.log_marginal)
    expect("county grid check: selecting a point without the largest log marginal",
           w.check_grid((worst, table), fits, X))

    islands = np.flatnonzero(np.bincount(w.probe["labels"])[w.probe["labels"]] == 1)
    lam, s2 = np.array([1.0, 0.8, -1.2]), np.full(3, 0.36)
    sd = 1.0 / math.sqrt(1.0 + float(lam**2 @ (1 / s2)))
    probe_eta = np.zeros((4000, w.probe["n"]))
    probe_eta[:, islands] = sd * rng.standard_normal((4000, len(islands)))
    good = {"eta": probe_eta, "lambda": np.tile(lam, (4000, 1)), "sigma2": np.tile(s2, (4000, 1))}
    expect("county island check passes island draws with the closed-form sd",
           w.check_islands(archive_of([good])) == [])
    pinned = dict(good, eta=np.zeros_like(probe_eta))
    expect("county island check: islands pinned at 0", w.check_islands(archive_of([pinned])))


def check_cli(tmp: Path) -> None:
    w = workloads.CliPipeline()
    w.STAGE1 = ("--iters", "400", "--burnin", "100", "--thin", "5", "--chains", "2")
    w.STAGE2 = ("--iters", "300", "--burnin", "100", "--thin", "2", "--chains", "2")
    w.setup(1, tmp)
    r = w.round()
    expect("cli round passes every step", all(not op.failures for op in r.ops))
    work = w.work

    def corrupt(name, column, row, scale):
        path = work / name
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        if row is None:  # first draw of the v field
            row = next(k for k, line in enumerate(lines) if line.split(",")[2] == "v")
        cells = lines[row].split(",")
        k = header.index(column)
        cells[k] = repr(float(cells[k]) * scale)
        lines[row] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")

    cases = [
        ("counts.csv", "expected", 5, 1.001, w.check_prep, "expected count off by 0.1%"),
        ("scores.csv", "health", 3, 1 + 1e-9, w.check_scores, "factor score off by 1e-9"),
        ("diagnose.csv", "mean", 2, 1 + 1e-9, w.check_diagnose, "diagnose mean off by 1e-9"),
        ("fixed_effects.csv", "mean", 1, 1 + 1e-9, w.check_fixed_effects, "fixed-effect mean off"),
        ("relative_risk.csv", "rr_mean", 7, 1 + 1e-6, w.check_relative_risk, "relative risk off"),
        ("stage2.csv", "value", None, 1.5, w.check_stage2, "a v draw changed"),
    ]
    for name, column, row, scale, check, label in cases:
        backup = (work / name).read_bytes()
        corrupt(name, column, row, scale)
        expect(f"cli check: {label}", check())
        (work / name).write_bytes(backup)
    ops = []
    w.step(ops, "fit-stage2", ["fit-stage2", "--counts", work / "missing.csv",
                               "--covariates", work / "covariates.csv", "--adjacency",
                               w.raw / "adjacency.csv", "--model", "M4", "--out", work / "x.csv"])
    expect("cli step: a non-zero exit fails the step", ops[0].failures)


def main() -> int:
    (run.HERE / "out").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selfcheck-", dir=run.HERE / "out"))
    try:
        check_oracles(tmp)
        check_m4(tmp)
        check_county(tmp)
        check_cli(tmp / "cli")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    failed = [name for name, ok in RESULTS if not ok]
    print(f"{len(RESULTS) - len(failed)} of {len(RESULTS)} expectations hold")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
