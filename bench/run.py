"""Benchmark runner for arealbayes.

    python3 bench/run.py --workload m4-lattice --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` beside this directory and nowhere else. One workload runs in this
single process, chains one after another and BLAS pinned to one thread.
The set-up (inputs, graph, model specs) is timed several times; then whole
rounds of the workload's operations repeat until ``--seconds`` would be
exceeded (at least one round). Every output is checked; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics with ``--trace 0``,
the per-layer metrics from a traced run with ``--trace 1``.
``--workload all`` runs each workload in its own process, one after
another, and prints every end-to-end metric of each.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_MIN_REPEATS, SETUP_MIN_SECONDS, SETUP_MAX_REPEATS = 5, 0.5, 50

END_TO_END = {
    "setup_s": "s",
    "ess_per_s": "1/s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "svc.iter_ms": "ms/iteration",
    "svc.ess_min": "draws",
    "svc.field_ess_min": "draws",
    "svc.self_s": "s",
    "svc.delta_sum_s": "s",
    "svc.delta_sum_calls": "count",
    "svc.laplace_point_s": "s/point",
    "svc.laplace_newton_iters": "count",
    "svc.eb_grid_s": "s",
    "icar.quad_form_s": "s",
    "icar.quad_form_calls": "count",
    "icar.center_s": "s",
    "icar.center_calls": "count",
    "icar.sweep_s": "s",
    "icar.sweep_us_per_site": "us/site",
    "icar.self_s": "s",
    "graph.components_s": "s",
    "graph.components_calls": "count",
    "graph.build_s": "s",
    "graph.morans_s": "s",
    "graph.self_s": "s",
    "factor.iter_ms": "ms/iteration",
    "factor.self_s": "s",
    "factor.ess_min": "draws",
    "fileio.write_s": "s",
    "fileio.read_s": "s",
    "fileio.write_mb_per_s": "MB/s",
    "fileio.read_mb_per_s": "MB/s",
    "fileio.archive_mb": "MB",
    "fileio.self_s": "s",
    "mcmc.rhat_s": "s",
    "mcmc.ess_s": "s",
    "mcmc.self_s": "s",
    "prep.s": "s",
    "cli.prep_s": "s",
    "cli.fit-stage1_s": "s",
    "cli.summarize_s": "s",
    "cli.fit-stage2_s": "s",
    "cli.diagnose_s": "s",
    "cli.self_s": "s",
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer, rounds) -> dict[str, float]:
    """Per-layer figures per round from the spans (and the rounds' ESS)."""
    k = len(rounds)
    tot = tracer.totals()
    every = tracer.totals(rounds_only=False)
    own = tracer.self_times()

    def t(name):
        return tot[name][0] if name in tot else 0.0

    def calls(name):
        return tot[name][1] if name in tot else 0

    def measure(name):
        return tot[name][2] if name in tot else 0.0

    def ess(key):
        return statistics.median(r.layer.get(key, 0.0) for r in rounds)

    build = every.get("build_graph", [0.0, 0, 0.0])
    out = {
        "svc.iter_ms": 1e3 * _ratio(t("fit_stage2_mcmc"), measure("fit_stage2_mcmc")),
        "svc.ess_min": ess("svc.ess_min"),
        "svc.field_ess_min": ess("svc.field_ess_min"),
        "svc.delta_sum_s": t("delta_sum") / k,
        "svc.delta_sum_calls": calls("delta_sum") / k,
        "svc.laplace_point_s": _ratio(t("fit_stage2_laplace"), calls("fit_stage2_laplace")),
        "svc.laplace_newton_iters": _ratio(measure("fit_stage2_laplace"), calls("fit_stage2_laplace")),
        "svc.eb_grid_s": t("laplace_precision_grid") / k,
        "icar.quad_form_s": t("quad_form_and_rank") / k,
        "icar.quad_form_calls": calls("quad_form_and_rank") / k,
        "icar.center_s": t("center_by_component") / k,
        "icar.center_calls": calls("center_by_component") / k,
        "icar.sweep_s": t("gibbs_sweep_values") / k,
        "icar.sweep_us_per_site": 1e6 * _ratio(t("gibbs_sweep_values"), measure("gibbs_sweep_values")),
        "graph.components_s": t("components") / k,
        "graph.components_calls": calls("components") / k,
        "graph.build_s": _ratio(build[0], build[1]),
        "graph.morans_s": t("morans_i") / k,
        "factor.iter_ms": 1e3 * _ratio(t("fit_stage1"), measure("fit_stage1")),
        "factor.ess_min": ess("factor.ess_min"),
        "fileio.write_s": t("write_archive") / k,
        "fileio.read_s": t("read_archive") / k,
        "fileio.write_mb_per_s": 1e-6 * _ratio(measure("write_archive"), t("write_archive")),
        "fileio.read_mb_per_s": 1e-6 * _ratio(measure("read_archive"), t("read_archive")),
        "fileio.archive_mb": 1e-6 * measure("write_archive") / k,
        "mcmc.rhat_s": t("gelman_rubin") / k,
        "mcmc.ess_s": t("effective_sample_size") / k,
        "prep.s": own.get("prep", 0.0) / k,
        "cli.prep_s": t("cli.prep") / k,
        "cli.fit-stage1_s": t("cli.fit-stage1") / k,
        "cli.summarize_s": t("cli.summarize") / k,
        "cli.fit-stage2_s": t("cli.fit-stage2") / k,
        "cli.diagnose_s": t("cli.diagnose") / k,
    }
    for layer in ("svc", "icar", "graph", "factor", "fileio", "mcmc", "cli"):
        out[f"{layer}.self_s"] = own.get(layer, 0.0) / k
    return {name: float(out[name]) for name in LAYER_UNITS}


def import_package():
    """Import arealbayes from this checkout's src/ only; exit 1 if absent."""
    src = ROOT / "src"
    if not (src / "arealbayes" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {src / 'arealbayes'}; "
                 "run from the root of a source checkout")
    sys.path.insert(0, str(src))
    import arealbayes

    if Path(arealbayes.__file__).resolve().parent != (src / "arealbayes").resolve():
        sys.exit(f"error: imported arealbayes from {arealbayes.__file__}, not {src}")


def time_setups(workload, args, workdir: Path, out: list[float]) -> None:
    """One batch of timed set-ups: a fast set-up repeats for half a second."""
    batch = 0.0
    for count in range(SETUP_MAX_REPEATS):
        if count >= SETUP_MIN_REPEATS and batch >= SETUP_MIN_SECONDS:
            break
        start = time.perf_counter()
        workload.setup(args.seed, workdir)
        out.append(time.perf_counter() - start)
        batch += out[-1]


def run_one(args) -> int:
    from spans import Tracer

    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    workdir = HERE / "out" / f"{args.workload}-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install("arealbayes")
    try:
        setups: list[float] = []
        time_setups(workload, args, workdir, setups)
        rounds = []
        begin = time.perf_counter()
        while True:
            if tracer:
                tracer.round = len(rounds)
            start = time.perf_counter()
            rounds.append(workload.round())
            last = time.perf_counter() - start
            if tracer:
                tracer.round = -1
            # set-up is timed again after every round: machine speed can
            # drift over seconds to minutes, and one batch samples one moment
            time_setups(workload, args, workdir, setups)
            if time.perf_counter() - begin + last > args.seconds:
                break
        if tracer:
            tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = [op for r in rounds for op in r.ops]
    failed = [op for op in ops if op.failures]
    correct = all(op.name in workload.known_faults for op in failed)
    e2e = {
        "setup_s": statistics.median(setups),
        "ess_per_s": statistics.median(r.ess_per_s for r in rounds),
        "pipeline_s": statistics.median(r.pipeline_s for r in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }

    print(f"workload {args.workload}  seed {args.seed}  rounds {len(rounds)}  "
          f"trace {args.trace}")
    for op in ops[: len(rounds[0].ops)]:
        print(f"  op {op.name:<26} {op.seconds:9.3f} s  {'FAIL' if op.failures else 'ok'}")
    for op in {op.name: op for op in failed}.values():
        for msg in op.failures:
            print(f"  FAILED {op.name}: {msg}")
    for name, unit in END_TO_END.items():
        print(f"  {name:<14} {e2e[name]:12.4f} {unit}")
    print(f"  attempted {len(ops)}  failed {len(failed)}  correct {correct}")

    if tracer:
        metrics = layer_metrics(tracer, rounds)
        for name, value in metrics.items():
            print(f"  {name:<26} {value:14.6f} {LAYER_UNITS[name]}")
        (HERE / "out").mkdir(exist_ok=True)
        tracer.dump(HERE / "out" / f"trace-{args.workload}-{args.seed}.json")
        result = {name: {"value": v, "unit": LAYER_UNITS[name]} for name, v in metrics.items()}
    else:
        result = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": len(failed),
                      "metrics": result}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    import workloads

    summary, status = {}, 0
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = proc.returncode
            continue
        summary[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps({"workloads": summary}))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("m4-lattice", "county-map", "cli-pipeline", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_package()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
