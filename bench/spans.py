"""Span recorder for the traced run.

The recorder replaces public names that the layers call through (module
attributes, class attributes and the CLI's command table) with wrappers
that record one span per call: name, layer, start, end, parent span and
round. Spans stay in memory and are written out once, at the end. No file
of the package is touched; :meth:`Tracer.uninstall` restores every name.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict


def _chains_times_iters(args, kwargs, _result, position=3):
    config = kwargs.get("config", args[position] if len(args) > position else None)
    return config.n_chains * config.n_iter


def _path_bytes(args, kwargs, _result, position=0):
    return os.path.getsize(kwargs.get("path", args[position]))


# (module or module.Class, attribute, layer, measure); the span is named
# after the attribute.
# measure(args, kwargs, result) -> number stored with the span (sites,
# iterations, Newton steps or bytes), or None.
TARGETS = [
    ("graph", "build_graph", "graph", None),
    ("graph", "subgraph", "graph", None),
    ("graph", "morans_i", "graph", None),
    ("graph.SpatialGraph", "components", "graph", None),
    ("icar", "quad_form_and_rank", "icar", None),
    ("icar", "gibbs_sweep_values", "icar", lambda a, k, r: len(a[0])),
    ("icar", "center_by_component", "icar", None),
    ("icar", "precision_matrix", "icar", None),
    ("factor", "fit_stage1", "factor", _chains_times_iters),
    ("svc", "fit_stage2_mcmc", "svc", _chains_times_iters),
    ("svc", "fit_stage2_laplace", "svc", lambda a, k, r: r.n_newton),
    ("svc", "laplace_precision_grid", "svc", None),
    ("svc", "center_and_absorb", "svc", None),
    ("svc.PoissonLikelihood", "delta_sum", "svc", None),
    ("svc", "compute_dic", "svc", None),
    ("svc", "compute_waic", "svc", None),
    ("svc", "relative_risk_summary", "svc", None),
    ("svc", "rate_ratio", "svc", None),
    ("mcmc", "gelman_rubin", "mcmc", None),
    ("mcmc", "effective_sample_size", "mcmc", None),
    ("mcmc", "posterior_summary", "mcmc", None),
    ("prep", "standardize", "prep", None),
    ("prep", "impute_by_group", "prep", None),
    ("prep", "compute_ice", "prep", None),
    ("prep", "expected_counts", "prep", None),
    ("fileio", "write_archive", "fileio", lambda a, k, r: _path_bytes(a, k, r, 1)),
    ("fileio", "read_archive", "fileio", _path_bytes),
    ("fileio", "read_adjacency", "fileio", None),
    ("fileio", "read_areas", "fileio", None),
    ("fileio", "read_indicators", "fileio", None),
    ("fileio", "read_counts", "fileio", None),
    ("fileio", "read_covariates", "fileio", None),
    ("fileio", "read_strata", "fileio", None),
    ("fileio", "read_rates", "fileio", None),
    ("fileio", "write_table", "fileio", None),
    # names the CLI imported into its own namespace
    ("cli", "build_graph", "graph", None),
    ("cli", "subgraph", "graph", None),
    ("cli", "morans_i", "graph", None),
    ("cli", "fit_stage1", "factor", _chains_times_iters),
    ("cli", "gelman_rubin", "mcmc", None),
    ("cli", "effective_sample_size", "mcmc", None),
    ("cli", "posterior_summary", "mcmc", None),
]


class Tracer:
    """Records spans ``[name, layer, start, end, parent, round, measure]``."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.round = -1
        self._restore: list[tuple[object, str, object, bool]] = []

    def _wrap(self, fn, name, layer, measure):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.spans)
            span = [name, layer, time.perf_counter(), 0.0,
                    tracer.stack[-1] if tracer.stack else -1, tracer.round, None]
            tracer.spans.append(span)
            tracer.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                tracer.stack.pop()
            if measure is not None:
                span[6] = measure(args, kwargs, result)
            return result

        return wrapper

    def install(self, package) -> None:
        import importlib

        for target, attr, layer, measure in TARGETS:
            module_name, _, cls = target.partition(".")
            owner = importlib.import_module(f"{package}.{module_name}")
            if cls:
                owner = getattr(owner, cls)
            original = owner.__dict__[attr] if cls else getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, attr, layer, measure))
            self._restore.append((owner, attr, original, False))
        cli = importlib.import_module(f"{package}.cli")
        for command, fn in list(cli.COMMANDS.items()):
            cli.COMMANDS[command] = self._wrap(fn, f"cli.{command}", "cli", None)
            self._restore.append((cli.COMMANDS, command, fn, True))

    def uninstall(self) -> None:
        for owner, attr, original, is_dict in reversed(self._restore):
            if is_dict:
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    def totals(self, rounds_only: bool = True) -> dict[str, list[float]]:
        """Per span name: [total seconds, calls, summed measure]."""
        out: dict[str, list[float]] = defaultdict(lambda: [0.0, 0, 0.0])
        for name, _, start, end, _, rnd, measure in self.spans:
            if rounds_only and rnd < 0:
                continue
            row = out[name]
            row[0] += end - start
            row[1] += 1
            row[2] += measure or 0.0
        return out

    def self_times(self) -> dict[str, float]:
        """Self time per layer over the rounds: each span's duration minus
        the part covered by its direct children (children never overlap,
        since calls nest)."""
        child = defaultdict(float)
        for s in self.spans:
            if s[4] >= 0:
                child[s[4]] += s[3] - s[2]
        out: dict[str, float] = defaultdict(float)
        for k, s in enumerate(self.spans):
            if s[5] >= 0:
                out[s[1]] += (s[3] - s[2]) - child[k]
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"fields": ["name", "layer", "start", "end", "parent", "round", "measure"],
                 "spans": self.spans},
                handle,
            )
