"""Chain orchestration, archives and convergence diagnostics.

Every sampler in the package reports its retained draws through a
:class:`ChainArchive`: per-chain named parameter draws with iteration
stamps, plus the configuration that produced them. Diagnostics here
operate on archives only, never on live sampler state.

Both stages run their chains here: :func:`run_chains` seeds the chains
and runs them on worker processes, and :func:`run_chain` owns a chain's
iteration loop, burn-in adaptation gain and retention. A stage supplies
one chain class, ``factor._Stage1Chain`` or ``svc._Stage2Chain``, built
per chain as ``chain_class(rng, config, payload)``. Its ``step(it,
gain)`` runs one iteration, ``snapshot()`` names the state to retain,
``metadata()`` gives the chain's ``{key: str}`` values, which
:func:`run_chains` stamps as ``chain<c>_<key>``, and its ``extra``
attribute is handed back to the stage as it is.
"""

from __future__ import annotations

import functools
import itertools
import math
import multiprocessing
import numbers
import os
import sys
import tempfile
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ValidationError

# acceptance rate toward which every adaptive random-walk step moves in burn-in
ADAPT_TARGET = 0.44


def adapt_step(step: float, logr: float, gain: float) -> float:
    """``step * exp(gain * (signal - ADAPT_TARGET))`` after a proposal with
    log ratio ``logr``, accepted or not: the signal is its acceptance
    probability ``min(1, exp(logr))``, 0 below -700."""
    signal = math.exp(min(logr, 0.0)) if logr > -700.0 else 0.0
    return step * math.exp(gain * (signal - ADAPT_TARGET))


__all__ = [
    "McmcConfig",
    "ChainArchive",
    "spawn_generators",
    "gelman_rubin",
    "effective_sample_size",
    "posterior_summary",
    "PosteriorSummary",
]


def check_seed(seed) -> None:
    """Raise :class:`ValidationError` unless ``seed`` is a non-negative
    integer, the seeds ``numpy.random`` accepts."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed!r}")


@dataclass(frozen=True)
class McmcConfig:
    """Chain-count, length, burn-in, thinning and seed for one fit.

    Defaults follow the package's reference protocol: two chains of
    100,000 iterations, the first 40,000 discarded, keeping every 50th,
    so each chain retains exactly 1,200 draws.
    """

    n_chains: int = 2
    n_iter: int = 100_000
    burn_in: int = 40_000
    thin: int = 50
    seed: int = 20_240_901

    def __post_init__(self):
        check_seed(self.seed)
        if self.n_chains < 1:
            raise ValidationError("n_chains must be >= 1")
        if self.thin < 1:
            raise ValidationError("thin must be >= 1")
        if not 0 <= self.burn_in < self.n_iter:
            raise ValidationError("burn_in must satisfy 0 <= burn_in < n_iter")

    @property
    def n_retained(self) -> int:
        return (self.n_iter - self.burn_in) // self.thin

    def retained_iterations(self) -> np.ndarray:
        """Iteration stamps of retained draws: burn_in + thin, + 2 thin, ..."""
        return self.burn_in + self.thin * np.arange(1, self.n_retained + 1)

    def is_retained(self, iteration: int) -> bool:
        """Whether 1-based iteration number ``iteration`` is kept."""
        return iteration > self.burn_in and (iteration - self.burn_in) % self.thin == 0


def spawn_generators(seed: int, n_chains: int) -> list[np.random.Generator]:
    """Independent per-chain generators from one root seed.

    Every fit's chain c draws from element c, ``default_rng(SeedSequence(e))``
    with ``e = SeedSequence(seed).spawn(n_chains)[c].generate_state(1)[0]``.
    """
    return [
        np.random.default_rng(np.random.SeedSequence(int(child.generate_state(1)[0])))
        for child in np.random.SeedSequence(seed).spawn(n_chains)
    ]


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    reports one, else ``os.cpu_count()``, at least 1."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# fork starts a worker with the caller's imports and state; forkserver and
# spawn would re-import ``__main__``, which breaks an unguarded script and
# costs about a second per worker, so elsewhere the chains run in-process
_POOL_CONTEXT = multiprocessing.get_context("fork") if sys.platform == "linux" else None


def _pool_size(n_workers: int | None, n_tasks: int) -> int:
    """Workers of :func:`worker_map`'s pool for ``n_tasks``, 0 when it maps
    in this process."""
    if n_workers is None:
        n_workers = usable_cpus()
    elif n_workers < 1:
        raise ValidationError(f"n_workers must be at least 1, got {n_workers}")
    n_workers = min(n_workers, n_tasks)
    return n_workers if n_workers > 1 and _POOL_CONTEXT is not None else 0


@contextmanager
def worker_map(fn, tasks, n_workers: int | None = None):
    """``map(fn, tasks)``, results in task order, on worker processes.

    ``n_workers=None`` means one worker per task up to :func:`usable_cpus`;
    a count below 1 raises :class:`ValidationError`. The pool never has
    more workers than tasks: a process pool starts all of its workers at
    the first submit, whether or not they get work. One worker, or a
    platform other than Linux, maps in this process. ``fn``, the tasks
    and the results must be picklable for a pool.
    """
    pool_size = _pool_size(n_workers, len(tasks))
    if pool_size:
        with ProcessPoolExecutor(max_workers=pool_size, mp_context=_POOL_CONTEXT) as pool:
            yield pool.map(fn, tasks)
    else:
        yield map(fn, tasks)


def _run_one(chain_class, config, directory, task):
    """Run chain c of :func:`run_chains` on ``task = (c, (rng, payload))``.

    Returns its draws, its metadata values and its extra; with a
    ``directory``, the draws are saved as ``<directory>/<c>.<name>.npy``
    and only their names are returned.
    """
    c, (rng, payload) = task
    chain = chain_class(rng, config, payload)
    draws = run_chain(config, chain.step, chain.snapshot)
    if directory is not None:
        for name, values in draws.items():
            np.save(os.path.join(directory, f"{c}.{name}.npy"), values)
        draws = list(draws)
    return draws, chain.metadata(), chain.extra


def run_chains(chain_class, payloads, config: McmcConfig, n_workers: int | None = None):
    """Run chain c as ``chain_class(rng, config, payloads[c])`` through
    :func:`run_chain`, with its ``step`` and ``snapshot``.

    ``rng`` is ``spawn_generators(config.seed, config.n_chains)[c]``, and
    the chains run on :func:`worker_map` with ``n_workers``, which does not
    change the draws. Chains on a pool hand their draws back as ``.npy``
    files in a temporary directory of the fit, not through the pool's
    result pipe. After its last step, each chain's ``metadata() ->
    {key: str}`` is stamped into the archive's metadata as
    ``chain<c>_<key>``, and its ``extra`` attribute is handed back. A
    config that retains no draw raises :class:`ValidationError`. Returns
    the archive, its metadata also holding the ``wall_time_s``, and the
    extras in chain order.
    """
    if config.n_retained < 1:
        raise ValidationError(
            f"n_iter - burn_in = {config.n_iter - config.burn_in} is below "
            f"thin = {config.thin}, so the fit would retain no draws"
        )
    tasks = list(enumerate(zip(spawn_generators(config.seed, config.n_chains), payloads,
                               strict=True)))
    started = time.time()
    pooled = _pool_size(n_workers, len(tasks))
    handoff = tempfile.TemporaryDirectory(prefix="arealbayes-") if pooled else nullcontext()
    with handoff as directory:
        run = functools.partial(_run_one, chain_class, config, directory)
        with worker_map(run, tasks, n_workers) as results:
            draws, chain_meta, extras = zip(*results)
        if pooled:
            draws = [{name: np.load(os.path.join(directory, f"{c}.{name}.npy")) for name in names}
                     for c, names in enumerate(draws)]
    metadata = {"wall_time_s": f"{time.time() - started:.3f}"}
    for c, values in enumerate(chain_meta):
        metadata.update({f"chain{c}_{key}": value for key, value in values.items()})
    return ChainArchive(list(draws), config.retained_iterations(), config, metadata), list(extras)


def run_chain(config: McmcConfig, step, snapshot) -> dict[str, np.ndarray]:
    """One chain's iteration loop: ``step(it, gain)`` for it = 1..n_iter.

    The gain is ``it ** -0.6`` in burn-in and 0 after, and an adaptive step
    moves by it as :func:`adapt_step` says.
    After each iteration that ``config.is_retained``, the values of
    ``snapshot() -> {name: value}`` are copied into the next row of that
    name's array, shape ``(n_retained, *value shape)``, allocated at the
    first retained iteration. Returns those arrays.
    """
    draws, row = {}, 0
    for it in range(1, config.n_iter + 1):
        step(it, it ** -0.6 if it <= config.burn_in else 0.0)
        if config.is_retained(it):
            values = snapshot()
            if not row:
                draws = {name: np.empty((config.n_retained, *np.shape(value)),
                                        np.asarray(value).dtype)
                         for name, value in values.items()}
            for name, value in values.items():
                draws[name][row] = value
            row += 1
    return draws


def model_hash(*parts) -> str:
    """Short stable digest of a model description for archive provenance."""
    import hashlib

    text = "|".join(str(p) for p in parts)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class ChainArchive:
    """Thinned post-burn-in draws of named parameters, per chain.

    ``chains[c][name]`` is an array of shape ``(n_retained, *param_shape)``.
    All chains share parameter names, shapes and iteration stamps.
    ``metadata`` carries provenance (model hash, wall time, ...) as plain
    strings; persisted copies keep only deterministic keys.
    """

    chains: list[dict[str, np.ndarray]]
    iterations: np.ndarray
    config: McmcConfig
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if not self.chains:
            raise ValidationError("archive needs at least one chain")
        names = set(self.chains[0])
        for c, ch in enumerate(self.chains):
            if set(ch) != names:
                raise ValidationError(f"chain {c} has mismatched parameter names")
            for name, arr in ch.items():
                if arr.shape != self.chains[0][name].shape:
                    raise ValidationError(
                        f"chain {c} parameter {name!r} has mismatched shape"
                    )
        self.iterations = np.asarray(self.iterations, dtype=int)

    @property
    def n_chains(self) -> int:
        return len(self.chains)

    @property
    def param_names(self) -> list[str]:
        return sorted(self.chains[0])

    @property
    def n_retained(self) -> int:
        return len(self.iterations)

    @property
    def total_draws(self) -> int:
        return self.n_chains * self.n_retained

    def shape(self, param: str) -> tuple[int, ...]:
        return self.chains[0][param].shape[1:]

    def per_chain(self, param: str) -> list[np.ndarray]:
        return [ch[param] for ch in self.chains]

    def get(self, param: str) -> np.ndarray:
        """All chains' draws pooled, chain-major: shape (total_draws, ...)."""
        return np.concatenate([ch[param] for ch in self.chains], axis=0)

    def reordered(self, order) -> "ChainArchive":
        """Same archive with chains permuted; summaries must not change."""
        return ChainArchive(
            [self.chains[c] for c in order], self.iterations, self.config,
            dict(self.metadata),
        )


def _component(draws: np.ndarray, param: str, index) -> np.ndarray:
    if draws.ndim == 1:
        return draws
    flat = draws.reshape(draws.shape[0], -1)
    if index is None:
        return flat
    return flat[:, int(index)]


def gelman_rubin(archive: ChainArchive, param: str, index=None, split: bool = True) -> float:
    """Potential scale reduction factor R-hat.

    Chains are split in half by default, which also detects within-chain
    drift; ``split=False`` gives the original between/within ratio. For a
    vector parameter without ``index``, the worst (largest) component
    value is returned.
    """
    if archive.n_chains < 2:
        raise ValidationError("gelman_rubin needs at least 2 chains")
    if archive.n_retained < 10:
        raise ValidationError("gelman_rubin needs at least 10 retained draws per chain")
    draws = [_component(ch, param, index) for ch in archive.per_chain(param)]
    if draws[0].ndim == 2 and index is None:
        return max(
            gelman_rubin_sequences([d[:, k] for d in draws], split)
            for k in range(draws[0].shape[1])
        )
    return gelman_rubin_sequences(draws, split)


def gelman_rubin_sequences(chains: list[np.ndarray], split: bool = True) -> float:
    """R-hat from raw scalar sequences (one array per chain)."""
    if split:
        seqs = []
        for ch in chains:
            half = len(ch) // 2
            seqs.append(ch[:half])
            seqs.append(ch[len(ch) - half:])
    else:
        seqs = list(chains)
    m = len(seqs)
    length = min(len(s) for s in seqs)
    seqs = [s[:length] for s in seqs]
    means = np.array([s.mean() for s in seqs])
    within = float(np.mean([s.var(ddof=1) for s in seqs]))
    between = length * float(np.var(means, ddof=1))
    if within == 0.0:
        return 1.0 if between == 0.0 else float("inf")
    var_plus = (length - 1) / length * within + between / length
    return float(np.sqrt(var_plus / within))


def effective_sample_size(archive: ChainArchive, param: str, index=None) -> float:
    """ESS through Geyer's initial monotone sequence estimator.

    Computed per chain and summed. A constant chain is degenerate: a
    warning is emitted and 0.0 returned rather than an infinite value.
    Always capped at the total number of retained draws.
    """
    chains = [_component(ch, param, index) for ch in archive.per_chain(param)]
    if chains[0].ndim != 1:
        raise ValidationError("pass index= to select a component of a vector parameter")
    total = sum(len(c) for c in chains)
    if total < 50:
        raise ValidationError("effective_sample_size needs at least 50 retained draws")
    ess = 0.0
    for ch in chains:
        ess += _ess_single(ch)
    return float(min(ess, total))


def _ess_single(x: np.ndarray) -> float:
    n = len(x)
    x = x - x.mean()
    var0 = float(x @ x) / n
    if var0 == 0.0:
        warnings.warn("constant chain: effective sample size is degenerate")
        return 0.0
    # autocovariances via FFT
    nfft = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(x, nfft)
    acov = np.fft.irfft(f * np.conjugate(f), nfft)[:n].real / n
    rho = acov / acov[0]
    # Geyer initial positive monotone sequence on paired sums
    tau = -1.0
    prev = np.inf
    for k in range(0, n - 1, 2):
        gamma = rho[k] + (rho[k + 1] if k + 1 < n else 0.0)
        if gamma <= 0.0:
            break
        gamma = min(gamma, prev)
        prev = gamma
        tau += 2.0 * gamma
    tau = max(tau, 1.0 / n)
    return n / tau


class PosteriorSummary(NamedTuple):
    mean: float
    sd: float
    q025: float
    median: float
    q975: float


def posterior_summary(archive: ChainArchive, param: str, index=None) -> PosteriorSummary:
    """Pooled mean, sd and equal-tailed quantiles of one scalar parameter.

    Quantiles use linear interpolation; the sd of a single draw is 0.
    Mean and sd use exact summation, so the result is bitwise invariant
    to chain ordering.
    """
    draws = _component(archive.get(param), param, index)
    if draws.ndim != 1:
        raise ValidationError("pass index= to select a component of a vector parameter")
    q = np.quantile(draws, [0.025, 0.5, 0.975])
    n = len(draws)
    mean = math.fsum(draws.tolist()) / n
    # squares through libm pow, as a scalar ``** 2`` computes them; numpy's
    # array square is an exactly rounded product and differs in the last
    # bit for a few values, which would change the sd of some columns
    squares = map(math.pow, (draws - mean).tolist(), itertools.repeat(2.0))
    sd = math.sqrt(math.fsum(squares) / (n - 1)) if n > 1 else 0.0
    return PosteriorSummary(mean, sd, float(q[0]), float(q[1]), float(q[2]))
