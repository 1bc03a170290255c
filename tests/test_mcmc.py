import math
import os
import sys

import numpy as np
import pytest
from helpers import recording_pool

from arealbayes import mcmc
from arealbayes.errors import ValidationError
from arealbayes.mcmc import (
    ChainArchive,
    McmcConfig,
    adapt_step,
    effective_sample_size,
    gelman_rubin,
    gelman_rubin_sequences,
    posterior_summary,
    run_chain,
    run_chains,
    spawn_generators,
    worker_map,
)


class FirstDraws:
    """A chain class for :func:`run_chains` whose extra is its label and
    first three uniforms, and whose metadata counts its steps."""

    def __init__(self, rng, config, label):
        self.extra = (label, rng.random(3).tolist())
        self.label, self.steps = label, 0

    def step(self, it, gain):
        self.steps += 1

    def snapshot(self):
        return {"x": 0.0}

    def metadata(self):
        return {"label": self.label, "steps": str(self.steps)}


class MustNotRun:
    def __init__(self, rng, config, payload):
        raise AssertionError("a chain ran")


def archive_from_chains(chains, **config_kwargs):
    n = len(chains[0]["x"])
    defaults = dict(n_chains=len(chains), n_iter=2 * n, burn_in=n, thin=1, seed=0)
    defaults.update(config_kwargs)
    config = McmcConfig(**defaults)
    return ChainArchive(chains, config.retained_iterations(), config)


class TestConfig:
    def test_default_protocol_retains_1200(self):
        config = McmcConfig()
        assert config.n_retained == 1200
        stamps = config.retained_iterations()
        assert stamps[0] == 40_050
        assert stamps[-1] == 100_000

    def test_retained_stamps_arithmetic(self):
        config = McmcConfig(n_chains=1, n_iter=100, burn_in=30, thin=7, seed=1)
        stamps = config.retained_iterations()
        assert stamps.tolist() == [37, 44, 51, 58, 65, 72, 79, 86, 93, 100]
        assert all(config.is_retained(s) for s in stamps)
        assert sum(config.is_retained(i) for i in range(1, 101)) == len(stamps)

    def test_validation(self):
        with pytest.raises(ValidationError):
            McmcConfig(burn_in=100, n_iter=100)
        with pytest.raises(ValidationError):
            McmcConfig(thin=0)
        with pytest.raises(ValidationError):
            McmcConfig(n_chains=0)

    @pytest.mark.parametrize("seed", [-1, 2.0, "3", True, None])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        with pytest.raises(ValidationError, match=f"seed must be a non-negative integer, got {seed!r}"):
            McmcConfig(seed=seed)

    def test_numpy_integer_seed_is_accepted(self):
        assert McmcConfig(seed=np.int64(7)).seed == 7

    def test_spawned_generators_are_reproducible_and_distinct(self):
        a = [g.standard_normal(4) for g in spawn_generators(33, 3)]
        b = [g.standard_normal(4) for g in spawn_generators(33, 3)]
        for x, y in zip(a, b):
            assert np.array_equal(x, y)
        assert not np.allclose(a[0], a[1])

    def test_spawned_generators_seed_from_32_bits_of_each_child(self):
        children = np.random.SeedSequence(33).spawn(3)
        for rng, child in zip(spawn_generators(33, 3), children):
            entropy = int(child.generate_state(1)[0])
            expected = np.random.default_rng(np.random.SeedSequence(entropy))
            assert rng.random(4).tolist() == expected.random(4).tolist()


class TestGelmanRubin:
    def test_same_target_is_near_one(self):
        rngs = spawn_generators(4, 2)
        chains = [{"x": rng.standard_normal(1000)} for rng in rngs]
        assert gelman_rubin(archive_from_chains(chains), "x") < 1.05

    def test_disjoint_chains_blow_up(self):
        rngs = spawn_generators(4, 2)
        chains = [
            {"x": rngs[0].standard_normal(500)},
            {"x": rngs[1].standard_normal(500) + 100.0},
        ]
        assert gelman_rubin(archive_from_chains(chains), "x") > 10

    def test_hand_computed_two_by_six(self):
        c1 = np.array([1.0, 2.0, 3.0, 2.0, 1.0, 2.0])
        c2 = np.array([2.0, 3.0, 4.0, 3.0, 2.0, 1.0])

        def by_hand(seqs):
            m = len(seqs)
            length = len(seqs[0])
            means = [sum(s) / length for s in seqs]
            grand = sum(means) / m
            b = length / (m - 1) * sum((mu - grand) ** 2 for mu in means)
            w = (
                sum(sum((v - mu) ** 2 for v in s) / (length - 1) for s, mu in zip(seqs, means))
                / m
            )
            var_plus = (length - 1) / length * w + b / length
            return (var_plus / w) ** 0.5

        plain = gelman_rubin_sequences([c1, c2], split=False)
        assert abs(plain - by_hand([c1, c2])) < 1e-12
        split = gelman_rubin_sequences([c1, c2], split=True)
        halves = [c1[:3], c1[3:], c2[:3], c2[3:]]
        assert abs(split - by_hand(halves)) < 1e-12

    def test_single_chain_rejected(self):
        chains = [{"x": np.arange(20.0)}]
        with pytest.raises(ValidationError, match="2 chains"):
            gelman_rubin(archive_from_chains(chains), "x")

    def test_vector_param_reports_worst_component(self):
        rngs = spawn_generators(4, 2)
        good = [rng.standard_normal(400) for rng in rngs]
        bad = [good[0] * 1.0, good[1] + 50.0]
        chains = [
            {"x": np.column_stack([good[c], bad[c]])} for c in range(2)
        ]
        arch = archive_from_chains(chains)
        assert gelman_rubin(arch, "x", index=0) < 1.05
        assert gelman_rubin(arch, "x") > 5


class TestEffectiveSampleSize:
    def test_independent_draws(self):
        rng = np.random.default_rng(0)
        chains = [{"x": rng.standard_normal(10_000)}]
        ess = effective_sample_size(archive_from_chains(chains), "x")
        assert 0.8 <= ess / 10_000 <= 1.2

    def test_ar1_matches_closed_form(self):
        rho = 0.9
        rng = np.random.default_rng(1)
        n = 40_000
        x = np.empty(n)
        x[0] = rng.standard_normal()
        innov = rng.standard_normal(n) * np.sqrt(1 - rho**2)
        for t in range(1, n):
            x[t] = rho * x[t - 1] + innov[t]
        ess = effective_sample_size(archive_from_chains([{"x": x}]), "x")
        target = (1 - rho) / (1 + rho)
        assert target / 1.5 <= ess / n <= target * 1.5

    def test_constant_chain_flagged_degenerate(self):
        chains = [{"x": np.ones(100)}]
        with pytest.warns(UserWarning, match="degenerate"):
            ess = effective_sample_size(archive_from_chains(chains), "x")
        assert ess == 0.0

    def test_too_few_draws_rejected(self):
        chains = [{"x": np.arange(10.0)}]
        with pytest.raises(ValidationError, match="50"):
            effective_sample_size(archive_from_chains(chains), "x")


class TestPosteriorSummary:
    def test_small_example(self):
        chains = [{"x": np.array([1.0, 2.0]) }, {"x": np.array([3.0, 4.0])}]
        s = posterior_summary(archive_from_chains(chains), "x")
        assert s.mean == 2.5
        assert s.median == 2.5

    def test_quantiles_match_sort_oracle(self):
        rng = np.random.default_rng(5)
        draws = rng.standard_normal(501)
        chains = [{"x": draws}]
        s = posterior_summary(archive_from_chains(chains), "x")
        srt = np.sort(draws)

        def interp_quantile(q):
            pos = q * (len(srt) - 1)
            lo = int(np.floor(pos))
            frac = pos - lo
            hi = min(lo + 1, len(srt) - 1)
            return srt[lo] * (1 - frac) + srt[hi] * frac

        assert s.q025 == pytest.approx(interp_quantile(0.025), abs=1e-12)
        assert s.median == pytest.approx(interp_quantile(0.5), abs=1e-12)
        assert s.q975 == pytest.approx(interp_quantile(0.975), abs=1e-12)

    def test_single_draw_degenerate(self):
        chains = [{"x": np.array([7.0])}]
        s = posterior_summary(archive_from_chains(chains), "x")
        assert s == (7.0, 0.0, 7.0, 7.0, 7.0)

    def test_invariant_to_chain_order(self):
        rngs = spawn_generators(2, 3)
        chains = [{"x": rng.standard_normal(200)} for rng in rngs]
        arch = archive_from_chains(chains)
        flipped = arch.reordered([2, 0, 1])
        assert posterior_summary(arch, "x") == posterior_summary(flipped, "x")
        assert gelman_rubin(arch, "x") == gelman_rubin(flipped, "x")


class TestArchive:
    def test_mismatched_params_rejected(self):
        with pytest.raises(ValidationError, match="mismatched"):
            ChainArchive(
                [{"x": np.zeros(5)}, {"y": np.zeros(5)}],
                np.arange(5),
                McmcConfig(n_chains=2, n_iter=10, burn_in=5, thin=1, seed=0),
            )

    def test_get_pools_chain_major(self):
        chains = [{"x": np.array([1.0, 2.0])}, {"x": np.array([3.0, 4.0])}]
        arch = archive_from_chains(chains)
        assert arch.get("x").tolist() == [1.0, 2.0, 3.0, 4.0]
        assert arch.total_draws == 4

    @pytest.mark.parametrize("lookup", ["get", "per_chain", "shape"])
    def test_unknown_name_lists_the_parameters(self, lookup):
        arch = archive_from_chains([{"x": np.zeros(4), "y": np.zeros((4, 2))}])
        with pytest.raises(ValidationError, match="no parameter 'z'; it has x, y"):
            getattr(arch, lookup)("z")

    def test_column_is_taken_from_each_chain_before_pooling(self):
        chains = [{"x": np.arange(6.0).reshape(3, 2)}, {"x": 10.0 + np.arange(6.0).reshape(3, 2)}]
        arch = archive_from_chains(chains)
        assert [c.tolist() for c in arch.per_chain("x", 0)] == [[0, 2, 4], [10, 12, 14]]
        assert arch.get("x", np.int64(1)).tolist() == [1, 3, 5, 11, 13, 15]
        assert np.array_equal(arch.get("x", 1), arch.get("x")[:, 1])

    @pytest.mark.parametrize("param, index, message", [
        ("y", 2, "outside 'y'"), ("y", -1, "outside 'y'"), ("y", 1.0, "outside 'y'"),
        ("y", True, "outside 'y'"), ("x", 0, r"outside 'x', of shape \(\)"),
    ])
    def test_index_outside_the_parameter_is_rejected(self, param, index, message):
        arch = archive_from_chains([{"x": np.zeros(4), "y": np.zeros((4, 2))}])
        for read in (arch.get, arch.per_chain):
            with pytest.raises(ValidationError, match=message):
                read(param, index)

    def test_archive_without_draws_is_refused(self):
        config = McmcConfig(n_chains=1, n_iter=10, burn_in=5, thin=1, seed=0)
        arch = ChainArchive([{"x": np.zeros(0)}], np.arange(0), config)
        with pytest.raises(ValidationError, match="archive is empty"):
            arch.get("x")

    @pytest.mark.parametrize("diagnostic", [gelman_rubin, effective_sample_size, posterior_summary])
    def test_diagnostics_read_through_the_lookup(self, diagnostic):
        rng = np.random.default_rng(3)
        arch = archive_from_chains([{"x": rng.standard_normal((60, 3))} for _ in range(2)])
        with pytest.raises(ValidationError, match="no parameter 'w'"):
            diagnostic(arch, "w")
        with pytest.raises(ValidationError, match="outside 'x'"):
            diagnostic(arch, "x", 3)


class TestScaleLogRatio:
    def test_closed_form(self):
        log_s, quad, lin, power, prior = 0.3, 2.0, -0.5, 7.0, 0.25
        s = math.exp(log_s)
        expected = (-0.5 * (s - 1.0) ** 2 * quad + (s - 1.0) * lin + power * log_s
                    - prior * (s ** -2 - 1.0))
        assert mcmc.scale_log_ratio(log_s, quad, lin, power, prior) == pytest.approx(
            expected, rel=1e-12)

    @pytest.mark.parametrize("log_s", [300.5, -301.0, 1e6])
    def test_past_the_bound_every_move_is_rejected(self, log_s):
        assert abs(log_s) > mcmc.MAX_LOG_SCALE
        assert mcmc.scale_log_ratio(log_s, 1.0, 1.0, 3.0, 1.0) == -math.inf


class TestWorkerMap:
    def test_pool_is_capped_at_the_task_count(self, monkeypatch):
        sizes = recording_pool(monkeypatch)
        with worker_map(abs, [-1, 2, -3], 64) as results:
            assert list(results) == [1, 2, 3]
        assert sizes == [3]

    @pytest.mark.parametrize("tasks, n_workers", [([-1], 8), ([-1, -2], 1)])
    def test_one_task_or_worker_runs_in_process(self, monkeypatch, tasks, n_workers):
        sizes = recording_pool(monkeypatch)
        with worker_map(abs, tasks, n_workers) as results:
            assert list(results) == [-t for t in tasks]
        assert sizes == []

    @pytest.mark.parametrize("n_workers", [0, -2])
    def test_worker_count_below_one_is_rejected(self, monkeypatch, n_workers):
        sizes = recording_pool(monkeypatch)
        with pytest.raises(ValidationError, match=f"n_workers must be at least 1, got {n_workers}"):
            with worker_map(abs, [-1, -2], n_workers):
                pass
        assert sizes == []

    def test_worker_processes_keep_the_task_order(self):
        with worker_map(abs, [-5, -4, -3, -2, -1], 2) as results:
            assert list(results) == [5, 4, 3, 2, 1]

    @pytest.mark.skipif(sys.platform != "linux", reason="pools are built on Linux only")
    def test_pool_forks_its_workers(self):
        assert mcmc._POOL_CONTEXT.get_start_method() == "fork"

    def test_no_fork_context_runs_in_process(self, monkeypatch):
        sizes = recording_pool(monkeypatch)
        monkeypatch.setattr(mcmc, "_POOL_CONTEXT", None)
        with worker_map(abs, [-1, -2], 2) as results:
            assert list(results) == [1, 2]
        assert sizes == []


class TestDefaultWorkers:
    """``n_workers=None``: one worker per task up to the usable CPUs."""

    @pytest.mark.parametrize("cpus, tasks, expected", [(1, 2, []), (2, 2, [2]), (4, 3, [3])])
    def test_pool_size_follows_the_affinity_set(self, monkeypatch, cpus, tasks, expected):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        sizes = recording_pool(monkeypatch)
        with worker_map(abs, list(range(-tasks, 0)), None) as results:
            assert list(results) == list(range(tasks, 0, -1))
        assert sizes == expected


class TestRunChains:
    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_chain_c_gets_spawned_generator_c(self, n_workers):
        config = McmcConfig(n_chains=3, n_iter=10, burn_in=5, thin=1, seed=71)
        archive, extras = run_chains(FirstDraws, list("abc"), config, n_workers)
        expected = [rng.random(3).tolist() for rng in spawn_generators(71, 3)]
        assert extras == list(zip("abc", expected))
        assert archive.n_chains == 3
        assert archive.iterations.tolist() == config.retained_iterations().tolist()
        assert archive.get("x").tolist() == [0.0] * 15
        # each chain's metadata values, stamped once per chain
        stamped = {key: value for key, value in archive.metadata.items()
                   if key.startswith("chain")}
        assert stamped == {
            **{f"chain{c}_label": label for c, label in enumerate("abc")},
            **{f"chain{c}_steps": "10" for c in range(3)},
        }
        assert float(archive.metadata["wall_time_s"]) >= 0.0

    def test_payload_count_must_match_the_chains(self):
        config = McmcConfig(n_chains=2, n_iter=10, burn_in=5, thin=1, seed=71)
        with pytest.raises(ValueError):
            run_chains(FirstDraws, ["a"], config, 1)

    def test_config_retaining_no_draw_is_rejected_before_any_chain(self, monkeypatch):
        sizes = recording_pool(monkeypatch)
        config = McmcConfig(n_chains=2, n_iter=10, burn_in=5, thin=10, seed=0)
        assert config.n_retained == 0
        message = "n_iter - burn_in = 5 is below thin = 10, so the fit would retain no draws"
        with pytest.raises(ValidationError, match=message):
            run_chains(MustNotRun, [None, None], config, 2)
        assert sizes == []


class TestRunChain:
    def run(self, config):
        """Record every (it, gain) handed to step; the snapshot is the last it."""
        calls = []
        state = np.zeros(1)

        def step(it, gain):
            calls.append((it, gain))
            state[0] = it

        return calls, run_chain(config, step, lambda: {"it": state, "twice": 2.0 * state[0]})

    @pytest.mark.parametrize("burn_in, thin", [(30, 7), (0, 1), (99, 1)])
    def test_retained_stamps_follow_the_config(self, burn_in, thin):
        config = McmcConfig(n_chains=1, n_iter=100, burn_in=burn_in, thin=thin, seed=0)
        _, draws = self.run(config)
        stamps = config.retained_iterations()
        # the state is copied at each retained iteration, not aliased
        assert draws["it"].shape == (len(stamps), 1)
        assert draws["it"][:, 0].tolist() == stamps.tolist()
        assert draws["twice"].tolist() == (2.0 * stamps).tolist()

    def test_gain_decays_through_burn_in_then_is_zero(self):
        config = McmcConfig(n_chains=1, n_iter=50, burn_in=20, thin=5, seed=0)
        calls, _ = self.run(config)
        assert [it for it, _ in calls] == list(range(1, 51))
        assert [gain for _, gain in calls] == [
            it ** -0.6 if it <= 20 else 0.0 for it in range(1, 51)
        ]
        assert calls[0][1] == 1.0


class TestAdaptStep:
    @pytest.mark.parametrize("logr, signal", [
        (0.3, 1.0), (0.0, 1.0), (-0.5, np.exp(-0.5)), (-699.0, np.exp(-699.0)),
        (-701.0, 0.0), (-np.inf, 0.0), (np.nan, 0.0),
    ])
    def test_signal_is_the_acceptance_probability(self, logr, signal):
        # an accepted proposal with logr < 0 signals its probability, not 1
        gain = 0.37
        step = adapt_step(0.2, logr, gain)
        assert step == pytest.approx(0.2 * np.exp(gain * (signal - mcmc.ADAPT_TARGET)), rel=1e-15)

    def test_no_gain_keeps_the_step(self):
        assert adapt_step(0.2, -0.1, 0.0) == 0.2
