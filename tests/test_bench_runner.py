"""Tests for the parallel cached experiment runner (`repro.bench.runner`).

Pins the determinism contract the runner's two optimizations rest on:
the same seed + config must produce a byte-identical
:class:`ExperimentResult` whether executed serially, through a worker
pool, or served from the on-disk cache.
"""

import dataclasses
import pickle

import pytest

from repro.bench.experiment import ExperimentConfig, run_experiment
from repro.bench.runner import (
    ResultCache,
    code_version,
    config_key,
    result_digest,
    run_batch,
    run_experiments,
    run_repeated,
)
from repro.prism.mode import StackMode
from repro.sim.units import MS

FAST = dict(duration_ns=30 * MS, warmup_ns=10 * MS)


def _configs():
    return [
        ExperimentConfig(mode=StackMode.VANILLA, fg_rate_pps=2_000, **FAST),
        ExperimentConfig(mode=StackMode.PRISM_SYNC, fg_rate_pps=2_000,
                         bg_rate_pps=50_000, **FAST),
    ]


class TestCacheKey:
    def test_key_is_stable_across_calls(self):
        config = ExperimentConfig(fg_rate_pps=2_000, **FAST)
        assert config_key(config) == config_key(config)

    def test_key_distinguishes_configs(self):
        a = ExperimentConfig(fg_rate_pps=2_000, **FAST)
        b = ExperimentConfig(fg_rate_pps=2_000, seed=7, **FAST)
        c = ExperimentConfig(fg_rate_pps=2_000, mode=StackMode.PRISM_SYNC,
                             **FAST)
        assert len({config_key(a), config_key(b), config_key(c)}) == 3

    def test_key_includes_code_version(self):
        assert code_version() in ("", code_version())  # memoized and stable
        assert len(code_version()) == 16

    def test_digest_equal_iff_results_equal(self):
        config = ExperimentConfig(fg_rate_pps=2_000, **FAST)
        a = run_experiment(config)
        b = run_experiment(config)
        assert result_digest(a) == result_digest(b)
        # The digest hashes measurements, not the config: a different
        # fg rate measures differently.  (A different seed alone would
        # not — the periodic sockperf cell draws no randomness.)
        other = run_experiment(dataclasses.replace(config, fg_rate_pps=3_000))
        assert result_digest(a) != result_digest(other)


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        config = ExperimentConfig(fg_rate_pps=2_000, **FAST)
        result = run_experiment(config)
        cache = ResultCache(tmp_path)
        assert cache.get(config) is None
        cache.put(config, result)
        cached = cache.get(config)
        assert cached is not None
        assert result_digest(cached) == result_digest(result)
        assert cache.hits == 1 and cache.misses == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        config = ExperimentConfig(fg_rate_pps=2_000, **FAST)
        cache = ResultCache(tmp_path)
        cache.put(config, run_experiment(config))
        path = cache._path(config_key(config))
        path.write_bytes(b"not a pickle")
        assert cache.get(config) is None


class TestDeterminism:
    def test_serial_parallel_cached_identical(self, tmp_path):
        """Same configs ⇒ byte-identical results through every path."""
        configs = _configs()
        serial = run_experiments(configs, jobs=1, cache=False)
        parallel = run_experiments(configs, jobs=2, cache=False)
        warm = run_batch(configs, jobs=2, cache=True, cache_dir=tmp_path)
        cached = run_batch(configs, jobs=1, cache=True, cache_dir=tmp_path)

        serial_digests = [result_digest(r) for r in serial]
        assert [result_digest(r) for r in parallel] == serial_digests
        assert [result_digest(r) for r in warm.results] == serial_digests
        assert [result_digest(r) for r in cached.results] == serial_digests
        # Second invocation is served entirely from the cache.
        assert warm.cache_misses == len(configs)
        assert cached.cache_hits == len(configs)
        assert cached.cache_misses == 0

    def test_results_keep_config_order(self, tmp_path):
        configs = _configs()
        results = run_experiments(configs, jobs=2, cache=True,
                                  cache_dir=tmp_path)
        for config, result in zip(configs, results):
            assert result.config == config

    def test_mixed_hit_miss_batch(self, tmp_path):
        """A batch with some cached and some fresh configs stays ordered."""
        configs = _configs()
        run_experiments(configs[:1], cache=True, cache_dir=tmp_path)
        report = run_batch(configs, cache=True, cache_dir=tmp_path)
        assert report.cache_hits == 1
        assert report.cache_misses == 1
        assert [r.config for r in report.results] == configs

    def test_results_pickle_roundtrip(self):
        """Worker-pool transport must not perturb the result."""
        result = run_experiment(ExperimentConfig(fg_rate_pps=2_000, **FAST))
        clone = pickle.loads(pickle.dumps(result))
        assert result_digest(clone) == result_digest(result)


class TestRepeatedRuns:
    def test_stability_across_seeds(self, tmp_path):
        config = ExperimentConfig(fg_rate_pps=2_000, **FAST)
        repeated = run_repeated(config, seeds=[1, 2, 3], cache=True,
                                cache_dir=tmp_path)
        assert repeated.seeds == [1, 2, 3]
        assert len(repeated.results) == 3
        stat = repeated.stability["fg_avg_ns"]
        assert stat.n == 3
        assert stat.mean > 0
        assert stat.rel_stdev < 0.5  # same scenario, different seeds
        # Each per-seed run really used its seed.
        assert [r.config.seed for r in repeated.results] == [1, 2, 3]

    def test_same_seed_zero_spread(self, tmp_path):
        config = ExperimentConfig(fg_rate_pps=2_000, **FAST)
        repeated = run_repeated(config, seeds=[5, 5], cache=False)
        stat = repeated.stability["fg_avg_ns"]
        assert stat.stdev == 0.0

    def test_requires_seeds(self):
        with pytest.raises(ValueError):
            run_repeated(ExperimentConfig(**FAST), seeds=[])


class TestCounterSelection:
    """Satellite: fg counters are selected by network type, not truthiness."""

    def test_host_run_uses_host_counters(self, monkeypatch):
        import repro.bench.experiment as exp_mod
        captured = {}
        real_setup = exp_mod._host_network_setup

        def spy(testbed, config, recorder):
            fg_meter, bg_meter, counters = real_setup(
                testbed, config, recorder)
            captured["counters"] = counters
            return fg_meter, bg_meter, counters

        monkeypatch.setattr(exp_mod, "_host_network_setup", spy)
        result = run_experiment(ExperimentConfig(
            network="host", fg_rate_pps=2_000, **FAST))
        assert result.fg_sent == captured["counters"]["fg_sent"]
        assert result.fg_replies == captured["counters"]["fg_replies"]
        assert result.fg_sent > 0

    def test_overlay_run_uses_client_counters(self, monkeypatch):
        import repro.bench.experiment as exp_mod
        captured = {}
        real_setup = exp_mod._overlay_setup

        def spy(testbed, config, recorder):
            fg_meter, bg_meter, fg_client = real_setup(
                testbed, config, recorder)
            captured["client"] = fg_client
            return fg_meter, bg_meter, fg_client

        monkeypatch.setattr(exp_mod, "_overlay_setup", spy)
        result = run_experiment(ExperimentConfig(fg_rate_pps=2_000, **FAST))
        assert result.fg_sent == captured["client"].sent
        assert result.fg_replies == captured["client"].replies
        assert result.fg_sent > 0
