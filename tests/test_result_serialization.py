"""The disk cache: the one place a result is encoded and read back.

Configs are encoded by :func:`repro.bench.digest.jsonable` (the cache
key) and never decoded: :meth:`ResultCache.get` hands the config it
looked up to :meth:`ExperimentResult.from_dict`.  The result round trip
must be *exact* — every float and the latency summary — or cache hits
would silently perturb the figures.
"""

import dataclasses
import json

import pytest

from repro.bench import figures
from repro.bench import runner
from repro.bench.digest import jsonable
from repro.bench.experiment import (
    ExperimentConfig,
    ExperimentResult,
    run_experiment,
)
from repro.bench.runner import ResultCache, config_key, result_digest
from repro.kernel.config import KernelConfig
from repro.kernel.costs import CostModel
from repro.prism.mode import StackMode
from repro.scenario import run_scenarios
from repro.sim.units import MS

FAST = dict(duration_ns=30 * MS, warmup_ns=10 * MS)

#: Exercises every special case: enum mode, nested frozen configs,
#: nested tuple-of-tuples (cstate_levels), non-integral floats.
FULL_CONFIG = ExperimentConfig(
    mode=StackMode.PRISM_SYNC, fg_rate_pps=1_234.5, bg_rate_pps=50_000,
    costs=CostModel().replace(hardirq_ns=777,
                              cstate_levels=((100, 500), (2_000, 9_000))),
    kernel_config=KernelConfig(napi_weight=16,
                               initial_mode=StackMode.PRISM_BATCH),
    **FAST)


class TestConfigRoundTrip:
    def test_json_round_trip_is_exact(self):
        """The key's encoding survives JSON unchanged and keeps every
        nested value apart, so the key tells all configs apart."""
        encoded = jsonable(FULL_CONFIG)
        assert json.loads(json.dumps(encoded)) == encoded
        assert encoded["mode"] == ["StackMode", "prism-sync"]
        assert encoded["kernel_config"]["initial_mode"] == [
            "StackMode", "prism-batch"]
        assert encoded["costs"]["cstate_levels"] == [[100, 500],
                                                    [2_000, 9_000]]
        for changed in (
                dataclasses.replace(FULL_CONFIG, fg_rate_pps=1_234.25),
                dataclasses.replace(FULL_CONFIG, costs=FULL_CONFIG.costs.replace(
                    cstate_levels=((100, 500), (2_000, 9_001)))),
                dataclasses.replace(FULL_CONFIG, kernel_config=KernelConfig(
                    napi_weight=16))):
            assert config_key(changed) != config_key(FULL_CONFIG)

    def test_default_config_round_trip(self):
        """The default config's encoding writes every field (no
        omit-when-default keys) and survives JSON unchanged."""
        encoded = jsonable(ExperimentConfig())
        assert list(encoded) == ["__class__", *(
            f.name for f in dataclasses.fields(ExperimentConfig))]
        assert json.loads(json.dumps(encoded)) == encoded


class TestResultRoundTrip:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment(ExperimentConfig(fg_rate_pps=2_000,
                                               bg_rate_pps=50_000, **FAST))

    def test_json_round_trip_is_digest_identical(self, result):
        wire = json.loads(json.dumps(result.to_dict()))
        restored = ExperimentResult.from_dict(wire, result.config)
        assert result_digest(restored) == result_digest(result)
        assert restored == result

    def test_latency_summary_survives(self, result):
        restored = ExperimentResult.from_dict(result.to_dict(), result.config)
        assert restored.fg_latency == result.fg_latency
        assert restored.fg_samples_ns == result.fg_samples_ns

    def test_newer_schema_rejected(self, result, tmp_path, monkeypatch):
        """The code digest is the entry format's version: an entry
        written by other code sits under another key and is never read."""
        cache = ResultCache(tmp_path)
        with monkeypatch.context() as patch:
            patch.setattr(runner, "_code_digest", "0" * 16)
            cache.put(result.config, result)
        assert cache.get(result.config) is None
        cache.put(result.config, result)
        assert cache.get(result.config) == result
        assert len(list(tmp_path.glob("*.json"))) == 2


class TestJsonCache:
    def test_cache_entries_are_json_files(self, tmp_path):
        config = ExperimentConfig(fg_rate_pps=2_000, **FAST)
        result = run_experiment(config)
        cache = ResultCache(tmp_path)
        cache.put(config, result)
        entries = list(tmp_path.glob("*.json"))
        assert len(entries) == 1
        with entries[0].open(encoding="utf-8") as fh:
            doc = json.load(fh)  # plain JSON, inspectable without pickle
        # The config is written for readers; it is never read back.
        assert doc["config"] == json.loads(json.dumps(jsonable(config)))
        cached = cache.get(config)
        assert cached is not None
        assert cached.config is config
        assert result_digest(cached) == result_digest(result)

    def test_valid_json_wrong_shape_is_a_miss(self, tmp_path):
        config = ExperimentConfig(fg_rate_pps=2_000, **FAST)
        cache = ResultCache(tmp_path)
        cache.put(config, run_experiment(config))
        from repro.bench.runner import config_key as key
        cache._path(key(config)).write_text('{"version": 1}',
                                            encoding="utf-8")
        assert cache.get(config) is None

    def test_traced_result_round_trips_breakdown(self, tmp_path):
        """stage_breakdown (set by traced runs) survives the cache."""
        config = ExperimentConfig(fg_rate_pps=2_000, **FAST)
        result = run_experiment(config)
        result = dataclasses.replace(
            result, stage_breakdown={"version": 1, "path": ["eth"],
                                     "end_to_end_ns": 10.0, "packets": 1,
                                     "excluded": 0, "segments": []})
        restored = ExperimentResult.from_dict(
            json.loads(json.dumps(result.to_dict())), config)
        assert restored.stage_breakdown == result.stage_breakdown


def _no_fresh_runs(monkeypatch):
    """Make any cache miss fail: every result must come from disk."""
    def fresh(config):
        raise AssertionError(f"cache miss for {config.label()}")
    monkeypatch.setattr(runner, "run_experiment", fresh)


class TestCachedDecodePath:
    """``ResultCache.get`` end to end, through the runner and a figure."""

    def test_second_run_is_all_hits_with_the_requested_configs(
            self, tmp_path, monkeypatch):
        configs = [ExperimentConfig(fg_rate_pps=2_000, **FAST),
                   dataclasses.replace(FULL_CONFIG, fg_rate_pps=2_000)]
        first = run_scenarios(configs, cache=True, cache_dir=tmp_path)
        _no_fresh_runs(monkeypatch)
        second = run_scenarios(configs, cache=True, cache_dir=tmp_path)
        for config, cold, warm in zip(configs, first, second):
            assert warm.config is config
            assert result_digest(warm) == result_digest(cold)
            assert warm == cold

    def test_figure_rows_identical_when_served_from_the_cache(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv(runner.CACHE_DIR_ENV, str(tmp_path))
        monkeypatch.setattr(figures, "_RUN", dict(figures._RUN))
        figures.configure(cache=True)
        cold = figures.reproduce("fig10", scale=0.05)
        assert len(list(tmp_path.glob("*.json"))) == len(StackMode)
        _no_fresh_runs(monkeypatch)
        assert figures.reproduce("fig10", scale=0.05) == cold

    def test_wrong_shape_entry_is_a_miss(self, tmp_path):
        """Valid JSON the decoder cannot use — not an object, or a
        latency summary with the wrong fields — is a miss, not an
        error."""
        config = ExperimentConfig(fg_rate_pps=2_000, **FAST)
        cache = ResultCache(tmp_path)
        cache.put(config, run_experiment(config))
        path = cache._path(config_key(config))
        entry = json.loads(path.read_text(encoding="utf-8"))
        entry["fg_latency"] = {"count": 1}
        for text in ("[1, 2, 3]", json.dumps(entry)):
            path.write_text(text, encoding="utf-8")
            assert cache.get(config) is None
        assert (cache.hits, cache.misses) == (0, 2)
