"""Tests for FaultPlan: parsing, serialization, and config integration."""

import json
import pickle

import pytest

from repro.bench.experiment import ExperimentConfig, ExperimentResult
from repro.bench.digest import jsonable
from repro.bench.runner import config_key
from repro.faults import (
    FaultPlan,
    IrqLoss,
    LinkFlap,
    PacketLoss,
    RetryPolicy,
    RingBurst,
    SkbAllocFailure,
)
from repro.faults.plan import _time_to_ns
from repro.sim.units import MS, US


class TestTimeParsing:
    def test_suffixes(self):
        assert _time_to_ns("80ms") == 80 * MS
        assert _time_to_ns("50us") == 50 * US
        assert _time_to_ns("1s") == 1_000_000_000
        assert _time_to_ns("7ns") == 7
        assert _time_to_ns("1234") == 1234

    def test_fractional(self):
        assert _time_to_ns("1.5ms") == 1_500_000

    def test_garbage_raises(self):
        with pytest.raises(ValueError):
            _time_to_ns("fast")


class TestParse:
    def test_full_spec(self):
        plan = FaultPlan.parse(
            "burst@80ms x2.5; loss:eth:0.1@100ms-200ms; loss:wire:0.05; "
            "skbfail:0.01; irqloss:0.02; flap@50ms+2ms!; seed=3; "
            "retries=7; timeout=4ms; backoff=1.5; jitter=0.2")
        assert plan.seed == 3
        assert plan.ring_bursts == (RingBurst(at_ns=80 * MS, factor=2.5),)
        assert plan.losses == (
            PacketLoss(site="eth", p=0.1, start_ns=100 * MS, end_ns=200 * MS),
            PacketLoss(site="wire", p=0.05))
        assert plan.skb_alloc == SkbAllocFailure(p=0.01)
        assert plan.irq_loss == IrqLoss(p=0.02)
        assert plan.link_flaps == (
            LinkFlap(at_ns=50 * MS, duration_ns=2 * MS, flush_ring=True),)
        assert plan.retry == RetryPolicy(timeout_ns=4 * MS, max_retries=7,
                                         backoff_factor=1.5, jitter_frac=0.2)

    def test_defaults(self):
        plan = FaultPlan.parse("burst@10ms")
        assert plan.ring_bursts[0].factor == 2.0
        assert plan.seed == 1
        assert plan.retry == RetryPolicy()

    def test_empty_clauses_ignored(self):
        assert FaultPlan.parse("; burst@1ms ;;") == \
            FaultPlan(ring_bursts=(RingBurst(at_ns=1 * MS),))

    def test_unknown_clause_raises_with_offending_text(self):
        with pytest.raises(ValueError, match="bananas"):
            FaultPlan.parse("burst@1ms; bananas")

    def test_malformed_clause_raises(self):
        with pytest.raises(ValueError, match="burst@"):
            FaultPlan.parse("burst@soon")


class TestLossWindows:
    def test_unbounded(self):
        loss = PacketLoss(site="eth", p=0.5)
        assert loss.active_at(0) and loss.active_at(10**12)

    def test_window_half_open(self):
        loss = PacketLoss(site="eth", p=0.5, start_ns=100, end_ns=200)
        assert not loss.active_at(99)
        assert loss.active_at(100)
        assert loss.active_at(199)
        assert not loss.active_at(200)


class TestPlanValueSemantics:
    def plan(self):
        return FaultPlan.parse(
            "burst@80ms; loss:eth:0.1@1ms-2ms; skbfail:0.01; irqloss:0.02; "
            "flap@50ms+2ms!; seed=9; retries=3; timeout=2ms")

    def test_hashable(self):
        assert hash(self.plan()) == hash(self.plan())

    def test_picklable(self):
        plan = self.plan()
        assert pickle.loads(pickle.dumps(plan)) == plan

    def test_dict_round_trip_through_json(self):
        """``to_dict`` is the plan block of the injector summary, which
        the result digest and the cache's JSON entries carry."""
        data = self.plan().to_dict()
        assert json.loads(json.dumps(data)) == data
        assert data["losses"] == [{"site": "eth", "p": 0.1,
                                   "start_ns": 1 * MS, "end_ns": 2 * MS}]

    def test_replace(self):
        plan = self.plan()
        assert plan.replace(seed=4).seed == 4
        assert plan.replace(seed=4).losses == plan.losses


class TestConfigIntegration:
    """The faults field is encoded and keyed like every other field."""

    def test_none_is_written_to_to_dict(self):
        """The cache entry writes every field, ``None`` included."""
        result = ExperimentResult(
            config=ExperimentConfig(), fg_latency=None, fg_samples_ns=[],
            fg_sent=0, fg_replies=0, fg_delivered_pps=0.0,
            bg_delivered_pps=0.0, cpu_utilization=0.0, softirq_fraction=0.0)
        entry = result.to_dict()
        assert entry["config"]["faults"] is None
        assert entry["fault_summary"] is None

    def test_none_is_written_to_jsonable(self):
        assert jsonable(ExperimentConfig())["faults"] is None

    def test_config_round_trips_with_plan(self):
        """Configs reach the worker pool pickled."""
        config = ExperimentConfig(faults=FaultPlan.parse("burst@1ms"))
        assert pickle.loads(pickle.dumps(config)) == config

    def test_config_round_trips_without_plan(self):
        config = ExperimentConfig()
        assert pickle.loads(pickle.dumps(config)) == config

    def test_plan_changes_cache_key(self):
        base = ExperimentConfig()
        faulted = ExperimentConfig(faults=FaultPlan.parse("burst@1ms"))
        assert config_key(base) != config_key(faulted)

    def test_distinct_plans_distinct_cache_keys(self):
        a = ExperimentConfig(faults=FaultPlan.parse("burst@1ms"))
        b = ExperimentConfig(faults=FaultPlan.parse("burst@2ms"))
        assert config_key(a) != config_key(b)
