"""Tests for statistics and recorders."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.kernel.costs import CostModel
from repro.kernel.cpu import CpuCore, Work
from repro.metrics.recorder import (
    CpuUtilizationSampler,
    LatencyRecorder,
    ThroughputMeter,
)
from repro.metrics.stats import (
    order_statistic_ranks,
    quantile_interval,
    summarize_ns,
)
from repro.sim import Simulator


class TestStats:
    def test_summary_fields(self):
        summary = summarize_ns([1_000, 2_000, 3_000, 4_000])
        assert summary.count == 4
        assert summary.min_ns == 1_000
        assert summary.max_ns == 4_000
        assert summary.avg_ns == 2_500
        assert summary.p50_ns == 2_500

    def test_summary_empty_is_none(self):
        assert summarize_ns([]) is None

    def test_unit_conversion_properties(self):
        summary = summarize_ns([1_500])
        assert summary.avg_us == 1.5
        assert summary.p99_us == 1.5

    @given(st.lists(st.integers(0, 10**9), min_size=1, max_size=200))
    def test_summary_invariants(self, samples):
        summary = summarize_ns(samples)
        assert summary.min_ns <= summary.p50_ns <= summary.p99_ns
        assert summary.p99_ns <= summary.p999_ns <= summary.max_ns
        assert summary.min_ns <= summary.avg_ns <= summary.max_ns

    def test_str_render(self):
        assert "p99" in str(summarize_ns([1000]))

    def test_median_interval_of_ten_matches_the_textbook(self):
        # Count below the median ~ Binomial(10, 1/2): P(<2) = 11/1024
        # <= 2.5 % < P(<3) = 56/1024, and P(<9) = 1013/1024 >= 97.5 %
        # > P(<8) = 968/1024, so [X(2), X(9)] with 1002/1024 coverage.
        assert order_statistic_ranks(10, 0.5) == (2, 9)
        assert quantile_interval(range(10, 0, -1), 0.5) == (2.0, 9.0)

    def test_p99_of_300_samples_has_no_upper_bound(self):
        # P(all 300 below the p99) = 0.99**300 = 0.049 > 2.5 %: even the
        # maximum is not a 97.5 % upper bound.  P(<293) = 0.0115.
        assert order_statistic_ranks(300, 0.99) == (293, None)
        lo, hi = quantile_interval(range(300), 0.99)
        assert (lo, hi) == (292.0, math.inf)

    @given(st.integers(1, 400), st.floats(0.01, 0.99))
    def test_interval_ranks_ordered_and_in_range(self, n, q):
        lo, hi = order_statistic_ranks(n, q)
        assert lo is None or 1 <= lo <= n
        assert hi is None or 1 <= hi <= n
        if lo is not None and hi is not None:
            assert lo < hi


class TestRecorders:
    def test_latency_recorder_warmup_gating(self):
        recorder = LatencyRecorder(warmup_until_ns=100)
        recorder.record(5, at_ns=50)
        recorder.record(7, at_ns=150)
        recorder.record(9)  # no timestamp: always kept
        assert list(recorder.samples_ns) == [7, 9]
        assert recorder.discarded == 1

    def test_latency_recorder_summary(self):
        recorder = LatencyRecorder()
        recorder.record(100)
        recorder.record(300)
        assert recorder.summary().avg_ns == 200

    def test_latency_recorder_uses_compact_storage(self):
        recorder = LatencyRecorder()
        recorder.record(7)
        recorder.record(9)
        assert recorder.samples_ns.typecode == "q"
        assert list(recorder.samples_ns) == [7, 9]
        assert recorder.summary().avg_ns == 8

    def test_throughput_meter(self):
        meter = ThroughputMeter(warmup_until_ns=1_000)
        meter.record(500, nbytes=10)   # warmup: ignored
        meter.record(1_500, nbytes=20)
        meter.record(2_500, nbytes=30)
        assert meter.count == 2
        assert meter.bytes == 50
        assert meter.first_at == 1_500
        assert meter.last_at == 2_500

    def test_cpu_sampler_window(self):
        sim = Simulator()
        core = CpuCore(sim, 0, CostModel().replace(cstate_levels=()))

        def thread():
            yield Work(40_000)

        sampler = CpuUtilizationSampler(core, lambda: sim.now)
        core.spawn(thread())
        sim.run(until=100_000)
        assert sampler.utilization() == pytest.approx(0.4)
        sampler.mark()
        sim.run(until=200_000)
        assert sampler.utilization() == 0.0

    def test_cpu_sampler_softirq_fraction(self):
        sim = Simulator()
        core = CpuCore(sim, 0, CostModel().replace(cstate_levels=()))

        def handler():
            if core.charge_softirq(30_000):
                yield 30_000

        core.register_softirq(3, handler)
        sampler = CpuUtilizationSampler(core, lambda: sim.now)
        core.raise_softirq(3)
        sim.run(until=100_000)
        assert sampler.softirq_fraction() == pytest.approx(0.3)


class TestThroughputMeterDiscarded:
    def test_warmup_events_are_counted_as_discarded(self):
        meter = ThroughputMeter(warmup_until_ns=1_000)
        meter.record(500, nbytes=100)
        meter.record(1_500, nbytes=200)
        assert meter.count == 1
        assert meter.bytes == 200
        assert meter.discarded == 1

    def test_summary_exposes_discarded(self):
        meter = ThroughputMeter(warmup_until_ns=10)
        meter.record(5)
        meter.record(20)
        summary = meter.summary()
        assert summary == {"count": 1, "bytes": 0, "discarded": 1,
                           "first_at": 20, "last_at": 20}
