"""Tests for statistics, histograms, CDFs, and recorders."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.kernel.costs import CostModel
from repro.kernel.cpu import CpuCore, Work
from repro.metrics.cdf import Cdf
from repro.metrics.histogram import LogHistogram
from repro.metrics.recorder import (
    CpuUtilizationSampler,
    LatencyRecorder,
    ThroughputMeter,
)
from repro.metrics.stats import (
    order_statistic_ranks,
    percentile,
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

    def test_percentile_bounds(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1], 101)

    def test_percentile_interpolation(self):
        assert percentile([0, 10], 50) == 5.0

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


class TestLogHistogram:
    def test_basic_recording(self):
        hist = LogHistogram()
        hist.record_many([100, 200, 300])
        assert len(hist) == 3
        assert hist.mean == 200
        assert hist.min_value == 100
        assert hist.max_value == 300

    def test_empty_raises(self):
        hist = LogHistogram()
        with pytest.raises(ValueError):
            hist.mean
        with pytest.raises(ValueError):
            hist.percentile(50)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            LogHistogram(buckets_per_decade=0)
        hist = LogHistogram()
        with pytest.raises(ValueError):
            hist.record(10, count=0)
        hist.record(10)
        with pytest.raises(ValueError):
            hist.percentile(-1)

    def test_percentile_bounded_relative_error(self):
        hist = LogHistogram(buckets_per_decade=36)
        samples = [1_000 + 37 * i for i in range(1_000)]
        hist.record_many(samples)
        exact = percentile(samples, 99)
        approx = hist.percentile(99)
        assert abs(approx - exact) / exact < 0.10

    def test_merge(self):
        a = LogHistogram()
        b = LogHistogram()
        a.record_many([100, 200])
        b.record_many([300, 400])
        a.merge(b)
        assert len(a) == 4
        assert a.max_value == 400

    def test_merge_resolution_mismatch(self):
        a = LogHistogram(buckets_per_decade=36)
        b = LogHistogram(buckets_per_decade=10)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_zero_and_negative_values_bucketed(self):
        hist = LogHistogram()
        hist.record(0)
        hist.record(100)
        assert len(hist) == 2
        assert hist.percentile(1) == 0.0

    def test_buckets_sorted(self):
        hist = LogHistogram()
        hist.record_many([5_000, 50, 500])
        midpoints = [mid for mid, _count in hist.buckets()]
        assert midpoints == sorted(midpoints)

    @given(st.lists(st.floats(min_value=1, max_value=1e9,
                              allow_nan=False), min_size=1, max_size=100))
    def test_percentile_within_min_max(self, values):
        hist = LogHistogram()
        hist.record_many(values)
        for pct in (0, 50, 99, 100):
            result = hist.percentile(pct)
            assert hist.min_value <= result <= hist.max_value

    @given(st.lists(st.integers(1, 10**6), min_size=1, max_size=50),
           st.lists(st.integers(1, 10**6), min_size=1, max_size=50))
    def test_merge_equals_combined(self, first, second):
        merged = LogHistogram()
        merged.record_many(first)
        other = LogHistogram()
        other.record_many(second)
        merged.merge(other)
        combined = LogHistogram()
        combined.record_many(first + second)
        assert len(merged) == len(combined)
        assert merged.percentile(50) == combined.percentile(50)
        assert math.isclose(merged.total, combined.total)


class TestCdf:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Cdf([])

    def test_at_and_quantile(self):
        cdf = Cdf([10, 20, 30, 40])
        assert cdf.at(5) == 0.0
        assert cdf.at(25) == 0.5
        assert cdf.at(100) == 1.0
        assert cdf.quantile(0) == 10
        assert cdf.quantile(1) == 40

    def test_quantile_bounds(self):
        with pytest.raises(ValueError):
            Cdf([1]).quantile(1.5)

    def test_points_monotonic(self):
        cdf = Cdf(list(range(100)))
        points = cdf.points(20)
        values = [v for v, _q in points]
        probs = [q for _v, q in points]
        assert values == sorted(values)
        assert probs == sorted(probs)

    def test_points_requires_two(self):
        with pytest.raises(ValueError):
            Cdf([1]).points(1)

    @given(st.lists(st.integers(0, 10**6), min_size=2, max_size=100))
    def test_at_quantile_roundtrip(self, samples):
        cdf = Cdf(samples)
        median = cdf.quantile(0.5)
        assert cdf.at(median) >= 0.5


class TestRecorders:
    def test_latency_recorder_warmup_gating(self):
        recorder = LatencyRecorder(warmup_until_ns=100)
        recorder.record(5, at_ns=50)
        recorder.record(7, at_ns=150)
        recorder.record(9)  # no timestamp: always kept
        assert list(recorder.samples_ns) == [7, 9]
        assert recorder.discarded == 1

    def test_latency_recorder_summary_and_cdf(self):
        recorder = LatencyRecorder()
        recorder.record(100)
        recorder.record(300)
        assert recorder.summary().avg_ns == 200
        assert recorder.cdf().count == 2

    def test_throughput_meter(self):
        meter = ThroughputMeter(warmup_until_ns=1_000)
        meter.record(500, nbytes=10)   # warmup: ignored
        meter.record(1_500, nbytes=20)
        meter.record(2_500, nbytes=30)
        assert meter.count == 2
        assert meter.bytes == 50
        assert meter.first_at == 1_500
        assert meter.rate_per_sec(1_000, 1_000_000_000 + 1_000) == 2.0

    def test_throughput_meter_zero_window(self):
        meter = ThroughputMeter()
        assert meter.rate_per_sec(100, 100) == 0.0

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
