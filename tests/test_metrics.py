"""Tests for statistics and recorders."""

import math
import random
from array import array

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


def _seeded_samples(n):
    """*n* integer ns samples spanning four to nine decimal digits."""
    rng = random.Random(n)
    return [rng.randrange(1_000, 10 ** rng.randint(4, 9)) for _ in range(n)]


#: n -> (min, avg, p50, p90, p99, p99.9, max) of ``summarize_ns`` and
#: the p50 and p99 ``quantile_interval`` ends, as numpy 2.4.6 computed
#: them (``np.percentile`` / ``np.mean`` on float64) for
#: ``_seeded_samples(n)``.  Interpolation weights on both sides of 0.5
#: occur (n = 2: p50 at 0.5; n = 10: p50 at 0.5, p90 at 0.1; n = 100:
#: p99 at 0.01); n = 1 and n = 101 land on a sample exactly.
NUMPY_GOLD = {
    1: ((75606.0, 75606.0, 75606.0, 75606.0, 75606.0, 75606.0, 75606.0),
        (-math.inf, math.inf, 75606.0, math.inf)),
    2: ((2500.0, 4707.5, 4707.5, 6473.5, 6870.85, 6910.585, 6915.0),
        (-math.inf, math.inf, 6915.0, math.inf)),
    3: ((78678.0, 6182055.333333333, 961437.0, 14197128.200000001,
         17175158.72, 17472961.772000004, 17506051.0),
        (-math.inf, math.inf, 961437.0, math.inf)),
    10: ((5509.0, 95554244.9, 3183135.0, 146240885.2999997,
          797980754.9300001, 863154741.8930012, 870396296.0),
         (61631.0, 65779173.0, 65779173.0, math.inf)),
    100: ((2310.0, 109683089.58, 813677.5, 491798794.70000017,
           788063709.4600004, 856050347.1460007, 863604418.0),
          (252445.0, 5218438.0, 767451139.0, math.inf)),
    101: ((1524.0, 99585213.6039604, 965578.0, 386131945.0, 885302851.0,
           918516522.1000003, 922206930.0),
          (315789.0, 3844953.0, 849540141.0, math.inf)),
    300: ((1206.0, 86907952.05666667, 889999.0, 326214865.60000265,
           898701976.8099998, 973158746.7350005, 979452169.0),
          (595311.0, 3266649.0, 785535954.0, math.inf)),
    1000: ((1035.0, 92380357.796, 825729.0, 393880214.6000001,
            942044692.7199999, 985147073.7150006, 992015913.0),
           (671131.0, 1290855.0, 880420355.0, 977105812.0)),
    1001: ((1038.0, 108271923.12187812, 873710.0, 509987301.0,
            960949240.0, 994435522.0, 994785154.0),
           (665143.0, 1274364.0, 933251103.0, 990176129.0)),
    21217: ((1001.0, 92841460.9056417, 920768.0, 394417453.6000004,
             941926972.8800001, 993322122.0960001, 999707133.0),
            (888552.0, 962153.0, 933164783.0, 950811136.0)),
}


class TestNumpyEquivalence:
    """The standard-library summaries equal numpy's, bit for bit."""

    @pytest.mark.parametrize("n", sorted(NUMPY_GOLD))
    def test_summary_matches_numpy(self, n):
        fields, _ = NUMPY_GOLD[n]
        for samples in (_seeded_samples(n), array("q", _seeded_samples(n))):
            s = summarize_ns(samples)
            assert s.count == n
            assert (s.min_ns, s.avg_ns, s.p50_ns, s.p90_ns, s.p99_ns,
                    s.p999_ns, s.max_ns) == fields

    @pytest.mark.parametrize("n", sorted(NUMPY_GOLD))
    def test_quantile_interval_matches_numpy(self, n):
        _, ends = NUMPY_GOLD[n]
        samples = _seeded_samples(n)
        assert (quantile_interval(samples, 0.5)
                + quantile_interval(samples, 0.99)) == ends

    def test_summary_fields_are_floats(self):
        s = summarize_ns(array("q", [3, 1, 2]))
        assert all(type(v) is float for v in (
            s.min_ns, s.avg_ns, s.p50_ns, s.p90_ns, s.p99_ns, s.p999_ns,
            s.max_ns))
        assert type(quantile_interval(range(10), 0.5)[0]) is float


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
