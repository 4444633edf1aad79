"""Registry semantics + OpenMetrics exposition golden.

The registry is the aggregate-telemetry wire format: its snapshot rides
inside ``ExperimentResult`` and its text exposition is what
``--metrics`` writes, so both are pinned here — including an exact
exposition golden (format drift would silently break downstream tooling
like promtool or the metrics differ).
"""

from __future__ import annotations

import pytest

from repro.telemetry import MetricsRegistry, SNAPSHOT_VERSION
from repro.telemetry.openmetrics import render_openmetrics


class TestCounter:
    def test_unlabeled_counter_is_its_own_child(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_ticks", "ticks")
        c.inc()
        c.inc(4)
        assert c.value == 5
        assert c.labels().value == 5

    def test_labeled_counter_children_are_independent(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_drops", "drops", ("queue",))
        c.labels("ring").inc(3)
        c.labels("backlog").inc()
        assert c.labels("ring").value == 3
        assert c.labels("backlog").value == 1

    def test_counter_rejects_negative_increment(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_ticks", "ticks")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_set_total_overwrites_with_scraped_value(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_rx", "rx", ("dev",))
        c.labels("eth").set_total(100)
        c.labels("eth").set_total(250)
        assert c.labels("eth").value == 250

    def test_label_values_are_stringified(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_irqs", "irqs", ("cpu",))
        c.labels(0).inc()
        assert c.labels("0").value == 1

    def test_label_arity_mismatch_raises(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_drops", "drops", ("queue",))
        with pytest.raises(ValueError):
            c.labels("a", "b")


class TestGauge:
    def test_set_inc_dec(self):
        reg = MetricsRegistry()
        g = reg.gauge("repro_depth", "depth")
        g.set(10)
        g.inc(2)
        g.dec(5)
        assert g.current() == 7

    def test_callback_gauge_reads_source_at_collect_time(self):
        reg = MetricsRegistry()
        g = reg.gauge("repro_util", "utilization", ("cpu",))
        state = {"v": 0.25}
        g.labels(0).set_function(lambda: state["v"])
        assert g.labels(0).current() == 0.25
        state["v"] = 0.75
        assert g.labels(0).current() == 0.75

    def test_callback_gauge_maps_none_to_zero(self):
        reg = MetricsRegistry()
        g = reg.gauge("repro_first_at", "first event")
        g.set_function(lambda: None)
        assert g.current() == 0


class TestHistogram:
    def test_observe_fills_buckets_cumulatively(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_batch", "batch", buckets=(1, 4, 16))
        for v in (1, 2, 5, 100):
            h.observe(v)
        child = h.labels()
        assert child.cumulative() == [1, 2, 3, 4]
        assert child.sum == 108
        assert child.count == 4

    def test_labeled_histogram_requires_labels_for_observe(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_batch", "batch", ("napi",))
        with pytest.raises(ValueError):
            h.observe(3)
        h.labels("eth").observe(3)
        assert h.labels("eth").count == 1

    def test_empty_bucket_list_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.histogram("repro_batch", "batch", buckets=())


class TestRegistry:
    def test_reregistration_is_idempotent_for_identical_shape(self):
        reg = MetricsRegistry()
        a = reg.counter("repro_x", "x", ("l",))
        b = reg.counter("repro_x", "x", ("l",))
        assert a is b

    def test_reregistration_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("repro_x", "x", ("l",))
        with pytest.raises(ValueError):
            reg.gauge("repro_x", "x", ("l",))
        with pytest.raises(ValueError):
            reg.counter("repro_x", "x", ("other",))

    def test_invalid_metric_names_rejected(self):
        reg = MetricsRegistry()
        for bad in ("", "9lives", "has space", "dash-ed"):
            with pytest.raises(ValueError):
                reg.counter(bad, "bad")

    def test_snapshot_shape_and_version(self):
        reg = MetricsRegistry()
        reg.counter("repro_c", "c", ("l",)).labels("a").inc(2)
        reg.gauge("repro_g", "g").set(1.5)
        reg.histogram("repro_h", "h", buckets=(1, 2)).observe(1)
        snap = reg.snapshot()
        assert snap["version"] == SNAPSHOT_VERSION
        assert snap["metrics"]["repro_c"]["type"] == "counter"
        assert snap["metrics"]["repro_c"]["samples"] == [
            {"labels": {"l": "a"}, "value": 2}]
        assert snap["metrics"]["repro_g"]["samples"] == [
            {"labels": {}, "value": 1.5}]
        hist = snap["metrics"]["repro_h"]["samples"][0]
        assert hist["buckets"] == {"1.0": 1, "2.0": 1, "+Inf": 1}
        assert hist["sum"] == 1 and hist["count"] == 1

    def test_children_sorted_by_label_values_in_snapshot(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_c", "c", ("l",))
        c.labels("zeta").inc()
        c.labels("alpha").inc()
        values = [s["labels"]["l"]
                  for s in reg.snapshot()["metrics"]["repro_c"]["samples"]]
        assert values == ["alpha", "zeta"]


class TestOpenMetricsExposition:
    def test_exposition_golden(self):
        """Exact text format — pinned so downstream parsers never drift."""
        reg = MetricsRegistry()
        c = reg.counter("repro_drops", "Packets dropped", ("queue",))
        c.labels("ring").inc(7)
        c.labels('we"ird\\q').inc(1)
        g = reg.gauge("repro_depth", "Queue depth", ("queue",))
        g.labels("ring").set(3)
        h = reg.histogram("repro_batch", "Batch size", ("napi",),
                          buckets=(1, 8))
        h.labels("eth").observe(1)
        h.labels("eth").observe(5)
        assert render_openmetrics(reg) == (
            '# TYPE repro_drops counter\n'
            '# HELP repro_drops Packets dropped\n'
            'repro_drops_total{queue="ring"} 7\n'
            'repro_drops_total{queue="we\\"ird\\\\q"} 1\n'
            '# TYPE repro_depth gauge\n'
            '# HELP repro_depth Queue depth\n'
            'repro_depth{queue="ring"} 3\n'
            '# TYPE repro_batch histogram\n'
            '# HELP repro_batch Batch size\n'
            'repro_batch_bucket{napi="eth",le="1"} 1\n'
            'repro_batch_bucket{napi="eth",le="8"} 2\n'
            'repro_batch_bucket{napi="eth",le="+Inf"} 2\n'
            'repro_batch_sum{napi="eth"} 6\n'
            'repro_batch_count{napi="eth"} 2\n'
            '# EOF\n'
        )

    def test_exposition_is_deterministic(self):
        def build():
            reg = MetricsRegistry()
            c = reg.counter("repro_c", "c", ("l",))
            for v in ("b", "a", "c"):
                c.labels(v).inc()
            reg.gauge("repro_g", "g").set(0.5)
            return render_openmetrics(reg)

        assert build() == build()

    def test_exposition_ends_with_eof(self):
        assert render_openmetrics(MetricsRegistry()) == "# EOF\n"

    def test_label_value_escaping(self):
        """Exposition format: label values escape \\, ", and newline."""
        reg = MetricsRegistry()
        c = reg.counter("repro_c", "c", ("l",))
        c.labels('a\\b"c\nd').inc()
        line = [l for l in render_openmetrics(reg).splitlines()
                if l.startswith("repro_c_total")][0]
        assert line == 'repro_c_total{l="a\\\\b\\"c\\nd"} 1'

    def test_help_escaping_quotes_pass_through(self):
        """HELP text is unquoted: only \\ and newline are escaped there —
        a double quote must appear verbatim (regression: it used to be
        escaped like a label value)."""
        reg = MetricsRegistry()
        reg.counter("repro_c", 'drops on "ring" queues\nper class\\site')
        help_line = [l for l in render_openmetrics(reg).splitlines()
                     if l.startswith("# HELP ")][0]
        assert help_line == (
            '# HELP repro_c drops on "ring" queues\\nper class\\\\site')
