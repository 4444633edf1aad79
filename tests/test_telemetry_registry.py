"""The metrics snapshot and its OpenMetrics exposition.

The snapshot (``{"version": 1, "metrics": {...}}``) is the
aggregate-telemetry wire format: it rides inside ``ExperimentResult``,
``--metrics-json`` writes it and ``--metrics-diff`` reads it, and its
text exposition is what ``--metrics`` writes.  Both are pinned here —
including an exact exposition golden (format drift would silently break
downstream tooling like promtool or the metrics differ).  The snapshot
is read from a finished :class:`~repro.bench.cell.ExperimentCell` and
its :class:`~repro.obs.observer.KernelObserver`.
"""

from __future__ import annotations

import json
import re

import pytest

from repro.bench.cell import ExperimentCell
from repro.bench.experiment import ExperimentConfig
from repro.obs.observer import KernelObserver
from repro.sim.units import MS
from repro.telemetry import SNAPSHOT_VERSION, collect_metrics
from repro.telemetry.kernel import FAMILIES, batch_histogram
from repro.telemetry.openmetrics import render_openmetrics


def observed_cell(**overrides):
    """A short overlay cell run to its end, with its observer."""
    config = ExperimentConfig(**{
        "fg_rate_pps": 2_000, "bg_rate_pps": 50_000.0,
        "duration_ns": 4 * MS, "warmup_ns": 1 * MS, **overrides})
    observers = []

    def attach(testbed):
        observers.append(KernelObserver(testbed.server.kernel))

    cell = ExperimentCell(config, attach=attach)
    cell.run_to(cell.end_ns)
    return cell, observers[0]


def series(snapshot, name):
    return {tuple(s["labels"].values()): s["value"]
            for s in snapshot["metrics"][name]["samples"]}


@pytest.fixture(scope="module")
def snapshot():
    return collect_metrics(*observed_cell())


class TestCounter:
    def test_labeled_counter_children_are_independent(self, snapshot):
        """Deliveries count per socket, each equal to the deliveries its
        own receive queue accepted."""
        delivered = series(snapshot, "repro_socket_delivered")
        enqueued = series(snapshot, "repro_queue_enqueued")
        assert len(delivered) == 2
        assert len(set(delivered.values())) == 2
        for socket, n in delivered.items():
            assert n == enqueued[socket] > 0

    def test_label_values_are_stringified(self, snapshot):
        for family in snapshot["metrics"].values():
            for sample in family["samples"]:
                assert all(isinstance(v, str)
                           for v in sample["labels"].values())
        assert ("0", "softirq") in series(snapshot, "repro_cpu_time_ns")


class TestGauge:
    def test_callback_gauge_reads_source_at_collect_time(self):
        """Each collection reads the sources as they stand then."""
        cell, observer = observed_cell()
        first = collect_metrics(cell, observer)
        cell.run_to(cell.end_ns + 2 * MS)
        second = collect_metrics(cell, observer)
        events = [series(snap, "repro_meter_events")[
            (cell.fg_meter.name,)] for snap in (first, second)]
        assert events[0] < events[1] == cell.fg_meter.count

    def test_callback_gauge_maps_none_to_zero(self):
        """A meter that counted nothing has no first/last event time;
        its gauges read 0."""
        snap = collect_metrics(*observed_cell(bg_rate_pps=0.0))
        assert series(snap, "repro_meter_first_at_ns")[("bg",)] == 0
        assert series(snap, "repro_meter_last_at_ns")[("bg",)] == 0


class TestHistogram:
    def test_observe_fills_buckets_cumulatively(self):
        sample = batch_histogram({1: 1, 2: 1, 5: 1, 100: 1})
        assert sample["buckets"] == {
            "1.0": 1, "2.0": 2, "4.0": 2, "8.0": 3, "16.0": 3, "32.0": 3,
            "64.0": 3, "+Inf": 4}
        assert sample["sum"] == 108
        assert sample["count"] == 4


class TestRegistry:
    def test_snapshot_shape_and_version(self, snapshot):
        assert snapshot["version"] == SNAPSHOT_VERSION
        assert list(snapshot["metrics"]) == list(FAMILIES)
        for name, (kind, help_text, label_names) in FAMILIES.items():
            family = snapshot["metrics"][name]
            assert family["type"] == kind
            assert family["help"] == help_text
            assert family["label_names"] == list(label_names)
            keys = ({"labels", "buckets", "sum", "count"}
                    if kind == "histogram" else {"labels", "value"})
            for sample in family["samples"]:
                assert set(sample) == keys
                assert list(sample["labels"]) == list(label_names)

    def test_children_sorted_by_label_values_in_snapshot(self, snapshot):
        for family in snapshot["metrics"].values():
            keys = [tuple(s["labels"].values()) for s in family["samples"]]
            assert keys == sorted(keys)

    def test_family_and_label_names_are_valid(self):
        valid = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*\Z")
        for name, (kind, _help, label_names) in FAMILIES.items():
            assert valid.match(name) and kind in (
                "counter", "gauge", "histogram")
            assert all(valid.match(label) for label in label_names)


def family(kind, help_text, label_names, samples):
    return {"type": kind, "help": help_text,
            "label_names": list(label_names), "samples": samples}


def counter_snapshot(name, help_text, **values):
    """One single-label counter family; *values* maps label -> count."""
    return {"version": SNAPSHOT_VERSION, "metrics": {name: family(
        "counter", help_text, ("l",),
        [{"labels": {"l": l}, "value": v} for l, v in values.items()])}}


class TestOpenMetricsExposition:
    def test_exposition_golden(self):
        """Exact text format — pinned so downstream parsers never drift."""
        snapshot = {"version": SNAPSHOT_VERSION, "metrics": {
            "repro_drops": family("counter", "Packets dropped", ("queue",), [
                {"labels": {"queue": "ring"}, "value": 7},
                {"labels": {"queue": 'we"ird\\q'}, "value": 1}]),
            "repro_depth": family("gauge", "Queue depth", ("queue",), [
                {"labels": {"queue": "ring"}, "value": 3.0},
                {"labels": {"queue": "veth"}, "value": 0.5}]),
            "repro_batch": family("histogram", "Batch size", ("napi",), [
                {"labels": {"napi": "eth"},
                 "buckets": {"1.0": 1, "8.0": 2, "+Inf": 2},
                 "sum": 6, "count": 2}]),
        }}
        assert render_openmetrics(snapshot) == (
            '# TYPE repro_drops counter\n'
            '# HELP repro_drops Packets dropped\n'
            'repro_drops_total{queue="ring"} 7\n'
            'repro_drops_total{queue="we\\"ird\\\\q"} 1\n'
            '# TYPE repro_depth gauge\n'
            '# HELP repro_depth Queue depth\n'
            'repro_depth{queue="ring"} 3\n'
            'repro_depth{queue="veth"} 0.5\n'
            '# TYPE repro_batch histogram\n'
            '# HELP repro_batch Batch size\n'
            'repro_batch_bucket{napi="eth",le="1"} 1\n'
            'repro_batch_bucket{napi="eth",le="8"} 2\n'
            'repro_batch_bucket{napi="eth",le="+Inf"} 2\n'
            'repro_batch_sum{napi="eth"} 6\n'
            'repro_batch_count{napi="eth"} 2\n'
            '# EOF\n'
        )

    def test_exposition_is_deterministic(self, snapshot):
        """The exposition is a function of the snapshot alone: a JSON
        round trip renders the same text."""
        clone = json.loads(json.dumps(snapshot))
        assert render_openmetrics(clone) == render_openmetrics(snapshot)

    def test_exposition_ends_with_eof(self):
        assert render_openmetrics(
            {"version": SNAPSHOT_VERSION, "metrics": {}}) == "# EOF\n"

    def test_label_value_escaping(self):
        """Exposition format: label values escape \\, ", and newline."""
        text = render_openmetrics(
            counter_snapshot("repro_c", "c", **{'a\\b"c\nd': 1}))
        line = [l for l in text.splitlines()
                if l.startswith("repro_c_total")][0]
        assert line == 'repro_c_total{l="a\\\\b\\"c\\nd"} 1'

    def test_help_escaping_quotes_pass_through(self):
        """HELP text is unquoted: only \\ and newline are escaped there —
        a double quote must appear verbatim (regression: it used to be
        escaped like a label value)."""
        text = render_openmetrics(counter_snapshot(
            "repro_c", 'drops on "ring" queues\nper class\\site'))
        help_line = [l for l in text.splitlines()
                     if l.startswith("# HELP ")][0]
        assert help_line == (
            '# HELP repro_c drops on "ring" queues\\nper class\\\\site')
