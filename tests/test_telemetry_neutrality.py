"""Telemetry neutrality: metering and profiling never move a number.

The observability layer's core contract (mirroring the tracer's): the
kernel observer, whose span attribution is the profile and whose
per-key counts feed the metrics snapshot, and the flow tap must not
change a single measurement.  Pinned against the same golden measurement
digests the fast-path tests use: here with every tracer subscriber
attached at once, and in ``tests/test_fastpath_golden.py`` with the
observed runner alone.

Also pins the acceptance criteria of the observed run itself: the
OpenMetrics exposition parses, the snapshot agrees with the kernel's own
accounting, and the observer's folded per-track totals sum to the
accounted softirq time within 0.1%.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.bench.experiment import _run_experiment, run_traced_experiment
from repro.bench.runner import result_digest
from repro.flows import FlowExportConfig
from repro.obs import KernelObserver
from repro.obs.stacks import folded_lines
from repro.telemetry.openmetrics import render_openmetrics
from tests.test_fastpath_golden import GOLD


@pytest.mark.parametrize("scenario", [
    "overlay-vanilla", "overlay-prism-batch", "overlay-prism-sync",
    "overlay-bypass-lossy", "overlay-prism-sync-lossy"])
def test_all_subscribers_together_are_digest_identical(scenario):
    """The observer and flow export share one tracer in one run, and the
    measurements still match the plain run's."""
    config, golden = GOLD[scenario]
    holder = {}

    def attach(testbed):
        kernel = testbed.server.kernel
        observer = holder["observer"] = KernelObserver(kernel)
        observer.watch_host(testbed.server)
        observer.start_gauges()

    flows = FlowExportConfig(sample_rate=4)
    result = _run_experiment(
        dataclasses.replace(config, flow_export=flows), attach=attach)
    assert result.flows["record_count"] > 0
    assert holder["observer"].completed_packets()
    assert result_digest(result) == golden


def test_instrumented_runs_are_reproducible():
    """Two metered runs produce identical snapshots and expositions."""
    config, _ = GOLD["overlay-vanilla"]
    a = run_traced_experiment(config)
    b = run_traced_experiment(config)
    assert a.result.telemetry == b.result.telemetry
    assert (render_openmetrics(a.result.telemetry)
            == render_openmetrics(b.result.telemetry))


class TestInstrumentedRunContents:
    """One observed canonical cell, checked in depth."""

    @pytest.fixture(scope="class")
    def observed(self):
        config, _ = GOLD["overlay-vanilla"]
        return run_traced_experiment(config)

    def test_registry_agrees_with_kernel_accounting(self, observed):
        kernel = observed.observer.kernel
        metrics = observed.result.telemetry["metrics"]

        def series(name):
            return {tuple(sorted(s["labels"].items())): s["value"]
                    for s in metrics[name]["samples"]}

        # Scraped CPU time matches CpuStats exactly.
        cpu_ns = series("repro_cpu_time_ns")
        for core in kernel.cpus:
            for context, ns in core.stats.ns.items():
                key = (("context", context.value),
                       ("cpu", str(core.core_id)))
                assert cpu_ns[key] == ns
        # Scraped drops match kernel.drops exactly.
        drops = series("repro_drops")
        assert drops == {(("queue", q),): n
                         for q, n in kernel.drops.items()}

    def test_live_poll_counters_cover_delivered_traffic(self, observed):
        metrics = observed.result.telemetry["metrics"]
        polls = {s["labels"]["napi"]: s["value"]
                 for s in metrics["repro_napi_polls"]["samples"]}
        packets = {s["labels"]["napi"]: s["value"]
                   for s in metrics["repro_napi_packets"]["samples"]}
        assert polls.get("eth", 0) > 0, "NIC NAPI never counted a poll"
        # Every NAPI that polled processed at least as many packets.
        for napi, n in polls.items():
            assert packets.get(napi, 0) >= n or packets.get(napi, 0) == 0
        # Batch-size histogram totals agree with the packet counters.
        for sample in metrics["repro_napi_batch_size"]["samples"]:
            napi = sample["labels"]["napi"]
            assert sample["sum"] == packets[napi]
            assert sample["count"] == polls[napi]

    def test_openmetrics_exposition_is_valid(self, observed):
        text = render_openmetrics(observed.result.telemetry)
        lines = text.splitlines()
        assert lines[-1] == "# EOF"
        assert text.endswith("# EOF\n")
        seen_types = {}
        for line in lines[:-1]:
            if line.startswith("# TYPE "):
                _, _, name, kind = line.split(" ")
                assert name not in seen_types, "duplicate TYPE"
                seen_types[name] = kind
                assert kind in ("counter", "gauge", "histogram")
            elif line.startswith("# HELP "):
                continue
            else:
                # Sample line: name{labels} value — value parses numeric.
                head, _, value = line.rpartition(" ")
                float(value)
                assert head, f"malformed sample line {line!r}"
        # Counters expose only under the _total suffix (a family with no
        # children legitimately renders metadata and zero samples).
        counter_names = [n for n, k in seen_types.items()
                         if k == "counter"]
        assert counter_names
        for name in counter_names:
            bare = [line for line in lines
                    if line.startswith((f"{name} ", f"{name}{{"))]
            assert not bare, f"{name}: counter sample without _total"
        assert any(line.startswith("repro_softirq_invocations_total")
                   for line in lines)

    def test_folded_totals_match_softirq_time_within_tolerance(
            self, observed):
        """Acceptance criterion: per-stage folded totals sum to the
        accounted simulated softirq CPU time within 0.1%."""
        observer = observed.observer
        kernel = observer.kernel
        for core in kernel.cpus:
            softirq_ns = core.stats.softirq_ns
            track_ns = observer.total_ns(f"cpu{core.core_id}")
            if softirq_ns == 0:
                assert track_ns == 0
                continue
            assert abs(track_ns - softirq_ns) <= max(1, softirq_ns // 1000)

    def test_folded_export_is_parseable(self, observed):
        for line in folded_lines(observed.observer.self_ns):
            frames, _, ns = line.rpartition(" ")
            assert int(ns) > 0
            assert frames.split(";")[0].startswith("cpu")

    def test_profiler_separates_priority_classes(self, observed):
        """The hp/lp flow-priority dimension reaches the flamegraph."""
        leaves = observed.observer.stage_totals()
        assert any(name.endswith("[lp]") for name in leaves), leaves

    def test_harness_meters_export_through_registry(self, observed):
        """The CpuUtilizationSampler and ThroughputMeter gauges in the
        snapshot equal the result's own fields."""
        result = observed.result
        metrics = result.telemetry["metrics"]
        util = {s["labels"]["cpu"]: s["value"]
                for s in metrics["repro_cpu_utilization"]["samples"]}
        assert util["cpu0"] == pytest.approx(result.cpu_utilization)
        frac = {s["labels"]["cpu"]: s["value"]
                for s in metrics["repro_cpu_softirq_fraction"]["samples"]}
        assert frac["cpu0"] == pytest.approx(result.softirq_fraction)
        meters = {s["labels"]["meter"]: s["value"]
                  for s in metrics["repro_meter_events"]["samples"]}
        fg_meter = "sockperf-server:11111"
        window = result.config.duration_ns
        assert meters[fg_meter] * 1e9 / window == pytest.approx(
            result.fg_delivered_pps)

    def test_snapshot_round_trips_through_result_serialization(
            self, observed):
        from repro.bench.experiment import ExperimentResult

        clone = ExperimentResult.from_dict(observed.result.to_dict(),
                                           observed.result.config)
        assert clone.telemetry == observed.result.telemetry
        assert result_digest(clone) == result_digest(observed.result)
