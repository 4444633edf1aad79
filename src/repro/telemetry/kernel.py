"""Telemetry hub: tracer-fed live counters + collect-time scraping.

:class:`KernelTelemetry` is one subscriber on a kernel's tracer.  Its
callbacks are plain counter bumps: they never touch the simulator, so a
metered run's event schedule (and therefore its ``ExperimentResult``) is
bit-identical to an unmetered run.

Two classes of instrumentation, deliberately split:

- **Live counters** come from tracepoints and count things no existing
  accounting attributes per label: softirq invocations per (cpu, mode)
  (``NET_RX_ACTION``), NAPI batch sizes per device (``NAPI_POLL_DONE``,
  emitted inside the poll, so poll-mode-driver batches count too), GRO
  merges per device (``GRO_MERGE``) and socket deliveries per socket
  (``SOCKET_ENQUEUE``).
- **Scrape-on-collect** (:meth:`collect`) reads accounting the simulated
  kernel maintains anyway — per-context CPU time, ``kernel.drops``,
  queue depth/high-watermark/enqueue counters, device rx counters,
  bridge/GRO totals — into the registry at collection time, so the
  unmetered hot path carries zero extra bookkeeping.

:meth:`bind_run` additionally exports the bench harness's own meters
(:class:`~repro.metrics.recorder.CpuUtilizationSampler`,
:class:`~repro.metrics.recorder.ThroughputMeter`) as callback gauges via
:mod:`repro.telemetry.adapters` — one export path, no duplicated
accounting.  Build-time code that wants to export through the hub (the
sockperf servers, the experiment cell) is handed it explicitly.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.telemetry.registry import MetricsRegistry
from repro.trace.tracer import TracePoint

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.core import Kernel
    from repro.metrics.recorder import CpuUtilizationSampler, ThroughputMeter
    from repro.netdev.device import NetDevice
    from repro.netdev.queues import PacketQueue

__all__ = ["KernelTelemetry"]


class KernelTelemetry:
    """Metrics registry + instrumentation hooks for one kernel."""

    def __init__(self, kernel: "Kernel",
                 registry: Optional[MetricsRegistry] = None) -> None:
        self.kernel = kernel
        self.registry = registry if registry is not None else MetricsRegistry()
        reg = self.registry

        # --- live-site families --------------------------------------
        self._softirqs = reg.counter(
            "repro_softirq_invocations",
            "NET_RX softirq handler invocations", ("cpu", "mode"))
        self._polls = reg.counter(
            "repro_napi_polls", "NAPI poll batches executed", ("napi",))
        self._poll_packets = reg.counter(
            "repro_napi_packets", "Packets processed by NAPI polls",
            ("napi",))
        self._batch = reg.histogram(
            "repro_napi_batch_size", "Packets per NAPI poll batch",
            ("napi",))
        self._gro = reg.counter(
            "repro_gro_merges", "Skbs GRO-coalesced into a held super-skb",
            ("device",))
        self._sock = reg.counter(
            "repro_socket_delivered", "Skbs delivered to a socket rcvbuf",
            ("socket",))

        # --- scrape-on-collect families ------------------------------
        self._cpu_ns = reg.counter(
            "repro_cpu_time_ns", "Cumulative per-context CPU time (sim ns)",
            ("cpu", "context"))
        self._hardirqs = reg.counter(
            "repro_hardirqs", "Hardware interrupts delivered", ("cpu",))
        self._cstate = reg.counter(
            "repro_cstate_wakeups", "C-state exits paid on wake-up", ("cpu",))
        self._drops = reg.counter(
            "repro_drops", "Packets dropped at a full queue", ("queue",))
        self._dev_rx_packets = reg.counter(
            "repro_device_rx_packets", "Packets received per device",
            ("device",))
        self._dev_rx_bytes = reg.counter(
            "repro_device_rx_bytes", "Bytes received per device", ("device",))
        self._q_depth = reg.gauge(
            "repro_queue_depth", "Queue occupancy at collection time",
            ("queue",))
        self._q_max_depth = reg.gauge(
            "repro_queue_max_depth", "Queue occupancy high-watermark",
            ("queue",))
        self._q_enqueued = reg.counter(
            "repro_queue_enqueued", "Successful enqueues per queue",
            ("queue",))
        self._q_dropped = reg.counter(
            "repro_queue_dropped", "Tail drops per queue", ("queue",))
        self._bridge_forwarded = reg.counter(
            "repro_bridge_forwarded", "Skbs the bridge forwarded",
            ("bridge",))
        self._bridge_flood_drops = reg.counter(
            "repro_bridge_flood_drops", "Bridge FDB-miss drops", ("bridge",))
        self._gro_segments = reg.counter(
            "repro_gro_merged_segments", "Segments held in GRO super-skbs",
            ("device",))
        self._q_cleared = reg.counter(
            "repro_queue_cleared", "Items discarded by explicit clear()",
            ("queue",))
        self._mod_window = reg.gauge(
            "repro_irq_moderation_window_ns",
            "Rx-interrupt coalescing window at collection time "
            "(0 = immediate interrupts)", ("device",))
        self._pmd_stats = reg.counter(
            "repro_pmd_events",
            "Poll-mode-driver activity (BYPASS datapath only)",
            ("device", "kind"))

        # --- fault-injection / loss-recovery families -----------------
        # Scraped from ``kernel.faults`` (the installed FaultInjector)
        # and any registered RecoveryStats; all-zero on loss-free runs.
        self._fault_forced = reg.counter(
            "repro_fault_forced", "Forced drops/events by fault site",
            ("site",))
        self._fault_events = reg.counter(
            "repro_fault_events", "Fault-injector event totals", ("kind",))
        self._recovery = reg.counter(
            "repro_recovery_events", "Loss-recovery events per client",
            ("client", "event"))
        self._conservation = reg.gauge(
            "repro_conservation",
            "Packet-conservation ledger totals at collection time",
            ("bucket",))

        # Per-name child caches so the per-batch hooks cost one dict
        # lookup, not a labels() tuple build.
        self._poll_cache: Dict[str, Tuple[Any, Any, Any]] = {}
        self._softirq_cache: Dict[Tuple[Any, ...], Any] = {}
        self._gro_cache: Dict[Tuple[Any, ...], Any] = {}
        self._sock_cache: Dict[Tuple[Any, ...], Any] = {}
        self._callbacks: List[Tuple[str, Any]] = []

        self._watched_queues: List["PacketQueue"] = []
        self._watched_devices: List["NetDevice"] = []
        self._watched_bridges: List[Any] = []
        self._watched_gro: List[Tuple[str, Any]] = []
        self._watched_overlays: List[Any] = []
        self._watched_recovery: List[Any] = []

    # ------------------------------------------------------------------
    # Attach/detach: subscribe the live hooks to the kernel's tracer
    # ------------------------------------------------------------------
    def attach(self) -> "KernelTelemetry":
        """Subscribe the live hooks to the kernel's tracer (idempotent)."""
        if not self._callbacks:
            tracer = self.kernel.tracer
            self._callbacks = [
                (point, tracer.attach(point, hook)) for point, hook in (
                    (TracePoint.NET_RX_ACTION, self.on_softirq),
                    (TracePoint.NAPI_POLL_DONE, self.on_poll),
                    (TracePoint.GRO_MERGE, self.on_gro_merge),
                    (TracePoint.SOCKET_ENQUEUE, self.on_socket_deliver))]
        return self

    def detach(self) -> None:
        tracer = self.kernel.tracer
        for point, hook in self._callbacks:
            tracer.detach(point, hook)
        self._callbacks = []

    # ------------------------------------------------------------------
    # Live hooks (tracepoint callbacks)
    # ------------------------------------------------------------------
    def on_softirq(self, cpu: int, mode: str, **_f: Any) -> None:
        """One NET_RX softirq invocation on *cpu* under *mode*."""
        _bump(self._softirq_cache, self._softirqs, cpu, mode)

    def on_poll(self, napi: str, processed: int, **_f: Any) -> None:
        """One NAPI poll batch of *processed* packets on *napi*."""
        entry = self._poll_cache.get(napi)
        if entry is None:
            entry = (self._polls.labels(napi),
                     self._poll_packets.labels(napi),
                     self._batch.labels(napi))
            self._poll_cache[napi] = entry
        polls, packets, batch = entry
        polls.value += 1
        packets.value += processed
        batch.observe(processed)

    def on_gro_merge(self, device: str, **_f: Any) -> None:
        _bump(self._gro_cache, self._gro, device)

    def on_socket_deliver(self, socket: str, **_f: Any) -> None:
        _bump(self._sock_cache, self._sock, socket)

    # ------------------------------------------------------------------
    # Scrape sources
    # ------------------------------------------------------------------
    def watch_queue(self, queue: "PacketQueue") -> None:
        if queue not in self._watched_queues:
            self._watched_queues.append(queue)

    def watch_device(self, device: "NetDevice") -> None:
        if device not in self._watched_devices:
            self._watched_devices.append(device)

    def watch_host(self, host: Any) -> None:
        """Watch a :class:`~repro.overlay.host.Host`'s standard receive
        path: NIC ring(s), per-CPU backlogs and NAPI input queues, plus
        the NIC device itself.  Overlay devices (vxlan, bridge, veths)
        join via :meth:`watch_overlay` once the topology exists."""
        nic = getattr(host, "nic", None)
        if nic is not None:
            self.watch_device(nic)
            self.watch_queue(nic.ring)
            if nic.ring_high is not None:
                self.watch_queue(nic.ring_high)
        for softnet in host.kernel.softnets:
            self.watch_queue(softnet.backlog.queue_low)
            self.watch_queue(softnet.backlog.queue_high)

    def watch_overlay(self, host_overlay: Any) -> None:
        """Watch a :class:`~repro.overlay.topology.HostOverlay`'s data
        plane: the bridge, the vxlan device and its GRO engine, per-CPU
        gro_cells queues, and container veth ends.  Containers and
        gro_cells materialize lazily *after* attach, so the overlay is
        remembered and re-walked at :meth:`collect` time."""
        if host_overlay not in self._watched_overlays:
            self._watched_overlays.append(host_overlay)

    def _scrape_overlay_topology(self, host_overlay: Any) -> None:
        bridge = getattr(host_overlay, "bridge", None)
        if bridge is not None and bridge not in self._watched_bridges:
            self._watched_bridges.append(bridge)
        vxlan = getattr(host_overlay, "vxlan", None)
        if vxlan is not None:
            self.watch_device(vxlan)
            if all(gro is not vxlan.gro for _n, gro in self._watched_gro):
                self._watched_gro.append((vxlan.name, vxlan.gro))
            for cell in vxlan._cells.values():
                self.watch_queue(cell.queue_low)
                self.watch_queue(cell.queue_high)
        for container in getattr(host_overlay, "containers", {}).values():
            veth = getattr(container, "veth", None)
            if veth is not None:
                for end in veth.devices():
                    self.watch_device(end)

    def register_recovery(self, stats: Any) -> None:
        """Export one :class:`~repro.faults.recovery.RecoveryStats` —
        a client's loss-recovery accounting, scraped at collect time."""
        if stats is not None and \
                all(s is not stats for s in self._watched_recovery):
            self._watched_recovery.append(stats)

    def register_meter(self, meter: "ThroughputMeter",
                       label: str = "") -> None:
        """Export one :class:`ThroughputMeter` as callback gauges.

        Apps handed a hub call this at construction, so their meters
        export through the one registry with no duplicated accounting."""
        from repro.telemetry.adapters import register_throughput_meter
        register_throughput_meter(self.registry, meter, label)

    def bind_run(self, *, sampler: Optional["CpuUtilizationSampler"] = None,
                 meters: Tuple["ThroughputMeter", ...] = ()) -> None:
        """Export the bench harness's own accounting as callback gauges."""
        from repro.telemetry.adapters import register_cpu_sampler
        if sampler is not None:
            register_cpu_sampler(self.registry, sampler)
        for meter in meters:
            if meter is not None:
                self.register_meter(meter)

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------
    def collect(self) -> MetricsRegistry:
        """Scrape every watched source into the registry; returns it."""
        kernel = self.kernel
        for core in kernel.cpus:
            for context, ns in core.stats.ns.items():
                self._cpu_ns.labels(core.core_id,
                                    context.value).set_total(ns)
            self._hardirqs.labels(core.core_id).set_total(
                core.stats.hardirqs)
            self._cstate.labels(core.core_id).set_total(
                core.stats.cstate_wakeups)
        for queue_name, count in kernel.drops.items():
            self._drops.labels(queue_name).set_total(count)
        for overlay in self._watched_overlays:
            self._scrape_overlay_topology(overlay)
        for queue in self._watched_queues:
            self._q_depth.labels(queue.name).set(len(queue))
            self._q_max_depth.labels(queue.name).set(queue.max_depth)
            self._q_enqueued.labels(queue.name).set_total(queue.enqueued)
            self._q_dropped.labels(queue.name).set_total(queue.dropped)
            self._q_cleared.labels(queue.name).set_total(queue.cleared)
        for device in self._watched_devices:
            self._dev_rx_packets.labels(device.name).set_total(
                device.rx_packets)
            self._dev_rx_bytes.labels(device.name).set_total(
                device.rx_bytes)
            window = getattr(device, "moderation_window_ns", None)
            if window is not None:
                self._mod_window.labels(device.name).set(window)
            pmd = getattr(device, "_pmd", None)
            if pmd is not None:
                self._pmd_stats.labels(device.name, "batches").set_total(
                    pmd.batches)
                self._pmd_stats.labels(device.name, "packets").set_total(
                    pmd.packets)
                self._pmd_stats.labels(device.name, "idle_spins").set_total(
                    pmd.idle_spins)
        for bridge in self._watched_bridges:
            self._bridge_forwarded.labels(bridge.name).set_total(
                bridge.forwarded)
            self._bridge_flood_drops.labels(bridge.name).set_total(
                bridge.flood_drops)
        for device_name, gro in self._watched_gro:
            self._gro_segments.labels(device_name).set_total(
                gro.merged_segments)
        for stats in self._watched_recovery:
            for event in ("sent", "retries", "timeouts", "gave_up",
                          "duplicates"):
                self._recovery.labels(stats.name, event).set_total(
                    getattr(stats, event))
        injector = getattr(kernel, "faults", None)
        if injector is not None:
            for site, count in injector.stats.items():
                self._fault_forced.labels(site).set_total(count)
            self._fault_events.labels("bursts").set_total(
                injector.bursts_fired)
            self._fault_events.labels("burst_packets").set_total(
                injector.burst_packets)
            self._fault_events.labels("flaps").set_total(injector.flaps)
            self._fault_events.labels("irqs_lost").set_total(
                injector.irqs_lost)
            for bucket, value in injector.ledger.totals().items():
                self._conservation.labels(bucket).set(value)
        return self.registry

    def snapshot(self) -> Dict[str, Any]:
        """Collect, then return the registry's versioned JSON snapshot."""
        return self.collect().snapshot()

    def render_openmetrics(self) -> str:
        """Collect, then render the OpenMetrics exposition."""
        return self.collect().render_openmetrics()

    def __repr__(self) -> str:
        return (f"<KernelTelemetry kernel={self.kernel.name!r} "
                f"{self.registry!r}>")


def _bump(cache: Dict[Tuple[Any, ...], Any], family: Any, *labels: Any
          ) -> None:
    """Increment *family*'s child for *labels*, cached per label tuple."""
    child = cache.get(labels)
    if child is None:
        child = cache[labels] = family.labels(*labels)
    child.value += 1
