"""The metrics snapshot of one observed run, read after the run ends.

:func:`collect_metrics` builds the versioned snapshot
(``{"version": 1, "metrics": {...}}``) from a finished
:class:`~repro.bench.cell.ExperimentCell` and the
:class:`~repro.obs.observer.KernelObserver` that watched it.  Nothing
here subscribes to the tracer or holds live state: every value is
accounting the run keeps anyway.

- The observer's per-key counts give NAPI batch sizes per napi, GRO
  merges per device and socket deliveries per socket.
- The server kernel gives softirq invocations, per-context CPU time,
  hardirqs, C-state wake-ups and drops.  A walk of the host and its
  overlay gives queue, device, bridge and GRO counters.
- The fault injector gives its forced drops, event totals and ledger.
- The harness gives its CPU sampler, the fg/bg meters and the fg
  client's loss-recovery stats.

Families appear in :data:`FAMILIES` order and samples sort by label
values, so identical runs serialize identically.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.bench.cell import ExperimentCell
    from repro.obs.observer import KernelObserver

__all__ = ["FAMILIES", "SNAPSHOT_VERSION", "batch_histogram", "collect_metrics"]

#: Bump when the snapshot/exposition wire format changes.
SNAPSHOT_VERSION = 1

#: Upper bounds of the NAPI batch-size histogram buckets.
BATCH_BUCKETS = (1, 2, 4, 8, 16, 32, 64)

#: name -> (type, help, label names), in exposition order.
FAMILIES: Dict[str, Tuple[str, str, Tuple[str, ...]]] = {
    "repro_softirq_invocations": (
        "counter", "NET_RX softirq handler invocations", ("cpu", "mode")),
    "repro_napi_polls": (
        "counter", "NAPI poll batches executed", ("napi",)),
    "repro_napi_packets": (
        "counter", "Packets processed by NAPI polls", ("napi",)),
    "repro_napi_batch_size": (
        "histogram", "Packets per NAPI poll batch", ("napi",)),
    "repro_gro_merges": (
        "counter", "Skbs GRO-coalesced into a held super-skb", ("device",)),
    "repro_socket_delivered": (
        "counter", "Skbs delivered to a socket rcvbuf", ("socket",)),
    "repro_cpu_time_ns": (
        "counter", "Cumulative per-context CPU time (sim ns)",
        ("cpu", "context")),
    "repro_hardirqs": (
        "counter", "Hardware interrupts delivered", ("cpu",)),
    "repro_cstate_wakeups": (
        "counter", "C-state exits paid on wake-up", ("cpu",)),
    "repro_drops": (
        "counter", "Packets dropped at a full queue", ("queue",)),
    "repro_device_rx_packets": (
        "counter", "Packets received per device", ("device",)),
    "repro_device_rx_bytes": (
        "counter", "Bytes received per device", ("device",)),
    "repro_queue_depth": (
        "gauge", "Queue occupancy at collection time", ("queue",)),
    "repro_queue_max_depth": (
        "gauge", "Queue occupancy high-watermark", ("queue",)),
    "repro_queue_enqueued": (
        "counter", "Successful enqueues per queue", ("queue",)),
    "repro_queue_dropped": (
        "counter", "Tail drops per queue", ("queue",)),
    "repro_bridge_forwarded": (
        "counter", "Skbs the bridge forwarded", ("bridge",)),
    "repro_bridge_flood_drops": (
        "counter", "Bridge FDB-miss drops", ("bridge",)),
    "repro_gro_merged_segments": (
        "counter", "Segments held in GRO super-skbs", ("device",)),
    "repro_queue_cleared": (
        "counter", "Items discarded by explicit clear()", ("queue",)),
    "repro_irq_moderation_window_ns": (
        "gauge", "Rx-interrupt coalescing window at collection time "
        "(0 = immediate interrupts)", ("device",)),
    "repro_pmd_events": (
        "counter", "Poll-mode-driver activity (BYPASS datapath only)",
        ("device", "kind")),
    "repro_fault_forced": (
        "counter", "Forced drops/events by fault site", ("site",)),
    "repro_fault_events": (
        "counter", "Fault-injector event totals", ("kind",)),
    "repro_recovery_events": (
        "counter", "Loss-recovery events per client", ("client", "event")),
    "repro_conservation": (
        "gauge", "Packet-conservation ledger totals at collection time",
        ("bucket",)),
    "repro_meter_events": (
        "gauge", "Events the meter counted inside its window", ("meter",)),
    "repro_meter_bytes": (
        "gauge", "Bytes the meter counted inside its window", ("meter",)),
    "repro_meter_discarded": (
        "gauge", "Events discarded by the meter's warm-up gate", ("meter",)),
    "repro_meter_first_at_ns": (
        "gauge", "Sim-time of the meter's first counted event", ("meter",)),
    "repro_meter_last_at_ns": (
        "gauge", "Sim-time of the meter's last counted event", ("meter",)),
    "repro_cpu_utilization": (
        "gauge", "Non-idle fraction of the sampler's measurement window",
        ("cpu",)),
    "repro_cpu_softirq_fraction": (
        "gauge", "Softirq-context fraction of the sampler's measurement "
        "window", ("cpu",)),
}

#: ThroughputMeter summary field -> its gauge family.
_METER_FAMILIES = {
    "count": "repro_meter_events",
    "bytes": "repro_meter_bytes",
    "discarded": "repro_meter_discarded",
    "first_at": "repro_meter_first_at_ns",
    "last_at": "repro_meter_last_at_ns",
}


def batch_histogram(sizes: Dict[int, int]) -> Dict[str, Any]:
    """A histogram sample of *sizes* (batch size -> polls): cumulative
    counts per :data:`BATCH_BUCKETS` bound and ``+Inf``, sum and count."""
    count = sum(sizes.values())
    bounds = [str(float(bound)) for bound in BATCH_BUCKETS] + ["+Inf"]
    counts = [sum(n for size, n in sizes.items() if size <= bound)
              for bound in BATCH_BUCKETS] + [count]
    return {"buckets": dict(zip(bounds, counts)),
            "sum": sum(size * n for size, n in sizes.items()),
            "count": count}


def collect_metrics(cell: "ExperimentCell",
                    observer: "KernelObserver") -> Dict[str, Any]:
    """The metrics snapshot of *cell*'s server, after its last window."""
    values: Dict[str, Dict[Tuple[str, ...], Any]] = {
        name: {} for name in FAMILIES}

    def put(name: str, value: Any, *labels: Any) -> None:
        values[name][tuple(str(label) for label in labels)] = value

    testbed = cell.testbed
    host = testbed.server
    kernel = host.kernel
    # The bound NET_RX handler's mode: bypass runs the vanilla one.
    mode = str(kernel.mode) if kernel.prism else "vanilla"
    for core in kernel.cpus:
        stats = core.stats
        if stats.softirq_invocations:
            put("repro_softirq_invocations", stats.softirq_invocations,
                core.core_id, mode)
        for context, ns in stats.ns.items():
            put("repro_cpu_time_ns", ns, core.core_id, context.value)
        put("repro_hardirqs", stats.hardirqs, core.core_id)
        put("repro_cstate_wakeups", stats.cstate_wakeups, core.core_id)
    for napi, sizes in observer.poll_batches.items():
        histogram = batch_histogram(sizes)
        put("repro_napi_polls", histogram["count"], napi)
        put("repro_napi_packets", histogram["sum"], napi)
        put("repro_napi_batch_size", histogram, napi)
    for device, n in observer.gro_merges.items():
        put("repro_gro_merges", n, device)
    for socket, n in observer.socket_delivered.items():
        put("repro_socket_delivered", n, socket)
    for queue_name, n in kernel.drops.items():
        put("repro_drops", n, queue_name)

    nic = host.nic
    overlay = testbed.server_overlay
    vxlan = overlay.vxlan
    queues = [nic.ring]
    if nic.ring_high is not None:
        queues.append(nic.ring_high)
    for softnet in kernel.softnets:
        queues += (softnet.backlog.queue_low, softnet.backlog.queue_high)
    for cell_napi in vxlan._cells.values():
        queues += (cell_napi.queue_low, cell_napi.queue_high)
    devices = [nic, vxlan]
    for container in overlay.containers.values():
        devices += container.veth.devices()
        queues += container.netns.sockets.rcvbufs()
    for queue in queues:
        put("repro_queue_depth", len(queue), queue.name)
        put("repro_queue_max_depth", queue.max_depth, queue.name)
        put("repro_queue_enqueued", queue.enqueued, queue.name)
        put("repro_queue_dropped", queue.dropped, queue.name)
        put("repro_queue_cleared", queue.cleared, queue.name)
    for device in devices:
        put("repro_device_rx_packets", device.rx_packets, device.name)
        put("repro_device_rx_bytes", device.rx_bytes, device.name)
    put("repro_irq_moderation_window_ns", nic.moderation_window_ns, nic.name)
    pmd = nic._pmd
    if pmd is not None:
        for kind in ("batches", "packets", "idle_spins"):
            put("repro_pmd_events", getattr(pmd, kind), nic.name, kind)
    bridge = overlay.bridge
    put("repro_bridge_forwarded", bridge.forwarded, bridge.name)
    put("repro_bridge_flood_drops", bridge.flood_drops, bridge.name)
    put("repro_gro_merged_segments", vxlan.gro.merged_segments, vxlan.name)

    recovery = getattr(cell.fg_client, "recovery", None)
    if recovery is not None:
        for event in ("sent", "retries", "timeouts", "gave_up",
                      "duplicates"):
            put("repro_recovery_events", getattr(recovery, event),
                recovery.name, event)
    injector = kernel.faults
    if injector is not None:
        for site, n in injector.stats.items():
            put("repro_fault_forced", n, site)
        put("repro_fault_events", injector.bursts_fired, "bursts")
        put("repro_fault_events", injector.burst_packets, "burst_packets")
        put("repro_fault_events", injector.flaps, "flaps")
        put("repro_fault_events", injector.irqs_lost, "irqs_lost")
        for bucket, value in injector.ledger.totals().items():
            put("repro_conservation", value, bucket)

    for meter in (cell.fg_meter, cell.bg_meter):
        for field, value in meter.summary().items():
            put(_METER_FAMILIES[field], 0 if value is None else value,
                meter.name or "meter")
    sampler = cell.sampler
    cpu = f"cpu{sampler.core.core_id}"
    put("repro_cpu_utilization", sampler.utilization(), cpu)
    put("repro_cpu_softirq_fraction", sampler.softirq_fraction(), cpu)

    metrics: Dict[str, Any] = {}
    for name, (kind, help_text, label_names) in FAMILIES.items():
        samples = []
        for key, value in sorted(values[name].items()):
            labels = dict(zip(label_names, key))
            samples.append({"labels": labels, **value} if kind == "histogram"
                           else {"labels": labels, "value": value})
        metrics[name] = {"type": kind, "help": help_text,
                         "label_names": list(label_names),
                         "samples": samples}
    return {"version": SNAPSHOT_VERSION, "metrics": metrics}
