"""Flow collectors and the taps that feed them.

A :class:`FlowCollector` owns one sampler + one cache for one *scope*
(a host cell, a single-host server kernel, or the executor's fabric).
The taps are the glue between a collector and what it samples:

- ``KernelFlowTap(collector, kernel)`` subscribes to the kernel's tracer:
  ``SOCKET_ENQUEUE`` (socket delivery), ``NIC_RX`` (rx-ring ingress) and
  ``DROP``, which :meth:`~repro.kernel.core.Kernel.count_drop` emits for
  every counted drop — including the fault injector's ``fault:`` sites.
- ``fabric.flows = FabricFlowTap(...)`` — consulted per transited
  packet in :meth:`~repro.fabric.network.FabricNetwork.transit_batch`,
  after path assignment, so records carry the actual ECMP/flowlet
  ``link:`` labels.  The fabric is executor-owned and transits the
  globally sorted union, so its samples are shard-count independent.

Neither tap consumes simulation RNG or schedules events; sampling is
the seeded stride of :class:`~repro.flows.sampler.FlowSampler`.
"""

from repro.flows.cache import FlowCache
from repro.flows.records import FLOW_SCHEMA_VERSION, record_sort_key
from repro.flows.sampler import FlowSampler
from repro.trace.tracer import TracePoint

#: Identity fields for a sample with no parseable flow key (e.g. a
#: fault-injector ring flush that only knows the drop site).
UNKNOWN = "-"


class FlowCollector:
    """Sampler + bounded cache for one scope; drains into sinks."""

    __slots__ = ("config", "scope", "sampler", "cache")

    def __init__(self, config, *, scope, seed=0):
        self.config = config
        self.scope = scope
        self.sampler = FlowSampler(config.sample_rate, seed=seed,
                                   scope=scope)
        self.cache = FlowCache(max_flows=config.max_flows,
                               active_timeout_ns=config.active_timeout_ns,
                               idle_timeout_ns=config.idle_timeout_ns)

    def fold(self, now, site, src, dst, src_port, dst_port, proto, cls,
             nbytes, *, drops=0, latency_ns=None, extra_sites=()):
        self.cache.fold((self.scope, src, dst, src_port, dst_port,
                         proto, cls),
                        now, nbytes, site, drops=drops,
                        latency_ns=latency_ns, extra_sites=extra_sites)

    def expire(self, now):
        """Timeout pass; callers invoke at deterministic sim times."""
        self.cache.expire(now)

    def finalize(self) -> dict:
        """Flush the cache and return the scope's export block.

        The record list is order-normalized here, so concatenating
        per-scope blocks and re-sorting is a stable merge.
        """
        self.cache.flush_all()
        records = [record.to_dict() for record in self.cache.drain()]
        records.sort(key=record_sort_key)
        return {
            "schema": FLOW_SCHEMA_VERSION,
            "scope": self.scope,
            "sample_rate": self.sampler.rate,
            "records": records,
            "sampler": self.sampler.counters(),
            "cache": dict(self.cache.counters),
        }


def _class_of(obj):
    """Priority class label for an skb (or ``-`` pre-classification)."""
    level = getattr(obj, "priority_level", None)
    if level is None:
        return UNKNOWN
    return "hi" if obj.is_high_priority else "lo"


class KernelFlowTap:
    """Per-kernel tap: socket deliveries, NIC ingress, and all drops."""

    __slots__ = ("collector", "sim")

    def __init__(self, collector: FlowCollector, kernel):
        self.collector = collector
        self.sim = kernel.sim
        tracer = kernel.tracer
        tracer.attach(TracePoint.SOCKET_ENQUEUE, self.on_deliver)
        tracer.attach(TracePoint.NIC_RX, self.on_nic_rx)
        tracer.attach(TracePoint.DROP, self.on_drop)

    def _fold(self, site, obj, *, drops=0, with_latency=False):
        collector = self.collector
        if not collector.sampler.take(site):
            return
        packet = getattr(obj, "packet", None)
        if packet is None:
            packet = obj  # obj is already a Packet (NIC/wire side) or None
        flow = packet.flow_key() if packet is not None else None
        if flow is not None:
            src, dst = str(flow.src_ip), str(flow.dst_ip)
            src_port, dst_port = flow.src_port, flow.dst_port
            proto = flow.protocol
        else:
            src = dst = UNKNOWN
            src_port = dst_port = proto = 0
        now = self.sim.now
        latency_ns = None
        if with_latency and packet is not None:
            created = getattr(packet, "created_at", None)
            if created is not None:
                latency_ns = now - created
        collector.fold(now, site, src, dst, src_port, dst_port, proto,
                       _class_of(obj), getattr(obj, "wire_len", 0) or 0,
                       drops=drops, latency_ns=latency_ns)

    def on_deliver(self, socket, skb):
        """A skb reached a socket receive buffer (terminal success).

        Latency is folded here: socket arrival minus the packet's
        ``created_at``, i.e. the full wire + stack traversal.
        """
        self._fold(socket, skb, with_latency=True)

    def on_nic_rx(self, queue, packet):
        """A packet was DMAed into an rx ring (host ingress)."""
        self._fold(queue, packet)

    def on_drop(self, queue, skb):
        """Any counted drop; *skb* is an skb, a Packet, or None."""
        self._fold(queue, skb, drops=1)


class FabricFlowTap:
    """Executor-owned tap sampling transits inside the fabric."""

    __slots__ = ("collector", "host_names", "dir_names", "cls_names")

    #: Single sampling stream: every transited packet is one "arrival"
    #: at the fabric, whichever links it then crosses.
    SITE = "transit"

    def __init__(self, collector: FlowCollector, *, host_names, dir_names,
                 cls_names):
        self.collector = collector
        self.host_names = host_names
        self.dir_names = dir_names
        self.cls_names = cls_names

    def on_transit(self, src, dst, cls_code, departure, wire_len, path):
        """One packet assigned *path*; fold a sample with link labels.

        Called from the path-assignment loop, which walks departures in
        global time order — so the sampling stream, and therefore the
        record set, is identical at any shard count.
        """
        collector = self.collector
        if not collector.sampler.take(self.SITE):
            return
        dir_names = self.dir_names
        links = [f"link:{dir_names[2 * index + direction]}"
                 for index, direction in path]
        collector.fold(departure, links[0], self.host_names[src],
                       self.host_names[dst], 0, 0, 17,
                       self.cls_names[cls_code], wire_len,
                       extra_sites=links[1:])
