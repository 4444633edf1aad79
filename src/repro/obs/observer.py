"""The kernel observer: tracepoints in, flight-recorder events out.

:class:`KernelObserver` is the one subscriber the observability layer
attaches to a kernel's :class:`~repro.trace.tracer.Tracer`.  It converts
the fine-grained tracepoints the kernel emits into
:class:`~repro.obs.recorder.FlightRecorder` events:

- ``SPAN_BEGIN``/``SPAN_END`` → ``B``/``E`` spans on per-CPU tracks
  (softirq invocations, per-device polls, per-skb stage execution), and
  exact simulated-time attribution to the open-span stack
  (:attr:`KernelObserver.self_ns`, the folded-stack profile);
- ``QUEUE_WAIT`` → retroactive ``X`` complete events on per-queue tracks
  (ring/NAPI-queue/backlog residency, recorded at dequeue);
- ``DROP`` / ``SYNC_INLINE`` / ``GRO_MERGE`` → instants;
- ``SKB_ALLOC`` / ``STAGE_DONE`` / ``SOCKET_ENQUEUE`` → per-packet
  milestone records that feed :mod:`repro.obs.breakdown`, the Fig. 5
  in-kernel times (:meth:`KernelObserver.completed_packets`) and the
  Fig. 5 Gantt chart (:func:`render_gantt`);
- ``NAPI_POLL`` → poll-order records under the paper's stage labels,
  the Fig. 6 tables (:meth:`KernelObserver.poll_table`);
- ``NAPI_POLL_DONE`` / ``GRO_MERGE`` / ``SOCKET_ENQUEUE`` → per-key
  counts (batch sizes per napi, merges per device, deliveries per
  socket) that :func:`repro.telemetry.kernel.collect_metrics` reads
  into the metrics snapshot once the run has ended.

It also samples periodic **gauges** (queue depths, per-CPU softirq
residency) through :meth:`~repro.sim.engine.Simulator.every`, recorded as
``C`` counter events.

**Span attribution.**  Every span edge attributes the simulated time
elapsed since the previous edge on that track to the innermost open
span, keyed by the whole open stack; per-skb stage spans carry their
flow-priority class as an ``[hp]``/``[lp]`` frame suffix.  No simulated
time passes between a softirq handler's yields, so a ``cpuN`` track's
total equals that core's accounted softirq time (within one partial CPU
slice at simulation end).  :mod:`repro.obs.stacks` exports the table as
folded stacks and speedscope JSON.  The weight is simulated time, not
host CPU: :mod:`repro.perf.wallprof` profiles the simulator itself.

The contract with the hot path: *all* kernel-side emit sites are gated on
``tracer.active`` / ``tracer.has_subscribers``, so the entire layer costs
~zero when no observer is attached.  Attaching is what turns the
instrumentation on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple, TYPE_CHECKING

from repro.kernel.cpu import CpuContext, CpuCore
from repro.netdev.queues import PacketQueue
from repro.obs.recorder import FlightRecorder
from repro.packet.skb import SKBuff
from repro.trace.tracer import TracePoint, Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.core import Kernel
    from repro.sim.engine import PeriodicCall

__all__ = ["KernelObserver", "PacketMilestones", "PollRecord",
           "DEFAULT_GAUGE_INTERVAL_NS", "render_gantt"]

#: Default gauge sampling period (1 ms of simulated time).
DEFAULT_GAUGE_INTERVAL_NS = 1_000_000


class PacketMilestones:
    """Receive-path milestone timestamps for one packet (sim-ns).

    ``stages`` holds ``(stage_name, done_at)`` pairs in completion order —
    e.g. ``[("eth", t1), ("br", t2), ("veth", t3)]`` for the overlay
    pipeline.  Together with ``ring_at`` (DMA arrival) and ``socket_at``
    (delivery, into the receive buffer named ``socket``) they decompose
    the in-kernel time exactly, which is what the Fig. 4 breakdown
    consumes.
    """

    __slots__ = ("skb_id", "high_priority", "ring_at", "alloc_at",
                 "stages", "socket_at", "socket")

    def __init__(self, skb_id: int, high_priority: bool) -> None:
        self.skb_id = skb_id
        self.high_priority = high_priority
        self.ring_at: Optional[int] = None
        self.alloc_at: Optional[int] = None
        self.stages: List[Tuple[str, int]] = []
        self.socket_at: Optional[int] = None
        self.socket: Optional[str] = None

    @property
    def complete(self) -> bool:
        return self.ring_at is not None and self.socket_at is not None

    @property
    def kernel_time_ns(self) -> Optional[int]:
        if not self.complete:
            return None
        return self.socket_at - self.ring_at

    def path_signature(self) -> Tuple[str, ...]:
        """The ordered stage names this packet traversed."""
        return tuple(name for name, _ in self.stages)

    def __repr__(self) -> str:
        return (f"<PacketMilestones #{self.skb_id} "
                f"stages={self.path_signature()}>")


@dataclass(frozen=True)
class PollRecord:
    """One NAPI poll: the device polled and the poll list after it."""

    iteration: int
    device: str
    poll_list: Tuple[str, ...]

    def __str__(self) -> str:
        inner = ", ".join(self.poll_list)
        return f"{self.iteration:>4}  {self.device:<6} [{inner}]"


def _paper_label(napi_name: str) -> str:
    """The paper's stage label for a NAPI: the per-CPU backlog serves
    the veth stage (Fig. 6)."""
    return "veth" if napi_name.startswith("backlog") else napi_name


class KernelObserver:
    """Attaches to one kernel's tracer and records everything.

    Parameters
    ----------
    kernel:
        The kernel to observe (its ``tracer`` is subscribed to).
    recorder:
        An existing :class:`FlightRecorder` to record into, or None to
        create one with *capacity*.
    capacity:
        Ring-buffer capacity when creating a recorder.
    max_packets:
        Bound on per-packet milestone records kept for the breakdown
        (oldest-first admission; later packets are counted but not kept),
        and separately on poll-order records (later polls are not kept).
    """

    def __init__(self, kernel: "Kernel", *,
                 recorder: Optional[FlightRecorder] = None,
                 capacity: int = 200_000,
                 max_packets: int = 100_000) -> None:
        self.kernel = kernel
        self.tracer: Tracer = kernel.tracer
        self.recorder = recorder if recorder is not None else FlightRecorder(capacity)
        self.max_packets = max_packets
        self.packets: Dict[int, PacketMilestones] = {}
        #: Packets seen but not kept because max_packets was reached.
        self.packets_overflowed = 0
        #: NAPI poll order, oldest first (the Fig. 6 tables).
        self.polls: List[PollRecord] = []
        #: napi -> {batch size: polls}, every NAPI poll batch.
        self.poll_batches: Dict[str, Dict[int, int]] = {}
        #: GRO merges per device and socket deliveries per socket,
        #: counted before the *max_packets* cap.
        self.gro_merges: Dict[str, int] = {}
        self.socket_delivered: Dict[str, int] = {}
        #: Exact self-time per (track, open-span stack), in simulated ns.
        self.self_ns: Dict[Tuple[str, Tuple[str, ...]], int] = {}
        #: Open-span stack per track (frame names, outermost first).
        self._stacks: Dict[str, List[str]] = {}
        #: Sim-time of the last span edge per track.
        self._last_edge: Dict[str, int] = {}
        self._gauge_queues: List[Tuple[str, PacketQueue]] = []
        self._gauge_cpus: List[Tuple[str, CpuCore, Dict[CpuContext, int], int]] = []
        self._sampler: Optional["PeriodicCall"] = None
        self._callbacks = [
            (point, self.tracer.attach(point, callback))
            for point, callback in (
                (TracePoint.SPAN_BEGIN, self._on_span_begin),
                (TracePoint.SPAN_END, self._on_span_end),
                (TracePoint.QUEUE_WAIT, self._on_queue_wait),
                (TracePoint.DROP, self._on_drop),
                (TracePoint.SYNC_INLINE, self._on_sync_inline),
                (TracePoint.GRO_MERGE, self._on_gro_merge),
                (TracePoint.SKB_ALLOC, self._on_alloc),
                (TracePoint.STAGE_DONE, self._on_stage_done),
                (TracePoint.SOCKET_ENQUEUE, self._on_socket),
                (TracePoint.NAPI_POLL, self._on_napi_poll),
                (TracePoint.NAPI_POLL_DONE, self._on_poll_done))]

    # ------------------------------------------------------------------
    # Span / interval / instant callbacks
    # ------------------------------------------------------------------
    def _now(self) -> int:
        return self.kernel.sim.now

    def _on_span_begin(self, track: str, name: str, **fields: Any) -> None:
        now = self._now()
        args = {k: _arg(v) for k, v in fields.items()} or None
        self.recorder.begin(now, track, name, args)
        stack = self._stacks.setdefault(track, [])
        self._attribute(track, stack, now)
        hp = fields.get("hp")
        if hp is not None:
            # Per-skb stage spans carry the flow-priority class; fold it
            # into the frame so high- and low-priority work separate in
            # the flamegraph.
            name = f"{name}[{'hp' if hp else 'lp'}]"
        stack.append(name)

    def _on_span_end(self, track: str, name: str, **_f: Any) -> None:
        now = self._now()
        self.recorder.end(now, track, name)
        stack = self._stacks.get(track)
        if not stack:
            return
        self._attribute(track, stack, now)
        # Frames close LIFO; the begin side may have suffixed a priority
        # class onto the name, so match on the prefix.
        while stack:
            top = stack.pop()
            if top == name or top.startswith(f"{name}["):
                break

    def _attribute(self, track: str, stack: List[str], now: int) -> None:
        """Charge the time since *track*'s last edge to its open stack."""
        last = self._last_edge.get(track)
        if last is not None and stack and now > last:
            key = (track, tuple(stack))
            self.self_ns[key] = self.self_ns.get(key, 0) + (now - last)
        self._last_edge[track] = now

    def total_ns(self, track: Optional[str] = None) -> int:
        """Total attributed simulated time (optionally for one track)."""
        return sum(ns for (t, _stack), ns in self.self_ns.items()
                   if track is None or t == track)

    def tracks(self) -> List[str]:
        """The tracks that have attributed time, sorted."""
        return sorted({t for t, _stack in self.self_ns})

    def stage_totals(self, track: Optional[str] = None) -> Dict[str, int]:
        """Attributed time keyed by leaf frame (per-stage totals)."""
        out: Dict[str, int] = {}
        for (t, stack), ns in self.self_ns.items():
            if track is None or t == track:
                out[stack[-1]] = out.get(stack[-1], 0) + ns
        return out

    def _on_queue_wait(self, queue: str, skb: Optional[SKBuff],
                       since: int, **_f: Any) -> None:
        now = self._now()
        args = {"skb": skb.skb_id} if skb is not None else None
        self.recorder.complete(since, now - since, f"queue:{queue}",
                               "wait", args)

    def _on_drop(self, queue: str, skb: Any, **_f: Any) -> None:
        # *skb* is an skb, a raw Packet (ring and skb-alloc drops happen
        # before an skb exists), or None (a fault-injector ring flush).
        args = {"skb": skb.skb_id} if isinstance(skb, SKBuff) else None
        self.recorder.instant(self._now(), "drops", queue, args)

    def _on_sync_inline(self, device: str, skb: SKBuff, **_f: Any) -> None:
        self.recorder.instant(self._now(), "prism", f"sync_inline:{device}",
                              {"skb": skb.skb_id})

    def _on_gro_merge(self, device: str, skb: SKBuff, **_f: Any) -> None:
        merges = self.gro_merges
        merges[device] = merges.get(device, 0) + 1
        self.recorder.instant(self._now(), "gro", f"merge:{device}",
                              {"skb": skb.skb_id})

    # ------------------------------------------------------------------
    # Per-packet milestones (feeds the Fig. 4 breakdown)
    # ------------------------------------------------------------------
    def _on_alloc(self, device: str, skb: SKBuff, **_f: Any) -> None:
        entry = self.packets.get(skb.skb_id)
        if entry is None:
            if len(self.packets) >= self.max_packets:
                self.packets_overflowed += 1
                return
            entry = PacketMilestones(skb.skb_id, skb.is_high_priority)
            self.packets[skb.skb_id] = entry
        entry.ring_at = skb.marks.get("rx_ring", self._now())
        entry.alloc_at = skb.marks.get("skb_alloc", self._now())
        entry.high_priority = skb.is_high_priority

    def _on_stage_done(self, device: str, skb: SKBuff,
                       stage: str = "", **_f: Any) -> None:
        entry = self.packets.get(skb.skb_id)
        if entry is not None:
            entry.stages.append((stage or device, self._now()))
            entry.high_priority = skb.is_high_priority

    def _on_socket(self, socket: str, skb: SKBuff, **_f: Any) -> None:
        delivered = self.socket_delivered
        delivered[socket] = delivered.get(socket, 0) + 1
        entry = self.packets.get(skb.skb_id)
        if entry is not None:
            entry.socket_at = self._now()
            entry.socket = socket

    def completed_packets(self) -> List[PacketMilestones]:
        """Packets that reached a socket, in ring-arrival order."""
        done = [p for p in self.packets.values() if p.complete]
        done.sort(key=lambda p: p.ring_at)
        return done

    # ------------------------------------------------------------------
    # Poll order (the paper's Fig. 6)
    # ------------------------------------------------------------------
    def _on_napi_poll(self, device: str, local_list: List[str],
                      global_list: List[str], **_f: Any) -> None:
        polls = self.polls
        if len(polls) >= self.max_packets:
            return
        polls.append(PollRecord(
            iteration=len(polls) + 1, device=_paper_label(device),
            poll_list=tuple(_paper_label(name)
                            for name in (*local_list, *global_list))))

    def _on_poll_done(self, napi: str, processed: int, **_f: Any) -> None:
        sizes = self.poll_batches.get(napi)
        if sizes is None:
            sizes = self.poll_batches[napi] = {}
        sizes[processed] = sizes.get(processed, 0) + 1

    def device_order(self) -> List[str]:
        """The sequence of polled devices, under the paper's labels."""
        return [record.device for record in self.polls]

    def poll_table(self, limit: Optional[int] = None) -> str:
        """Render like the paper's Fig. 6: iteration, device, poll list."""
        rows = self.polls if limit is None else self.polls[:limit]
        header = f"{'Iter':>4}  {'Device':<6} Poll list"
        return "\n".join([header] + [str(row) for row in rows])

    # ------------------------------------------------------------------
    # Gauges
    # ------------------------------------------------------------------
    def watch_queue(self, queue: PacketQueue, track: str = "") -> None:
        """Sample *queue*'s depth as a counter track each gauge period."""
        self._gauge_queues.append((track or f"depth:{queue.name}", queue))

    def watch_cpu(self, core: CpuCore) -> None:
        """Sample *core*'s softirq residency each gauge period."""
        self._gauge_cpus.append(
            (f"softirq:cpu{core.core_id}", core, core.stats.snapshot(),
             self._now()))

    def watch_host(self, host: Any) -> None:
        """Convenience: watch a :class:`~repro.overlay.host.Host`'s
        standard receive-path queues and CPUs (NIC ring(s), per-CPU
        backlogs, every core)."""
        nic = getattr(host, "nic", None)
        if nic is not None:
            self.watch_queue(nic.ring)
            if nic.ring_high is not None:
                self.watch_queue(nic.ring_high)
        kernel = host.kernel
        for softnet in kernel.softnets:
            self.watch_queue(softnet.backlog.queue_low)
            self.watch_queue(softnet.backlog.queue_high)
        for core in kernel.cpus:
            self.watch_cpu(core)

    def start_gauges(self, interval_ns: int = DEFAULT_GAUGE_INTERVAL_NS) -> None:
        """Begin periodic gauge sampling (idempotent)."""
        if self._sampler is None:
            self._sampler = self.kernel.sim.every(interval_ns, self._sample)

    def _sample(self) -> None:
        now = self._now()
        recorder = self.recorder
        for track, queue in self._gauge_queues:
            recorder.counter(now, track, "depth", len(queue))
        refreshed = []
        for track, core, before, since in self._gauge_cpus:
            after = core.stats.snapshot()
            value = core.stats.residency(before, after, now - since,
                                         CpuContext.SOFTIRQ)
            recorder.counter(now, track, "residency", value)
            refreshed.append((track, core, after, now))
        self._gauge_cpus = refreshed

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def detach(self) -> None:
        """Unsubscribe from every tracepoint and stop the gauge sampler.

        Call once the simulation has stopped: the first call attributes
        the time of spans still open (the run ended mid-softirq) up to
        *now*, so the span totals cover every simulated nanosecond the
        spans did.  Later calls do nothing.
        """
        if self._callbacks:
            now = self._now()
            for track, stack in self._stacks.items():
                self._attribute(track, stack, now)
        for point, callback in self._callbacks:
            self.tracer.detach(point, callback)
        self._callbacks = []
        if self._sampler is not None:
            self._sampler.cancel()
            self._sampler = None

    def __repr__(self) -> str:
        return (f"<KernelObserver recorder={self.recorder!r} "
                f"packets={len(self.packets)}>")


def _arg(value: Any) -> Any:
    """Flatten a tracepoint field into a JSON-safe trace-event arg."""
    if isinstance(value, SKBuff):
        return value.skb_id
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def render_gantt(packets: Iterable[PacketMilestones], limit: int = 16,
                 width: int = 64) -> str:
    """A terminal Gantt chart of completed packets (the paper's Fig. 5).

    One row per packet in ring-arrival order, from ring DMA to socket
    delivery; high-priority packets are drawn with '=' and low-priority
    ones with '#', so preemption is visible at a glance.
    """
    rows = sorted((p for p in packets if p.complete),
                  key=lambda p: p.ring_at)[:limit]
    if not rows:
        return "(no completed packets)"
    start = min(p.ring_at for p in rows)
    span = max(max(p.socket_at for p in rows) - start, 1)

    def column(time_ns: int) -> int:
        return min(width - 1, int((time_ns - start) * (width - 1) / span))

    lines = [f"{'skb':>6}    |{'<- ' + str(span // 1000) + 'us ->':^{width}}|"]
    for p in rows:
        begin, finish = column(p.ring_at), column(p.socket_at)
        marker = "=" if p.high_priority else "#"
        bar = " " * begin + marker * max(1, finish - begin + 1)
        label = "hi" if p.high_priority else "lo"
        lines.append(f"{p.skb_id:>6} {label} |{bar.ljust(width)}|")
    return "\n".join(lines)
