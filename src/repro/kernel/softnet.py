"""Per-CPU softnet data: NAPI structures, poll lists, and the backlog.

This module models the kernel's ``softnet_data`` / ``napi_struct``
machinery, including PRISM's extensions:

- every :class:`NapiStruct` has **two** input queues (high/low priority),
  exactly the ``softnet_data``/``napi_struct`` extension of paper §IV-B
  (in VANILLA mode the high queue is simply never used);
- :class:`SoftnetData` supports head insertion and head-move of devices in
  the poll list (PRISM §III-A) in addition to vanilla tail scheduling.

The generic :meth:`NapiStruct.poll` implements the paper's Fig. 7 (lines
22–38) ``napi_poll``: if the high-priority queue is non-empty, a batch is
processed exclusively from it; otherwise from the low-priority queue.
With an always-empty high queue this degenerates to the vanilla FIFO poll,
so the same code serves both kernels faithfully.

:func:`hand_off` takes an skb from the stage that just ran to the next
one — inline, or through the next napi's queues — in every mode.

Polls and the hand-off book their CPU time through the servicing core's
charge function (``charge(ns) -> bool``, see
:meth:`CpuCore._charger <repro.kernel.cpu.CpuCore._charger>`), passed in
by whoever drives them, and yield a duration only when it returns True.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Generator, Optional, TYPE_CHECKING

from repro.netdev.queues import PacketQueue
from repro.packet.skb import SKBuff
from repro.trace.tracer import TracePoint

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.core import Kernel
    from repro.kernel.cpu import CpuCore
    from repro.kernel.gro import GroEngine
    from repro.netdev.device import PacketStage

__all__ = ["InlineGates", "NapiStruct", "SoftnetData", "NET_RX_SOFTIRQ",
           "hand_off"]

#: Linux's NET_RX_SOFTIRQ vector number.
NET_RX_SOFTIRQ = 3


class NapiStruct:
    """A pollable NAPI context (``napi_struct`` analogue).

    Generic virtual devices (gro_cells, backlog) use the dual input
    queues here; the physical NIC subclasses this and polls its rx ring
    instead (see :class:`repro.netdev.nic.NicNapi`).
    """

    def __init__(self, name: str, kernel: "Kernel", *,
                 stage: Optional["PacketStage"] = None,
                 queue_capacity: Optional[int] = None,
                 gro: Optional["GroEngine"] = None) -> None:
        self.name = name
        self.kernel = kernel
        self.stage = stage
        capacity = queue_capacity or kernel.config.napi_queue_capacity
        self.queue_low: PacketQueue[SKBuff] = PacketQueue(capacity, f"{name}:low")
        self.queue_high: PacketQueue[SKBuff] = PacketQueue(capacity, f"{name}:high")
        #: NAPI_STATE_SCHED: True while on a poll list or being polled.
        self.scheduled = False
        #: Softnet this NAPI is serviced by (set when bound to a CPU).
        self.softnet: Optional["SoftnetData"] = None
        #: Hook invoked on napi_complete (the NIC re-enables its irq here).
        self.on_complete: Optional[Callable[[], None]] = None
        #: GRO engine that coalesces skbs handed to this napi (the vxlan
        #: gro_cells); None for every other napi.
        self.gro = gro

    # ------------------------------------------------------------------
    # Queue state
    # ------------------------------------------------------------------
    def has_high(self) -> bool:
        return bool(self.queue_high)

    def has_low(self) -> bool:
        return bool(self.queue_low)

    def has_packets(self) -> bool:
        return bool(self.queue_high) or bool(self.queue_low)

    def enqueue(self, skb: SKBuff, high: bool) -> bool:
        """Enqueue to the high or low input queue; False on overflow drop."""
        kernel = self.kernel
        queue = self.queue_high if high else self.queue_low
        ledger = kernel.ledger
        faults = kernel.faults
        if faults is not None and faults.drop_at_queue(queue.name):
            # Forced fault drop at admission; the caller recycles the skb
            # exactly as it would for an organic overflow.
            site = f"fault:{queue.name}"
            kernel.count_drop(site, skb)
            if ledger is not None:
                w = skb.gro_segments
                ledger.drop(site, w)
                ledger.leave(w)
            return False
        ok = queue.enqueue(skb)
        if ledger is not None:
            # Either way the skb stops being "in processing": it is now
            # counted by the queue-depth provider, or terminally dropped.
            w = skb.gro_segments
            ledger.leave(w)
            if not ok:
                ledger.drop(queue.name, w)
        if not ok:
            kernel.count_drop(queue.name, skb)
        elif kernel.tracer.active and \
                kernel.tracer.has_subscribers(TracePoint.QUEUE_WAIT):
            # Stamp the enqueue time so the dequeue side can emit the
            # complete residency interval.  Only when an observer is
            # attached: the mark is a dict insert per packet otherwise.
            skb.mark(f"q:{queue.name}", kernel.sim.now)
        return ok

    # ------------------------------------------------------------------
    # Polling
    # ------------------------------------------------------------------
    def poll(self, batch_size: int, charge: Callable[[int], bool]
             ) -> Generator[int, None, int]:
        """Process one batch (paper Fig. 7 napi_poll).  Returns count.

        Chooses the high queue if non-empty at entry, else the low queue,
        and runs up to *batch_size* skbs exclusively from it, each through
        its stage and then :func:`hand_off`.  CPU time goes through
        *charge* (the servicing core's softirq charge, or the poll-mode
        driver's user charge).  Tracepoint gates are read once per batch,
        so a batch with no per-skb subscriber pays two local bool tests
        per skb and nothing else.
        """
        kernel = self.kernel
        tracer = kernel.tracer
        active = tracer.active
        trace_waits = active and tracer.has_subscribers(TracePoint.QUEUE_WAIT)
        spans = active and tracer.has_subscribers(TracePoint.SPAN_BEGIN)
        stage_done = active and tracer.has_subscribers(TracePoint.STAGE_DONE)
        traced = trace_waits or spans
        gates = InlineGates(tracer) if active else None
        ns = kernel.costs.device_poll_overhead_ns
        if charge(ns):
            yield ns
        queue = self.queue_high if self.queue_high else self.queue_low
        fixed_stage = self.stage
        softnet = self.softnet
        track = self._track() if spans else None
        ledger = kernel.ledger
        processed = 0
        dequeue = queue.popleft
        while processed < batch_size and queue:
            skb = dequeue()
            if ledger is not None:
                ledger.enter(skb.gro_segments)
            stage = fixed_stage
            if stage is None:
                # The shared backlog: dispatch by the skb's device.
                dev = skb.dev
                stage = dev.rx_stage if dev is not None else None
                if stage is None:
                    stage = self._stage_for(skb)  # raises
            if traced:
                if trace_waits:
                    since = skb.marks.get(f"q:{queue.name}")
                    if since is not None:
                        tracer.emit(TracePoint.QUEUE_WAIT, queue=queue.name,
                                    skb=skb, since=since)
                if spans:
                    tracer.emit(TracePoint.SPAN_BEGIN, track=track,
                                name=f"skb:{stage.name}",
                                hp=skb.is_high_priority)
            ns = stage.cost(skb)
            if charge(ns):
                yield ns
            napi = stage.run(skb, softnet)
            if stage_done:
                tracer.emit(TracePoint.STAGE_DONE, device=self.name,
                            skb=skb, stage=stage.name)
            if napi is not None:
                yield from hand_off(napi, skb, gates, charge)
            if spans:
                tracer.emit(TracePoint.SPAN_END, track=track,
                            name=f"skb:{stage.name}")
            processed += 1
        if active and tracer.has_subscribers(TracePoint.NAPI_POLL_DONE):
            tracer.emit(TracePoint.NAPI_POLL_DONE, napi=self.name,
                        processed=processed)
        return processed

    def _track(self) -> str:
        """Span track of per-skb stage work: the servicing CPU's."""
        softnet = self.softnet
        return (f"cpu{softnet.cpu.core_id}" if softnet is not None
                else self.name)

    def _stage_for(self, skb: SKBuff) -> "PacketStage":
        """The stage to run: fixed, or per-skb for the shared backlog."""
        if self.stage is not None:
            return self.stage
        dev = skb.dev
        if dev is None or dev.rx_stage is None:
            raise RuntimeError(
                f"{self.name}: skb {skb!r} has no device rx_stage to dispatch to")
        return dev.rx_stage

    def __repr__(self) -> str:
        return (f"<NapiStruct {self.name!r} sched={self.scheduled} "
                f"high={len(self.queue_high)} low={len(self.queue_low)}>")


def hand_off(napi: NapiStruct, skb: SKBuff, gates: Optional["InlineGates"],
             charge: Callable[[int], bool]) -> Generator[int, None, None]:
    """Hand *skb*, whose last stage returned *napi*, to *napi*'s stage.

    The one hand-off loop of the receive pipeline: the stage-transition
    functions PRISM modifies (§IV-C, ``gro_cells_receive`` /
    ``netif_rx``) for every mode, read from the switches
    :meth:`Kernel._bind_mode <repro.kernel.core.Kernel._bind_mode>` sets:

    - **bypass**, and **PRISM-sync** for a high-class skb: after the
      inline-call overhead the stage runs right here — its cost charged,
      then :meth:`~repro.netdev.device.PacketStage.run` called in the
      napi's context, as ``netif_receive_skb`` is called directly
      (§III-B1) — and the loop goes on with the napi that stage returns;
      the skb never touches the napi's queues;
    - otherwise the skb is coalesced into the tail skb of a GRO napi
      (``gro_merge_ns`` after the recycle), or enqueued — to the high
      queue for a PRISM high-class skb — after which the softirq is
      raised and the napi scheduled, at the head of the poll list when
      high (§III-A).  An overflow drop recycles the skb.

    CPU time goes through *charge*, which the caller's poll was given.
    The durations it charges, and the side effects between them, are
    those of the nested per-stage generators this loop replaces.  *gates*
    is None in an untraced batch; otherwise each inline stage fires
    ``SYNC_INLINE`` and a ``SPAN_BEGIN``/``SPAN_END`` pair nested inside
    the previous stage's, as a nested call would, and ``STAGE_DONE``
    when its own ``run`` returns, so the Fig. 4 milestones follow the
    pipeline order in every mode.
    """
    kernel = napi.kernel
    costs = kernel.costs
    level = skb.priority_level
    inline = None
    while napi is not None:
        # PRISM high class: the skb's level is within the high device
        # queue's range (the multi-level extension of §VII-3; the
        # paper's prototype is binary, level 0 = high).
        high = (kernel.prism and level is not None
                and level <= kernel.config.high_priority_max_level)
        if kernel.bypass or (high and kernel.sync):
            # Run-to-completion skips GRO: holding a segment for
            # coalescing would reintroduce the queueing delay the inline
            # path exists to remove.
            ns = (costs.bypass_stage_overhead_ns if kernel.bypass
                  else costs.sync_stage_overhead_ns)
            if charge(ns):
                yield ns
            stage = napi.stage
            if stage is None:
                stage = napi._stage_for(skb)
            if gates is not None:
                if inline is None:
                    inline = []
                inline.append((stage, gates.begin(napi, stage, skb)))
            ns = stage.cost(skb)
            if charge(ns):
                yield ns
            done = napi
            napi = stage.run(skb, napi.softnet)
            if gates is not None and gates.stage_done:
                kernel.tracer.emit(TracePoint.STAGE_DONE, device=done.name,
                                   skb=skb, stage=stage.name)
            continue
        gro = napi.gro
        if gro is not None and gro.try_merge_into_queue(
                napi.queue_high if high else napi.queue_low, skb):
            if gates is not None and gates.gro_merge:
                kernel.tracer.emit(TracePoint.GRO_MERGE,
                                   device=skb.dev.name, skb=skb)
            ledger = kernel.ledger
            if ledger is not None:
                # The absorbed segments are now counted through the held
                # super-skb's gro_segments (queued weight), so this skb's
                # in-processing weight moves there.
                ledger.leave(skb.gro_segments)
            # The skb's packet now lives in the held super-skb's
            # gro_list; the emptied metadata can be reused.
            kernel.skb_pool.recycle(skb)
            ns = costs.gro_merge_ns
            if charge(ns):
                yield ns
        elif not napi.enqueue(skb, high=high):
            kernel.skb_pool.recycle(skb)  # overflow drop, already counted
        else:
            softnet = napi.softnet
            if softnet is None:
                raise RuntimeError(
                    f"napi {napi.name!r} is not bound to a softnet")
            ns = costs.softirq_raise_ns
            if charge(ns):
                yield ns
            if high:
                softnet.napi_schedule_head(napi)
            elif not napi.scheduled:
                softnet.napi_schedule(napi)
        break
    while inline:
        stage, track = inline.pop()
        gates.end(stage, track)


class InlineGates:
    """The hand-off's tracepoint gates, read once per traced batch."""

    __slots__ = ("tracer", "sync_inline", "spans", "stage_done", "gro_merge")

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.sync_inline = tracer.has_subscribers(TracePoint.SYNC_INLINE)
        self.spans = tracer.has_subscribers(TracePoint.SPAN_BEGIN)
        self.stage_done = tracer.has_subscribers(TracePoint.STAGE_DONE)
        self.gro_merge = tracer.has_subscribers(TracePoint.GRO_MERGE)

    def begin(self, napi: NapiStruct, stage: "PacketStage",
              skb: SKBuff) -> Optional[str]:
        """An inline stage starts; returns its span track (None: no span)."""
        tracer = self.tracer
        if self.sync_inline:
            tracer.emit(TracePoint.SYNC_INLINE, device=napi.name, skb=skb)
        if not self.spans:
            return None
        track = napi._track()
        tracer.emit(TracePoint.SPAN_BEGIN, track=track,
                    name=f"skb:{stage.name}", hp=skb.is_high_priority)
        return track

    def end(self, stage: "PacketStage", track: Optional[str]) -> None:
        """An inline stage and every stage after it have finished."""
        if track is not None:
            self.tracer.emit(TracePoint.SPAN_END, track=track,
                             name=f"skb:{stage.name}")


class SoftnetData:
    """Per-CPU NAPI bookkeeping (``softnet_data`` analogue)."""

    def __init__(self, kernel: "Kernel", cpu: "CpuCore") -> None:
        self.kernel = kernel
        self.cpu = cpu
        #: The global per-CPU poll list (paper Fig. 2 / Fig. 7 POLL_LIST).
        self.poll_list: Deque[NapiStruct] = deque()
        #: The per-CPU backlog NAPI serving non-NAPI-aware virtual devices
        #: (veth).  Its stage is resolved per-skb from ``skb.dev``.
        self.backlog = NapiStruct(
            f"backlog:cpu{cpu.core_id}", kernel,
            queue_capacity=kernel.config.backlog_capacity)
        self.backlog.softnet = self

    # ------------------------------------------------------------------
    # Scheduling devices onto the poll list
    # ------------------------------------------------------------------
    def napi_schedule(self, napi: NapiStruct) -> None:
        """Vanilla ``napi_schedule``: tail-append if not already scheduled."""
        if napi.scheduled:
            return
        napi.scheduled = True
        napi.softnet = self
        self.poll_list.append(napi)
        self.cpu.raise_softirq(NET_RX_SOFTIRQ)

    def napi_schedule_head(self, napi: NapiStruct) -> None:
        """PRISM: insert at the head, or move to the head if queued.

        Used for devices holding high-priority packets (§III-A steps
        2/5).  A device that is scheduled but *currently being polled*
        (popped off the list) is left alone — the poll loop re-inserts it
        at the right position afterwards.
        """
        if napi.scheduled:
            try:
                self.poll_list.remove(napi)
            except ValueError:
                return  # being polled right now
            self.poll_list.appendleft(napi)
            return
        napi.scheduled = True
        napi.softnet = self
        self.poll_list.appendleft(napi)
        self.cpu.raise_softirq(NET_RX_SOFTIRQ)

    def napi_complete(self, napi: NapiStruct) -> None:
        """Device has drained: clear SCHED and re-enable its interrupt."""
        napi.scheduled = False
        if napi.on_complete is not None:
            napi.on_complete()

    def poll_list_names(self) -> list:
        """Snapshot of device names on the poll list (for Fig. 6 traces)."""
        return [napi.name for napi in self.poll_list]

    def __repr__(self) -> str:
        return (f"<SoftnetData cpu{self.cpu.core_id} "
                f"poll_list={self.poll_list_names()}>")
