"""Named tracepoints with attachable callbacks.

Kernel code calls :meth:`Tracer.emit` at well-known points; analysis tools
attach callbacks.  This is the simulated kernel's only observation
mechanism: the kernel observer (:mod:`repro.obs`) and the flow tap
(:mod:`repro.flows`) are its two subscribers; the metrics snapshot
(:mod:`repro.telemetry`) is read from the observer and the kernel's own
accounting after the run.  Emitting with no subscriber costs one dict lookup, and hot
loops read :attr:`Tracer.active` and :meth:`Tracer.has_subscribers` once
per batch, so tracepoints can stay in the hot path permanently (like
compiled-in kernel tracepoints).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Tuple

__all__ = ["Tracer", "TracePoint"]


class TracePoint:
    """Well-known tracepoint names used by the simulated kernel."""

    #: One device is polled. fields: cpu, device, local_list, global_list
    #: (poll-list names after the poll; emitted by net_rx_action).
    NAPI_POLL = "napi_poll"
    #: A NAPI poll batch ended (softirq or poll-mode driver).
    #: fields: napi, processed
    NAPI_POLL_DONE = "napi_poll_done"
    #: A wire packet was DMA'd into an rx ring. fields: queue, packet
    NIC_RX = "nic_rx"
    #: One skb finished one stage. fields: device, skb
    STAGE_DONE = "stage_done"
    #: skb allocated at the physical driver. fields: device, skb
    SKB_ALLOC = "skb_alloc"
    #: skb delivered to a socket receive buffer (a UDP datagram, or the
    #: skb completing a TCP message). fields: socket, skb
    SOCKET_ENQUEUE = "socket_enqueue"
    #: A counted drop (overflow, protocol or fault site); emitted only
    #: by Kernel.count_drop. fields: queue, skb (an skb, a raw Packet
    #: for ring and skb-alloc drops, or None)
    DROP = "drop"
    #: PRISM-sync inline stage execution. fields: device, skb
    SYNC_INLINE = "sync_inline"
    #: A named span opens on a track. fields: track, name
    #: (spans nest per track; every SPAN_BEGIN is matched by a SPAN_END
    #: with the same name in LIFO order — see repro.obs).
    SPAN_BEGIN = "span_begin"
    #: A named span closes on a track. fields: track, name
    SPAN_END = "span_end"
    #: An skb leaves a queue it waited in. fields: queue, skb, since
    #: (since = sim-ns of the enqueue; emitted at dequeue time so the
    #: residency interval is complete when it fires).
    QUEUE_WAIT = "queue_wait"
    #: GRO coalesced an skb into a held super-skb. fields: device, skb
    GRO_MERGE = "gro_merge"


class Tracer:
    """A registry of tracepoints and their subscribers."""

    def __init__(self) -> None:
        #: point -> subscribers, in attach order.  Tuples, replaced on
        #: attach/detach, so an emit iterates a snapshot without copying
        #: it; points with no subscriber have no key.
        self._subscribers: Dict[str, Tuple[Callable[..., None], ...]] = {}
        #: True iff *any* tracepoint has a subscriber.  Hot loops read
        #: it once per batch and skip every ``has_subscribers`` lookup
        #: when it is False; it is maintained by attach/detach only.
        self.active: bool = False

    def attach(self, point: str, callback: Callable[..., None]) -> Callable[..., None]:
        """Subscribe *callback* to *point*; returns it for later detach."""
        callbacks = self._subscribers.get(point, ())
        self._subscribers[point] = callbacks + (callback,)
        self.active = True
        return callback

    def detach(self, point: str, callback: Callable[..., None]) -> bool:
        """Unsubscribe; returns False if it was not attached."""
        callbacks = list(self._subscribers.get(point, ()))
        if callback not in callbacks:
            return False
        callbacks.remove(callback)
        if callbacks:
            self._subscribers[point] = tuple(callbacks)
        else:
            del self._subscribers[point]
        self.active = bool(self._subscribers)
        return True

    def emit(self, point: str, **fields: Any) -> None:
        """Fire *point*.  Near-free when nothing is attached."""
        for callback in self._subscribers.get(point, ()):
            callback(**fields)

    def subscribers(self, point: str) -> Tuple[Callable[..., None], ...]:
        """*point*'s subscribers, for per-packet sites to call directly:
        that skips :meth:`emit`'s packing and unpacking of the fields,
        which costs several times the call itself."""
        return self._subscribers.get(point, ())

    def has_subscribers(self, point: str) -> bool:
        return point in self._subscribers

    def __repr__(self) -> str:
        points = {p: len(cbs) for p, cbs in self._subscribers.items()}
        return f"<Tracer {points}>"
