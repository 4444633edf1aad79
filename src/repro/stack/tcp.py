"""A simplified message-oriented TCP endpoint.

The simulated testbed is a lossless, in-order, point-to-point wire, so
this TCP model omits retransmission, congestion control, and explicit
ACK traffic, and models what the paper's workloads actually exercise:

- **segmentation**: a large send is split into MSS-sized segments by the
  egress path (TSO-style), exactly what makes the Fig. 13 background
  traffic (64 KB sockperf TCP messages) heavy on the receive path;
- **reassembly**: segments are accumulated per (flow, message) and the
  application receives whole messages — including segments arriving
  folded inside GRO super-skbs.

These simplifications are documented in DESIGN.md; none of the paper's
experiments depend on loss recovery (their testbed is also a lossless
back-to-back 100 GbE link).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, Optional, Tuple, TYPE_CHECKING

from repro.kernel.cpu import Block, Work
from repro.netdev.queues import PacketQueue
from repro.packet.addr import Ipv4Address
from repro.packet.flow import FlowKey
from repro.packet.packet import Packet
from repro.packet.skb import SKBuff
from repro.trace.tracer import TracePoint

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.core import Kernel
    from repro.kernel.cpu import CpuCore
    from repro.stack.netns import NetNamespace

__all__ = ["TcpSegment", "TcpMessage", "TcpEndpoint"]

_message_ids = itertools.count(1)


@dataclass
class TcpMessage:
    """An application-level message carried over TCP."""

    payload: Any
    length: int
    created_at: Optional[int] = None
    message_id: int = field(default_factory=lambda: next(_message_ids))


@dataclass(frozen=True)
class TcpSegment:
    """The payload object of one TCP segment packet."""

    message: TcpMessage
    offset: int
    seg_len: int

    @property
    def is_last(self) -> bool:
        return self.offset + self.seg_len >= self.message.length


class TcpEndpoint:
    """A bound TCP endpoint delivering whole messages to the application.

    The delivered records are ``(TcpMessage, FlowKey)`` tuples, where the
    flow key identifies the sender (so request/response applications can
    reply to the right peer).
    """

    def __init__(self, kernel: "Kernel", netns: "NetNamespace",
                 bind_ip: Optional[Ipv4Address], bind_port: int,
                 owner_core: Optional["CpuCore"] = None) -> None:
        self.kernel = kernel
        self.netns = netns
        self.bind_ip = bind_ip
        self.bind_port = bind_port
        self.owner_core = owner_core
        capacity = kernel.config.socket_rcvbuf_packets
        name = f"{netns.name}:tcp:{bind_port}"
        self.rcvbuf: PacketQueue[Tuple[TcpMessage, FlowKey]] = PacketQueue(
            capacity, name)
        self._waiter = None
        #: (flow, message_id) -> bytes received so far.
        self._partial: Dict[Tuple[FlowKey, int], int] = {}
        self.messages_delivered = 0
        self.bytes_received = 0

    def set_owner_core(self, core: "CpuCore") -> None:
        self.owner_core = core

    # ------------------------------------------------------------------
    # Softirq side
    # ------------------------------------------------------------------
    def receive_skb(self, skb: SKBuff, from_cpu: "CpuCore") -> bool:
        """Process all segments in *skb* (including GRO-merged ones)."""
        ledger = self.kernel.ledger
        if ledger is not None:
            # Packet-ledger terminal: every wire packet in the skb has
            # reached the endpoint.  Message-level rcvbuf drops below are
            # a different (application) unit and tracked separately.
            w = skb.gro_segments
            ledger.deliver(self.rcvbuf.name, w)
            ledger.leave(w)
        delivered_any = False
        for packet in self._iter_packets(skb):
            if self._receive_segment(packet, skb, from_cpu):
                delivered_any = True
        return delivered_any

    @staticmethod
    def _iter_packets(skb: SKBuff):
        yield skb.packet
        for packet in skb.gro_list:
            yield packet

    def _receive_segment(self, packet: Packet, skb: SKBuff,
                         from_cpu: "CpuCore") -> bool:
        segment = packet.payload
        if not isinstance(segment, TcpSegment):
            return False
        flow = packet.inner_flow_key() or packet.flow_key()
        if flow is None:
            return False
        key = (flow, segment.message.message_id)
        received = self._partial.get(key, 0) + segment.seg_len
        self.bytes_received += segment.seg_len
        if received >= segment.message.length:
            self._partial.pop(key, None)
            return self._deliver(segment.message, flow, skb, from_cpu)
        self._partial[key] = received
        return False

    def _deliver(self, message: TcpMessage, flow: FlowKey, skb: SKBuff,
                 from_cpu: "CpuCore") -> bool:
        if not self.rcvbuf.enqueue((message, flow)):
            self.kernel.count_drop(self.rcvbuf.name, skb)
            return False
        self.messages_delivered += 1
        skb.mark("socket_enqueue", self.kernel.sim.now)
        self.kernel.tracer.emit(TracePoint.SOCKET_ENQUEUE,
                                socket=self.rcvbuf.name, skb=skb)
        self._wake_waiter(from_cpu)
        return True

    def _wake_waiter(self, from_cpu: "CpuCore") -> None:
        waiter, self._waiter = self._waiter, None
        if waiter is None or waiter.triggered:
            return
        costs = self.kernel.costs
        if self.owner_core is None or self.owner_core is from_cpu:
            latency = costs.wakeup_same_core_ns
        else:
            latency = costs.wakeup_cross_core_ns
        self.kernel.sim.schedule(latency, waiter.succeed)

    # ------------------------------------------------------------------
    # Application side
    # ------------------------------------------------------------------
    def recv(self) -> Generator[Any, Any, Tuple[TcpMessage, FlowKey]]:
        """Block until a whole message arrives; returns (message, peer)."""
        yield Work(self.kernel.costs.syscall_ns)
        while not self.rcvbuf:
            self._waiter = self.kernel.sim.event(name=f"recv:{self.rcvbuf.name}")
            yield Block(self._waiter)
        return self.rcvbuf.dequeue()

    def try_recv(self) -> Optional[Tuple[TcpMessage, FlowKey]]:
        return self.rcvbuf.dequeue() if self.rcvbuf else None

    def close(self) -> None:
        self.netns.sockets.unbind_tcp(self)

    def __repr__(self) -> str:
        return f"<TcpEndpoint {self.rcvbuf.name} buffered={len(self.rcvbuf)}>"
