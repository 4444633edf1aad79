"""UDP sockets and the per-namespace socket table.

Sockets are the kernel/user boundary: the softirq side delivers skbs into
a bounded receive buffer and wakes the blocked application thread (paying
the same-core or cross-core wake-up latency — the kernel-user interface
cost the paper's §VII-2 discusses); the application side is a generator
API (``yield from socket.recv()``) usable from
:class:`~repro.kernel.cpu.UserThread` code.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional, Tuple, TYPE_CHECKING

from repro.kernel.cpu import Block
from repro.netdev.queues import PacketQueue
from repro.packet.addr import Ipv4Address
from repro.packet.skb import SKBuff
from repro.trace.tracer import TracePoint

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.core import Kernel
    from repro.kernel.cpu import CpuCore
    from repro.stack.netns import NetNamespace
    from repro.stack.tcp import TcpEndpoint

__all__ = ["UdpSocket", "SocketTable"]


class UdpSocket:
    """A bound UDP socket with a bounded receive buffer."""

    def __init__(self, kernel: "Kernel", netns: "NetNamespace",
                 bind_ip: Optional[Ipv4Address], bind_port: int,
                 owner_core: Optional["CpuCore"] = None) -> None:
        self.kernel = kernel
        self.netns = netns
        self.bind_ip = bind_ip
        self.bind_port = bind_port
        #: Core the receiving application thread runs on (for wake-up
        #: latency); set via :meth:`set_owner_core` or at creation.
        self.owner_core = owner_core
        capacity = kernel.config.socket_rcvbuf_packets
        name = f"{netns.name}:udp:{bind_port}"
        self.rcvbuf: PacketQueue[SKBuff] = PacketQueue(capacity, name)
        self._waiter = None
        self.delivered = 0
        self.delivered_bytes = 0

    def set_owner_core(self, core: "CpuCore") -> None:
        self.owner_core = core

    # ------------------------------------------------------------------
    # Softirq side
    # ------------------------------------------------------------------
    def deliver(self, skb: SKBuff, from_cpu: "CpuCore") -> bool:
        """Enqueue *skb* and wake a blocked receiver.  False on drop."""
        kernel = self.kernel
        tracer = kernel.tracer
        ledger = kernel.ledger
        if not self.rcvbuf.enqueue(skb):
            kernel.count_drop(self.rcvbuf.name, skb)
            if ledger is not None:
                w = skb.gro_segments
                ledger.drop(self.rcvbuf.name, w)
                ledger.leave(w)
            kernel.skb_pool.recycle(skb)  # rcvbuf overflow drop
            return False
        if ledger is not None:
            # Terminal for the packet ledger: the skb reached a socket.
            w = skb.gro_segments
            ledger.deliver(self.rcvbuf.name, w)
            ledger.leave(w)
        self.delivered += 1
        self.delivered_bytes += skb.wire_len
        skb.mark("socket_enqueue", kernel.sim.now)
        if tracer.active:
            for callback in tracer.subscribers(TracePoint.SOCKET_ENQUEUE):
                callback(socket=self.rcvbuf.name, skb=skb)
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
        sim = self.kernel.sim  # pushed without a handle: nothing cancels it
        sim._push(sim.now + int(latency), waiter.succeed, ())

    # ------------------------------------------------------------------
    # Application side (generator API for UserThread code)
    # ------------------------------------------------------------------
    def recv(self) -> Generator[Any, Any, SKBuff]:
        """Block until a datagram arrives; returns its skb."""
        yield int(self.kernel.costs.syscall_ns)
        while not self.rcvbuf:
            self._waiter = self.kernel.sim.event(name=f"recv:{self.rcvbuf.name}")
            yield Block(self._waiter)
        return self.rcvbuf.dequeue()

    def try_recv(self) -> Optional[SKBuff]:
        """Non-blocking receive (no syscall cost charged)."""
        return self.rcvbuf.dequeue() if self.rcvbuf else None

    def close(self) -> None:
        self.netns.sockets.unbind_udp(self)

    def __repr__(self) -> str:
        return f"<UdpSocket {self.rcvbuf.name} buffered={len(self.rcvbuf)}>"


class SocketTable:
    """Per-namespace transport demux tables."""

    def __init__(self, netns: "NetNamespace") -> None:
        self.netns = netns
        self._udp: Dict[Tuple[Optional[int], int], UdpSocket] = {}
        self._tcp: Dict[Tuple[Optional[int], int], "TcpEndpoint"] = {}
        self.unmatched = 0

    # ------------------------------------------------------------------
    # UDP
    # ------------------------------------------------------------------
    def bind_udp(self, socket: UdpSocket) -> None:
        key = self._key(socket.bind_ip, socket.bind_port)
        if key in self._udp:
            raise ValueError(f"UDP port already bound: {key}")
        self._udp[key] = socket

    def unbind_udp(self, socket: UdpSocket) -> None:
        key = self._key(socket.bind_ip, socket.bind_port)
        self._udp.pop(key, None)

    def lookup_udp(self, dst_ip: Ipv4Address, dst_port: int) -> Optional[UdpSocket]:
        socket = self._udp.get((dst_ip.value, dst_port))
        if socket is None:
            socket = self._udp.get((None, dst_port))
        if socket is None:
            self.unmatched += 1
        return socket

    # ------------------------------------------------------------------
    # TCP
    # ------------------------------------------------------------------
    def bind_tcp(self, endpoint: "TcpEndpoint") -> None:
        key = self._key(endpoint.bind_ip, endpoint.bind_port)
        if key in self._tcp:
            raise ValueError(f"TCP port already bound: {key}")
        self._tcp[key] = endpoint

    def unbind_tcp(self, endpoint: "TcpEndpoint") -> None:
        key = self._key(endpoint.bind_ip, endpoint.bind_port)
        self._tcp.pop(key, None)

    def lookup_tcp(self, dst_ip: Ipv4Address, dst_port: int) -> Optional["TcpEndpoint"]:
        endpoint = self._tcp.get((dst_ip.value, dst_port))
        if endpoint is None:
            endpoint = self._tcp.get((None, dst_port))
        if endpoint is None:
            self.unmatched += 1
        return endpoint

    @staticmethod
    def _key(ip: Optional[Ipv4Address], port: int) -> Tuple[Optional[int], int]:
        if not 0 < port < 65536:
            raise ValueError(f"invalid port {port}")
        return (ip.value if ip is not None else None, port)

    def __repr__(self) -> str:
        return (f"<SocketTable {self.netns.name!r} udp={len(self._udp)} "
                f"tcp={len(self._tcp)}>")
