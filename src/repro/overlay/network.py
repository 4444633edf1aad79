"""The wire and the coarse remote (client) machine.

The paper's testbed is two servers connected back-to-back with 100 GbE.
Only the *receiving* host's kernel is under study; the sender just
generates load and measures round trips.  Accordingly (see DESIGN.md):

- :class:`Wire` models the link with propagation latency plus per-packet
  serialization (per direction, FIFO — at the evaluated rates the link
  itself never queues more than a TSO burst);
- :class:`RemoteHost` models the client machine coarsely: packets it
  sends appear on the wire directly (its own kernel is not the system
  under test), and packets it receives are handed to registered per-port
  handlers after a fixed client-side overhead.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.fastpath.headercache import DecapMemo
from repro.kernel.costs import CostModel
from repro.packet.addr import Ipv4Address, MacAddress
from repro.packet.packet import Packet
from repro.sim.engine import Simulator

__all__ = ["Wire", "RemoteHost", "RemoteContainer"]


class Wire:
    """A full-duplex point-to-point link between two endpoints.

    Endpoints must expose ``receive(packet)``.  Each direction serializes
    packets FIFO at the configured line rate.
    """

    def __init__(self, sim: Simulator, costs: CostModel) -> None:
        self.sim = sim
        self.costs = costs
        self._endpoints: List[Any] = []
        #: Per direction: when the link is free again.
        self._busy_until: List[int] = [0, 0]
        self.packets = 0
        self.bytes = 0
        #: Optional fault-injection hook ``(packet, receiver) -> bool``;
        #: True drops the packet before it occupies the link (a lost
        #: packet consumes no serialization time — the loss model is
        #: "corrupted on the wire", discarded by the receiving PHY).
        self.fault_hook: Optional[Callable[[Packet, Any], bool]] = None
        self.fault_dropped = 0

    def attach(self, end_a: Any, end_b: Any) -> None:
        """Connect the two endpoints (each must have ``receive``)."""
        for end in (end_a, end_b):
            if not hasattr(end, "receive"):
                raise TypeError(f"wire endpoint {end!r} has no receive()")
        self._endpoints = [end_a, end_b]
        if hasattr(end_a, "attach_wire"):
            end_a.attach_wire(self)
        if hasattr(end_b, "attach_wire"):
            end_b.attach_wire(self)

    def transmit(self, packet: Packet, sender: Any) -> None:
        """Send *packet* from *sender* to the opposite endpoint."""
        if len(self._endpoints) != 2:
            raise RuntimeError("wire is not attached to two endpoints")
        if sender is self._endpoints[0]:
            direction, receiver = 0, self._endpoints[1]
        elif sender is self._endpoints[1]:
            direction, receiver = 1, self._endpoints[0]
        else:
            raise ValueError(f"{sender!r} is not attached to this wire")
        if self.fault_hook is not None and self.fault_hook(packet, receiver):
            self.fault_dropped += 1
            return
        wire_len = packet.wire_len
        costs = self.costs
        sim = self.sim
        busy_until = self._busy_until
        start = busy_until[direction]
        if start < sim.now:
            start = sim.now
        finish = start + int(wire_len / costs.wire_bytes_per_ns)
        busy_until[direction] = finish
        self.packets += 1
        self.bytes += wire_len
        # The arrival is never in the past and nothing cancels it, so the
        # occurrence is pushed directly (schedule_at without its handle).
        sim._push(finish + costs.wire_latency_ns, receiver.receive, (packet,))


class RemoteContainer:
    """A container on the remote machine (identity only)."""

    def __init__(self, name: str, ip: Ipv4Address, mac: MacAddress) -> None:
        self.name = name
        self.ip = ip
        self.mac = mac

    def __repr__(self) -> str:
        return f"<RemoteContainer {self.name!r} {self.ip}>"


class RemoteHost:
    """The coarse client machine: traffic sources and reply handlers."""

    #: Decap-memo capacity (as the NIC's: every concurrent reply flow).
    DECAP_MEMO_CAP = 64

    def __init__(self, sim: Simulator, costs: CostModel, *,
                 name: str = "client",
                 ip: Ipv4Address, mac: MacAddress) -> None:
        self.sim = sim
        self.costs = costs
        self.name = name
        self.ip = ip
        self.mac = mac
        self.wire: Optional[Wire] = None
        self._port_handlers: Dict[int, Callable[[Packet], None]] = {}
        self.rx_packets = 0
        self.unhandled = 0
        #: Replies share header stacks per flow: decap once per stack.
        self._decap = DecapMemo(self.DECAP_MEMO_CAP).decap

    def attach_wire(self, wire: Wire) -> None:
        self.wire = wire

    def transmit(self, packet: Packet) -> None:
        if self.wire is None:
            raise RuntimeError(f"{self.name}: no wire attached")
        self.wire.transmit(packet, sender=self)

    def on_port(self, port: int, handler: Callable[[Packet], None]) -> None:
        """Register a handler for packets whose (inner) UDP/TCP dst is *port*."""
        if port in self._port_handlers:
            raise ValueError(f"port {port} already has a handler")
        self._port_handlers[port] = handler

    def receive(self, packet: Packet) -> None:
        """A packet arrives from the wire: demux to a client app."""
        self.rx_packets += 1
        inner = packet
        if packet.vni is not None:
            inner = self._decap(packet)
        l4 = inner.layers.l4
        handler = self._port_handlers.get(l4.dst_port) if l4 else None
        if handler is None:
            self.unhandled += 1
            return
        # Client-side rx processing is a fixed overhead (coarse model);
        # nothing cancels it, so it is pushed without a handle.
        sim = self.sim
        sim._push(sim.now + int(self.costs.client_overhead_ns), handler,
                  (inner,))

    def __repr__(self) -> str:
        return f"<RemoteHost {self.name!r} {self.ip}>"
