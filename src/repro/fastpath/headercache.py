"""Per-flow caching of immutable UDP(+VXLAN) header stacks.

Steady-rate senders (the sockperf floods, the remote ping-pong clients)
rebuild an identical Ethernet/IPv4/UDP — or, for overlay traffic, a
seven-header VXLAN — stack for every packet of a flow.  All headers are
frozen dataclasses and nothing on the receive path mutates them, so the
whole stack can be built once per (addresses, ports, payload length)
tuple and shared between packets, exactly like the kernel reuses a
cached flow's fib/neighbour state on transmit.

Identity guarantees (pinned by the golden digest tests):

* The produced :class:`~repro.packet.packet.Packet` is field-identical
  to one built header-by-header: the VXLAN outer UDP source port is a
  pure function of the inner flow 5-tuple, which is part of the cache
  key, and every length field derives from ``payload_len``.
* Exactly one packet id is consumed per send on both the cold and the
  cached path (``vxlan_encapsulate`` reuses the inner packet's id).

The receive side has the mirror image: :class:`DecapMemo` strips a shared
VXLAN envelope once per outer header stack.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

from repro.packet.addr import Ipv4Address, MacAddress
from repro.packet.packet import Layers, Packet, vxlan_decapsulate

__all__ = ["CachedUdpBuilder", "DecapMemo"]


class CachedUdpBuilder:
    """Builds UDP datagrams with per-flow header-stack memoization."""

    __slots__ = ("_stacks",)

    def __init__(self) -> None:
        #: flow tuple -> the prebuilt (and possibly encapsulated) header
        #: stack's layer record
        self._stacks: Dict[Tuple, Layers] = {}

    def build(self, *, src_mac: MacAddress, dst_mac: MacAddress,
              src_ip: Ipv4Address, dst_ip: Ipv4Address,
              src_port: int, dst_port: int,
              payload: Any, payload_len: int,
              created_at: Optional[int] = None,
              encap: Any = None) -> Packet:
        """Return a UDP packet, VXLAN-encapsulated when *encap* is given.

        Field-identical to ``build_udp_packet`` (+ ``apply_encap``) —
        only the header objects are shared between packets of a flow.
        """
        # Addresses enter the key as their integer values: an int tuple
        # hashes in C, without a Python-level __hash__ per field.
        key = (src_mac.value, dst_mac.value, src_ip.value, dst_ip.value,
               src_port, dst_port, payload_len,
               None if encap is None else
               (encap.vni, encap.outer_src_mac.value,
                encap.outer_dst_mac.value, encap.outer_src_ip.value,
                encap.outer_dst_ip.value))
        layers = self._stacks.get(key)
        if layers is None:
            # Import here to avoid a cycle (egress imports nothing from
            # fastpath, but keep the one-way dependency obvious).
            from repro.stack.egress import apply_encap, build_udp_packet
            packet = build_udp_packet(
                src_mac=src_mac, dst_mac=dst_mac, src_ip=src_ip,
                dst_ip=dst_ip, src_port=src_port, dst_port=dst_port,
                payload=payload, payload_len=payload_len,
                created_at=created_at)
            if encap is not None:
                packet = apply_encap(packet, encap)
            # The layer record is a pure function of the headers tuple, so
            # packets sharing the stack share the scan results too.
            self._stacks[key] = packet.layers
            return packet
        return Packet(layers.headers, payload, payload_len, created_at,
                      layers=layers)

    def __len__(self) -> int:
        return len(self._stacks)


class DecapMemo(OrderedDict):
    """Bounded LRU memo of VXLAN decapsulation per outer header stack.

    ``id(outer headers) -> (outer headers, inner layer record)``.
    Decapsulation is a pure function of the header stack, and senders
    share stacks per flow (:class:`CachedUdpBuilder`), so the
    slice-and-rescan work is done once per stack.  Keying by identity is
    safe because a live entry holds a strong reference to its outer tuple
    (the id of a memoized stack can never be reused; eviction removes key
    and reference together).  Bounded LRU — not insert-only — so a churn
    of non-shared stacks can't permanently crowd out the hot flows.
    """

    def __init__(self, cap: int) -> None:
        super().__init__()
        self.cap = cap

    def decap(self, packet: Packet) -> Packet:
        """The inner packet of VXLAN *packet* (raises like
        :func:`~repro.packet.packet.vxlan_decapsulate`)."""
        key = id(packet.headers)
        entry = self.get(key)
        if entry is None:
            _header, inner = vxlan_decapsulate(packet)
            self[key] = (packet.headers, inner.layers)
            if len(self) > self.cap:
                self.popitem(last=False)
            return inner
        self.move_to_end(key)
        layers = entry[1]
        return Packet(layers.headers, packet.payload, packet.payload_len,
                      packet.created_at, packet.packet_id, layers=layers)
