"""The wire-level packet and VXLAN encapsulation helpers.

A :class:`Packet` is an ordered stack of headers (outermost first) plus an
opaque payload with a byte length.  A VXLAN-encapsulated container packet
therefore looks like::

    [Ethernet, IPv4, UDP(dport=4789), VXLAN, Ethernet, IPv4, UDP] + payload

which is exactly the on-wire layout of the Docker overlay traffic the paper
evaluates (RFC 7348 framing).
"""

from __future__ import annotations

import itertools
from typing import Any, Optional, Tuple, Union

from repro.packet.addr import Ipv4Address, MacAddress
from repro.packet.flow import FlowKey, rss_hash
from repro.packet.headers import (
    ETHERTYPE_IPV4,
    IPPROTO_UDP,
    VXLAN_PORT,
    EthernetHeader,
    IPv4Header,
    TcpHeader,
    UdpHeader,
    VxlanHeader,
)

__all__ = ["Layers", "Packet", "vxlan_encapsulate", "vxlan_decapsulate",
           "NotVxlanError"]

Header = Union[EthernetHeader, IPv4Header, UdpHeader, TcpHeader, VxlanHeader]

_packet_ids = itertools.count(1)


class NotVxlanError(ValueError):
    """Raised when decapsulating a packet that is not VXLAN-encapsulated."""


#: Sentinel marking a lazily-computed record slot as "not computed yet"
#: (``None`` is a legitimate value for the flow keys).
_UNSET = object()


class Layers:
    """One-pass scan results over an (immutable) header tuple.

    The layer record of a header stack: sizes, the outermost and innermost
    layers, the VNI, and the flow keys, computed once.  Packets that share
    a header stack share its record (the sender's
    :class:`~repro.fastpath.headercache.CachedUdpBuilder` and the NIC's
    decap memo hand it to every :class:`Packet` they build), so the
    per-stack work — including the PRISM classifier's verdict, cached in
    :attr:`prio` — is done once per stack, not once per packet.
    """

    __slots__ = ("headers", "header_len", "eth", "ip", "l4",
                 "inner_ip", "inner_l4", "vxlan", "vni", "inner_key",
                 "outer_key", "prio")

    def __init__(self, headers: Tuple[Header, ...]) -> None:
        header_len = 0
        eth = ip = l4 = inner_ip = inner_l4 = vxlan = None
        for header in headers:
            header_len += header.length
            if isinstance(header, EthernetHeader):
                if eth is None:
                    eth = header
            elif isinstance(header, IPv4Header):
                if ip is None:
                    ip = header
                inner_ip = header
            elif isinstance(header, (UdpHeader, TcpHeader)):
                if l4 is None:
                    l4 = header
                inner_l4 = header
            elif isinstance(header, VxlanHeader):
                if vxlan is None:
                    vxlan = header
        self.headers = headers
        self.header_len = header_len
        self.eth = eth
        self.ip = ip
        self.l4 = l4
        self.inner_ip = inner_ip
        self.inner_l4 = inner_l4
        self.vxlan = vxlan
        self.vni = (vxlan.vni if vxlan is not None
                    and isinstance(l4, UdpHeader)
                    and l4.dst_port == VXLAN_PORT else None)
        self.inner_key = _UNSET
        self.outer_key = _UNSET
        #: ``(classifier memo, level)`` once a PRISM classifier has
        #: classified this stack (see
        #: :meth:`~repro.prism.classifier.PriorityClassifier.classify`).
        self.prio = None


def _flow_key(ip: Optional[IPv4Header],
              l4: Optional[Union[UdpHeader, TcpHeader]]) -> Optional[FlowKey]:
    if ip is None or l4 is None:
        return None
    protocol = IPPROTO_UDP if isinstance(l4, UdpHeader) else 6
    return FlowKey(ip.src, ip.dst, l4.src_port, l4.dst_port, protocol)


class Packet:
    """A packet on the wire: a header stack (outermost first) + payload.

    Plain data, built once: the size and identity fields are computed at
    construction from the header stack's :class:`Layers` record and never
    change, so a packet is never re-headered — build a new one instead.

    Attributes
    ----------
    headers:
        Tuple of header dataclasses, outermost first.
    payload:
        Opaque application object (e.g. an app-level request record).
    payload_len:
        Payload size in bytes; the simulator charges per-byte costs
        against ``wire_len`` but never copies real buffers.
    created_at:
        Virtual timestamp (ns) when the original sender emitted the
        packet; used for end-to-end latency measurement.
    packet_id:
        Unique id (drawn from a process-wide counter when not given).
    wire_len:
        Total on-wire bytes (headers + payload).
    vni:
        The VXLAN network identifier if the outer UDP targets the VXLAN
        port with a VXLAN header, else None.
    layers:
        The header stack's shared :class:`Layers` record.
    """

    __slots__ = ("headers", "payload", "payload_len", "created_at",
                 "packet_id", "wire_len", "vni", "layers")

    def __init__(self, headers: Tuple[Header, ...], payload: Any = None,
                 payload_len: int = 0, created_at: Optional[int] = None,
                 packet_id: Optional[int] = None, *,
                 layers: Optional[Layers] = None) -> None:
        """*layers*, when given, must be the record of *headers*."""
        if payload_len < 0:
            raise ValueError("payload_len must be >= 0")
        if layers is None:
            headers = tuple(headers)
            layers = Layers(headers)
        self.headers = headers
        self.payload = payload
        self.payload_len = payload_len
        self.created_at = created_at
        self.packet_id = (next(_packet_ids) if packet_id is None
                          else packet_id)
        self.wire_len = layers.header_len + payload_len
        self.vni = layers.vni
        self.layers = layers

    # ------------------------------------------------------------------
    # Sizes
    # ------------------------------------------------------------------
    @property
    def header_len(self) -> int:
        """Total bytes of all headers."""
        return self.layers.header_len

    # ------------------------------------------------------------------
    # Layer accessors (outermost occurrence of each layer)
    # ------------------------------------------------------------------
    @property
    def eth(self) -> Optional[EthernetHeader]:
        return self.layers.eth

    @property
    def ip(self) -> Optional[IPv4Header]:
        return self.layers.ip

    @property
    def l4(self) -> Optional[Union[UdpHeader, TcpHeader]]:
        return self.layers.l4

    # ------------------------------------------------------------------
    # Innermost layers (the application-level view of an encapsulated
    # packet; equal to the outer layers for a plain packet)
    # ------------------------------------------------------------------
    @property
    def inner_ip(self) -> Optional[IPv4Header]:
        return self.layers.inner_ip

    @property
    def inner_l4(self) -> Optional[Union[UdpHeader, TcpHeader]]:
        return self.layers.inner_l4

    def inner_flow_key(self) -> Optional[FlowKey]:
        """5-tuple of the *innermost* IP/L4 layers, or None if not IP."""
        layers = self.layers
        key = layers.inner_key
        if key is _UNSET:
            key = layers.inner_key = _flow_key(layers.inner_ip,
                                               layers.inner_l4)
        return key

    @property
    def is_vxlan(self) -> bool:
        """True if the outer UDP targets the VXLAN port with a VXLAN header."""
        return self.vni is not None

    @property
    def vxlan(self) -> Optional[VxlanHeader]:
        """The VXLAN header, if any."""
        return self.layers.vxlan

    def flow_key(self) -> Optional[FlowKey]:
        """5-tuple of the *outermost* IP/L4 layers, or None if not IP."""
        layers = self.layers
        key = layers.outer_key
        if key is _UNSET:
            key = layers.outer_key = _flow_key(layers.ip, layers.l4)
        return key

    def __repr__(self) -> str:
        layers = "/".join(type(h).__name__.replace("Header", "") for h in self.headers)
        return f"<Packet #{self.packet_id} {layers} len={self.wire_len}>"


def vxlan_encapsulate(inner: Packet, vni: int, *,
                      outer_src_mac: MacAddress, outer_dst_mac: MacAddress,
                      outer_src_ip: Ipv4Address, outer_dst_ip: Ipv4Address,
                      src_port: Optional[int] = None) -> Packet:
    """Wrap *inner* in a VXLAN envelope (outer Ethernet/IPv4/UDP/VXLAN).

    The outer UDP source port defaults to a hash of the inner flow
    (standard VXLAN entropy for ECMP) — the process-stable CRC32
    :func:`~repro.packet.flow.rss_hash`, so outer flow identities do not
    depend on ``PYTHONHASHSEED``; the destination port is the IANA VXLAN
    port 4789.
    """
    vxlan = VxlanHeader(vni=vni)
    inner_len = inner.wire_len + vxlan.LENGTH
    if src_port is None:
        inner_key = inner.flow_key()
        src_port = 49152 + ((rss_hash(inner_key) if inner_key
                             else inner.packet_id) & 0x3FFF)
    udp = UdpHeader(src_port=src_port, dst_port=VXLAN_PORT, payload_length=inner_len)
    ip_total = IPv4Header.LENGTH + udp.total_length
    ip = IPv4Header(src=outer_src_ip, dst=outer_dst_ip, protocol=IPPROTO_UDP,
                    total_length=ip_total)
    eth = EthernetHeader(src=outer_src_mac, dst=outer_dst_mac,
                         ethertype=ETHERTYPE_IPV4)
    return Packet(
        headers=(eth, ip, udp, vxlan) + inner.headers,
        payload=inner.payload,
        payload_len=inner.payload_len,
        created_at=inner.created_at,
        packet_id=inner.packet_id,
    )


def vxlan_decapsulate(packet: Packet) -> Tuple[VxlanHeader, Packet]:
    """Strip the outer Ethernet/IPv4/UDP/VXLAN envelope.

    Returns the VXLAN header (for VNI-based forwarding) and the inner
    packet.  Raises :class:`NotVxlanError` if the packet is not VXLAN.
    """
    if not packet.is_vxlan:
        raise NotVxlanError(f"{packet!r} is not a VXLAN packet")
    for index, header in enumerate(packet.headers):
        if isinstance(header, VxlanHeader):
            inner_headers = packet.headers[index + 1:]
            if not inner_headers:
                raise NotVxlanError(f"{packet!r} has an empty VXLAN payload")
            inner = Packet(
                headers=inner_headers,
                payload=packet.payload,
                payload_len=packet.payload_len,
                created_at=packet.created_at,
                packet_id=packet.packet_id,
            )
            return header, inner
    raise NotVxlanError(f"{packet!r} has no VXLAN header")
