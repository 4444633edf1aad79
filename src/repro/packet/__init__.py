"""Packet and socket-buffer models.

This package models network packets at the level of detail the kernel
simulation needs:

- :mod:`~repro.packet.addr` — MAC and IPv4 address value types;
- :mod:`~repro.packet.headers` — Ethernet / IPv4 / UDP / TCP / VXLAN header
  dataclasses with wire lengths and byte serialization;
- :mod:`~repro.packet.packet` — the wire :class:`Packet` (a stack of
  headers plus a payload) and VXLAN encap/decap helpers;
- :mod:`~repro.packet.skb` — the kernel-side :class:`SKBuff` metadata
  structure, carrying the PRISM priority bit exactly as the paper's
  ``sk_buff`` extension does (§IV-A);
- :mod:`~repro.packet.flow` — 5-tuple :class:`FlowKey` and RSS-style flow
  hashing;
- :mod:`~repro.packet.checksum` — the Internet checksum.

Payloads are modelled as an opaque Python object plus a byte length;
the simulator never copies real buffers.
"""

from repro.packet.addr import Ipv4Address, MacAddress
from repro.packet.checksum import internet_checksum, verify_checksum
from repro.packet.flow import FlowKey, rss_hash
from repro.packet.headers import (
    IPPROTO_TCP,
    IPPROTO_UDP,
    VXLAN_PORT,
    EthernetHeader,
    IPv4Header,
    TcpHeader,
    UdpHeader,
    VxlanHeader,
)
from repro.packet.packet import Packet, vxlan_decapsulate, vxlan_encapsulate
from repro.packet.skb import SKBuff

__all__ = [
    "EthernetHeader",
    "FlowKey",
    "IPPROTO_TCP",
    "IPPROTO_UDP",
    "IPv4Header",
    "Ipv4Address",
    "MacAddress",
    "Packet",
    "SKBuff",
    "TcpHeader",
    "UdpHeader",
    "VXLAN_PORT",
    "VxlanHeader",
    "internet_checksum",
    "rss_hash",
    "verify_checksum",
    "vxlan_decapsulate",
    "vxlan_encapsulate",
]
