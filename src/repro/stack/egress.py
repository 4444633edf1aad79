"""The transmit path: packet builders and the host egress pipeline.

The paper's contribution is receive-side only, so the tx path is modelled
coarsely but completely: packet construction, TSO-style segmentation of
large TCP sends into MSS-sized wire segments (what turns the Fig. 13
64 KB background messages into MTU packet storms), VXLAN encapsulation for
overlay destinations, and per-packet/per-byte CPU cost charged to the
sending application's core.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, List, Optional, TYPE_CHECKING

from repro.fastpath.headercache import CachedUdpBuilder
from repro.kernel.cpu import Work
from repro.packet.addr import Ipv4Address, MacAddress
from repro.packet.headers import (
    IPPROTO_TCP,
    IPPROTO_UDP,
    EthernetHeader,
    IPv4Header,
    TcpHeader,
    UdpHeader,
)
from repro.packet.packet import Packet, vxlan_encapsulate
from repro.stack.tcp import TcpMessage, TcpSegment

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.core import Kernel

__all__ = ["EncapInfo", "EgressPath", "build_udp_packet",
           "build_tcp_segments", "apply_encap"]


@dataclass(frozen=True)
class EncapInfo:
    """Everything needed to VXLAN-encapsulate toward a remote host."""

    vni: int
    outer_src_mac: MacAddress
    outer_dst_mac: MacAddress
    outer_src_ip: Ipv4Address
    outer_dst_ip: Ipv4Address


def build_udp_packet(*, src_mac: MacAddress, dst_mac: MacAddress,
                     src_ip: Ipv4Address, dst_ip: Ipv4Address,
                     src_port: int, dst_port: int,
                     payload: Any, payload_len: int,
                     created_at: Optional[int] = None) -> Packet:
    """Construct a plain Ethernet/IPv4/UDP packet."""
    udp = UdpHeader(src_port, dst_port, payload_length=payload_len)
    ip = IPv4Header(src_ip, dst_ip, IPPROTO_UDP,
                    total_length=IPv4Header.LENGTH + udp.total_length)
    eth = EthernetHeader(src=src_mac, dst=dst_mac)
    return Packet(headers=(eth, ip, udp), payload=payload,
                  payload_len=payload_len, created_at=created_at)


def build_tcp_segments(*, src_mac: MacAddress, dst_mac: MacAddress,
                       src_ip: Ipv4Address, dst_ip: Ipv4Address,
                       src_port: int, dst_port: int,
                       message: TcpMessage, mss: int,
                       seq_start: int = 0) -> List[Packet]:
    """Segment *message* into MSS-sized TCP packets (TSO behaviour)."""
    if mss <= 0:
        raise ValueError(f"mss must be positive, got {mss}")
    segments: List[Packet] = []
    offset = 0
    length = max(message.length, 1)
    while offset < length:
        seg_len = min(mss, length - offset)
        tcp = TcpHeader(src_port, dst_port, seq=seq_start + offset)
        ip = IPv4Header(src_ip, dst_ip, IPPROTO_TCP,
                        total_length=IPv4Header.LENGTH + TcpHeader.LENGTH + seg_len)
        eth = EthernetHeader(src=src_mac, dst=dst_mac)
        payload = TcpSegment(message=message, offset=offset, seg_len=seg_len)
        segments.append(Packet(headers=(eth, ip, tcp), payload=payload,
                               payload_len=seg_len,
                               created_at=message.created_at))
        offset += seg_len
    return segments


def apply_encap(packet: Packet, encap: EncapInfo) -> Packet:
    """VXLAN-encapsulate *packet* toward the remote host."""
    return vxlan_encapsulate(
        packet, encap.vni,
        outer_src_mac=encap.outer_src_mac, outer_dst_mac=encap.outer_dst_mac,
        outer_src_ip=encap.outer_src_ip, outer_dst_ip=encap.outer_dst_ip)


class EgressPath:
    """Per-host transmit pipeline for application threads.

    ``transmit`` is the host's wire port.  All methods are generators to
    be driven from :class:`~repro.kernel.cpu.UserThread` code: they yield
    the egress CPU cost (charged to the calling thread's core) and then
    hand the packets to the wire.
    """

    def __init__(self, kernel: "Kernel",
                 transmit: Callable[[Packet], None]) -> None:
        self.kernel = kernel
        self.transmit = transmit
        self._builder = CachedUdpBuilder()
        self.packets_sent = 0
        self.bytes_sent = 0

    def udp_send(self, *, encap: Optional[EncapInfo] = None,
                 **packet_kwargs: Any) -> Generator[Any, Any, Packet]:
        """Build, charge, and transmit one UDP datagram.

        Header stacks are memoized per flow (:mod:`repro.fastpath`) —
        the produced packet is field-identical to an uncached build.
        """
        packet = self._builder.build(encap=encap, **packet_kwargs)
        yield Work(self.kernel.costs.egress_cost(packet.wire_len))
        self._send(packet)
        return packet

    def tcp_send_message(self, *, message: TcpMessage, mss: Optional[int] = None,
                         encap: Optional[EncapInfo] = None,
                         **packet_kwargs: Any) -> Generator[Any, Any, List[Packet]]:
        """Segment, charge (TSO-style), and transmit one TCP message.

        With TSO the kernel pays the per-send cost once plus a small
        per-segment slicing cost; the wire still carries MSS-size packets.
        """
        mss = mss or self.kernel.config.mss
        segments = build_tcp_segments(message=message, mss=mss, **packet_kwargs)
        if encap is not None:
            segments = [apply_encap(segment, encap) for segment in segments]
        costs = self.kernel.costs
        total_bytes = sum(segment.wire_len for segment in segments)
        total_cost = (costs.egress_pkt_ns
                      + costs.tso_segment_ns * len(segments)
                      + int(costs.egress_per_byte_ns * total_bytes))
        yield Work(total_cost)
        for segment in segments:
            self._send(segment)
        return segments

    def _send(self, packet: Packet) -> None:
        self.packets_sent += 1
        self.bytes_sent += packet.wire_len
        self.transmit(packet)
