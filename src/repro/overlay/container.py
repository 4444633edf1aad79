"""Containers: an isolated namespace behind a veth pair."""

from __future__ import annotations

from typing import Generator, Optional, TYPE_CHECKING

from repro.kernel.cpu import UserThread
from repro.netdev.veth import VethPair
from repro.packet.addr import Ipv4Address, MacAddress
from repro.stack.netns import NetNamespace
from repro.stack.sockets import UdpSocket
from repro.stack.tcp import TcpEndpoint

if TYPE_CHECKING:  # pragma: no cover
    from repro.overlay.host import Host

__all__ = ["Container", "docker_mac_for"]


def docker_mac_for(ip: Ipv4Address) -> MacAddress:
    """Docker-style MAC derived from the container IP (02:42:<ip>).

    The 0x0242 prefix is exactly what Docker's libnetwork assigns.
    """
    return MacAddress((0x0242 << 32) | ip.value)


class Container:
    """A container on a simulated host."""

    def __init__(self, host: "Host", name: str, *,
                 ip: Ipv4Address, mac: Optional[MacAddress] = None) -> None:
        self.host = host
        self.name = name
        self.ip = ip
        self.mac = mac if mac is not None else docker_mac_for(ip)
        self.netns = NetNamespace(f"{host.name}/{name}")
        self.veth = VethPair(host.kernel, f"veth-{name}", self.netns,
                             mac=self.mac, ip=self.ip)
        #: Set by HostOverlay.add_container; enables the send helpers.
        self._host_overlay = None

    # ------------------------------------------------------------------
    # Sockets and threads (the container's application surface)
    # ------------------------------------------------------------------
    def udp_socket(self, port: int, *, core_id: int = 1) -> UdpSocket:
        socket = UdpSocket(self.host.kernel, self.netns, None, port,
                           owner_core=self.host.kernel.cpu(core_id))
        self.netns.sockets.bind_udp(socket)
        return socket

    def tcp_endpoint(self, port: int, *, core_id: int = 1) -> TcpEndpoint:
        endpoint = TcpEndpoint(self.host.kernel, self.netns, None, port,
                               owner_core=self.host.kernel.cpu(core_id))
        self.netns.sockets.bind_tcp(endpoint)
        return endpoint

    def spawn(self, generator: Generator, *, core_id: int = 1,
              name: str = "") -> UserThread:
        return self.host.kernel.cpu(core_id).spawn(
            generator, name=name or f"{self.name}-app")

    # ------------------------------------------------------------------
    # Overlay send helpers (generators: drive from a UserThread)
    # ------------------------------------------------------------------
    def _overlay(self):
        if self._host_overlay is None:
            raise RuntimeError(
                f"container {self.name!r} is not attached to an overlay")
        return self._host_overlay

    def send_udp(self, *, dst_ip, dst_port: int, src_port: int,
                 payload, payload_len: int, created_at=None) -> Generator:
        """Send one UDP datagram to a (possibly remote) overlay peer."""
        overlay = self._overlay()
        dst = (dst_ip if dst_ip.__class__ is Ipv4Address
               else Ipv4Address(dst_ip))
        peer = overlay.overlay.endpoint(dst)
        yield from self.host.egress.udp_send(
            src_mac=self.mac, dst_mac=peer.mac,
            src_ip=self.ip, dst_ip=dst,
            src_port=src_port, dst_port=dst_port,
            payload=payload, payload_len=payload_len,
            created_at=created_at,
            encap=overlay.encap_to(dst))

    def send_tcp_message(self, *, dst_ip, dst_port: int, src_port: int,
                         message) -> Generator:
        """Send one TCP message (TSO-segmented) to an overlay peer."""
        overlay = self._overlay()
        dst = (dst_ip if dst_ip.__class__ is Ipv4Address
               else Ipv4Address(dst_ip))
        peer = overlay.overlay.endpoint(dst)
        yield from self.host.egress.tcp_send_message(
            src_mac=self.mac, dst_mac=peer.mac,
            src_ip=self.ip, dst_ip=dst,
            src_port=src_port, dst_port=dst_port,
            message=message,
            encap=overlay.encap_to(dst))

    def __repr__(self) -> str:
        return f"<Container {self.name!r} {self.ip} on {self.host.name!r}>"
