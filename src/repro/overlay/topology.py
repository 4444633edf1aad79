"""The VXLAN overlay fabric (Docker overlay control-plane analogue).

:class:`OverlayNetwork` is the global registry mapping container IPs to
(container MAC, hosting machine) — the state Docker's control plane
distributes so every host can encapsulate directly to the right peer.

:class:`HostOverlay` materializes the data plane on one simulated host:
the Linux bridge, the VXLAN device (with its gro_cells NAPI), static FDB
entries per local container, and :class:`EncapInfo` lookups for egress.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, TYPE_CHECKING

from repro.netdev.bridge import Bridge
from repro.netdev.vxlan import VxlanDevice
from repro.overlay.container import Container, docker_mac_for
from repro.overlay.network import RemoteContainer, RemoteHost
from repro.packet.addr import Ipv4Address, MacAddress
from repro.stack.egress import EncapInfo

if TYPE_CHECKING:  # pragma: no cover
    from repro.overlay.host import Host

__all__ = ["OverlayEndpoint", "OverlayNetwork", "HostOverlay"]


@dataclass(frozen=True)
class OverlayEndpoint:
    """Where a container lives: its MAC and its hosting machine."""

    ip: Ipv4Address
    mac: MacAddress
    host_ip: Ipv4Address
    host_mac: MacAddress


class OverlayNetwork:
    """The global (cross-host) overlay registry for one VNI."""

    def __init__(self, vni: int = 42, name: str = "overlay0") -> None:
        self.vni = vni
        self.name = name
        self._endpoints: Dict[int, OverlayEndpoint] = {}

    def register(self, endpoint: OverlayEndpoint) -> None:
        """Add a container; an address, once registered, never moves."""
        known = self._endpoints.setdefault(endpoint.ip.value, endpoint)
        if known != endpoint:
            raise ValueError(f"{endpoint.ip} is already registered "
                             f"(MAC {known.mac} on host {known.host_ip})")

    def endpoint(self, ip: Ipv4Address) -> OverlayEndpoint:
        found = self._endpoints.get(ip.value)
        if found is None:
            raise KeyError(f"no overlay endpoint for {ip}")
        return found

    def encap_info(self, src_host_ip: Ipv4Address, src_host_mac: MacAddress,
                   dst_container_ip: Ipv4Address) -> EncapInfo:
        """Encapsulation parameters to reach *dst_container_ip*."""
        remote = self.endpoint(dst_container_ip)
        return EncapInfo(
            vni=self.vni,
            outer_src_mac=src_host_mac, outer_dst_mac=remote.host_mac,
            outer_src_ip=src_host_ip, outer_dst_ip=remote.host_ip)

    def __len__(self) -> int:
        return len(self._endpoints)


class HostOverlay:
    """The overlay data plane on one fully simulated host."""

    def __init__(self, host: "Host", overlay: OverlayNetwork) -> None:
        self.host = host
        self.overlay = overlay
        kernel = host.kernel
        self.bridge = Bridge(kernel, "br0")
        self.vxlan = VxlanDevice(kernel, "vxlan0", vni=overlay.vni)
        self.vxlan.bridge = self.bridge
        self.bridge.add_port(self.vxlan)
        host.nic.register_vxlan(self.vxlan)
        self.containers: Dict[str, Container] = {}
        #: encap_to memo, by destination address value.
        self._encap: Dict[int, EncapInfo] = {}

    def add_container(self, name: str, ip: object,
                      mac: Optional[MacAddress] = None) -> Container:
        """Create a local container and plumb it into the overlay."""
        if name in self.containers:
            raise ValueError(f"container name {name!r} already used")
        address = Ipv4Address(ip)
        container = Container(self.host, name, ip=address, mac=mac)
        self.bridge.add_port(container.veth.host_end)
        # Static FDB entry, as Docker's control plane installs.
        self.bridge.fdb.learn(container.mac, container.veth.host_end)
        self.overlay.register(OverlayEndpoint(
            ip=container.ip, mac=container.mac,
            host_ip=self.host.ip, host_mac=self.host.mac))
        container._host_overlay = self
        self.containers[name] = container
        return container

    def encap_to(self, dst_container_ip: object) -> EncapInfo:
        """Egress encapsulation from this host toward a remote container
        (one frozen :class:`EncapInfo` per destination: endpoints never
        move once registered)."""
        dst = (dst_container_ip if dst_container_ip.__class__ is Ipv4Address
               else Ipv4Address(dst_container_ip))
        info = self._encap.get(dst.value)
        if info is None:
            info = self._encap[dst.value] = self.overlay.encap_info(
                self.host.ip, self.host.mac, dst)
        return info

    def __repr__(self) -> str:
        return (f"<HostOverlay {self.host.name!r} vni={self.overlay.vni} "
                f"containers={list(self.containers)}>")


def register_remote_container(overlay: OverlayNetwork, remote: RemoteHost,
                              name: str, ip: object) -> RemoteContainer:
    """Register a container living on the coarse remote machine."""
    address = Ipv4Address(ip)
    mac = docker_mac_for(address)
    overlay.register(OverlayEndpoint(
        ip=address, mac=mac, host_ip=remote.ip, host_mac=remote.mac))
    return RemoteContainer(name, address, mac)
