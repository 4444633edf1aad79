"""Virtual Ethernet pairs.

A veth pair connects a container's namespace to the host bridge.  The
container-side end has no NAPI of its own: received packets go through
``netif_rx`` into the per-CPU *backlog* queue and are processed by the
generic ``process_backlog`` poll (paper §II-A3) — stage 3 of the overlay
pipeline.  :class:`ProtocolStage` is the per-skb work that poll performs:
the inner protocol stack plus the copy into the socket receive buffer.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.netdev.device import NetDevice, PacketStage
from repro.packet.addr import Ipv4Address, MacAddress
from repro.packet.skb import SKBuff
from repro.stack.receive import protocol_rcv

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.core import Kernel
    from repro.kernel.softnet import SoftnetData
    from repro.stack.netns import NetNamespace

__all__ = ["VethDevice", "VethPair", "ProtocolStage"]


class ProtocolStage(PacketStage):
    """Stage 3: inner protocol processing and socket delivery."""

    name = "veth"

    def __init__(self, kernel: "Kernel", netns: "NetNamespace") -> None:
        self.kernel = kernel
        self.netns = netns
        self._costs = kernel.stage_costs(kernel.costs.veth_pkt_ns,
                                         is_copy_stage=True)

    def cost(self, skb: SKBuff) -> int:
        return self._costs[skb.wire_len]

    def run(self, skb: SKBuff, softnet: "SoftnetData") -> None:
        protocol_rcv(self.kernel, self.netns, skb, softnet.cpu)


class VethDevice(NetDevice):
    """One end of a veth pair."""

    def __init__(self, name: str, *, mac: MacAddress = None,
                 ip: Ipv4Address = None) -> None:
        super().__init__(name, mac=mac, ip=ip)
        self.peer: "VethDevice" = None  # set by VethPair


class VethPair:
    """A host-end / container-end device pair.

    The host end is a bridge port; the container end lives in the
    container's namespace and owns the :class:`ProtocolStage` that the
    backlog NAPI dispatches to (via ``skb.dev.rx_stage``).
    """

    def __init__(self, kernel: "Kernel", name: str,
                 container_netns: "NetNamespace", *,
                 mac: MacAddress, ip: Ipv4Address) -> None:
        self.kernel = kernel
        self.host_end = VethDevice(f"{name}-h")
        self.container_end = VethDevice(f"{name}-c", mac=mac, ip=ip)
        self.host_end.peer = self.container_end
        self.container_end.peer = self.host_end
        container_netns.add_device(self.container_end)
        self.container_end.rx_stage = ProtocolStage(kernel, container_netns)

    def devices(self) -> tuple:
        """Both ends, host end first (what the telemetry layer watches)."""
        return (self.host_end, self.container_end)

    def __repr__(self) -> str:
        return f"<VethPair {self.host_end.name}<->{self.container_end.name}>"
