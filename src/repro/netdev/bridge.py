"""The Linux bridge: a learning L2 switch connecting vxlan and veths.

In the paper's pipeline the bridge's *forwarding* work is executed during
stage 2 (the vxlan device's gro_cells poll calls ``netif_receive_skb``,
which runs the bridge input hook).  The :class:`Bridge` here is therefore
pure data-plane state — FDB and ports — consulted by
:class:`~repro.netdev.vxlan.BridgeStage`.
"""

from __future__ import annotations

from typing import List, Optional, TYPE_CHECKING

from repro.netdev.device import NetDevice
from repro.packet.skb import SKBuff
from repro.stack.fdb import Fdb

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.core import Kernel

__all__ = ["Bridge"]


class Bridge(NetDevice):
    """A software L2 switch with a learning FDB."""

    def __init__(self, kernel: "Kernel", name: str = "br0") -> None:
        super().__init__(name)
        self.kernel = kernel
        self.fdb = Fdb()
        self.ports: List[NetDevice] = []
        self.forwarded = 0
        self.flood_drops = 0

    def add_port(self, device: NetDevice) -> None:
        """Attach *device* as a bridge port."""
        if device in self.ports:
            return
        self.ports.append(device)

    def forward(self, skb: SKBuff, ingress: Optional[NetDevice]) -> Optional[NetDevice]:
        """Pick the egress port for *skb*; learns the source MAC.

        Returns None on an FDB miss.  (A real bridge floods; the overlay
        topology installs static FDB entries for every container — as
        Docker's control plane does — so a miss here indicates
        misdelivery and the caller drops and counts it.)
        """
        eth = skb.packet.layers.eth
        if eth is None:
            return None
        if ingress is not None:
            self.fdb.learn(eth.src, ingress)
        port = self.fdb.lookup(eth.dst)
        if port is None or port is ingress:
            self.flood_drops += 1
            return None
        self.forwarded += 1
        return port

    def stats(self) -> dict:
        """Counter snapshot (what the telemetry layer scrapes)."""
        return {"forwarded": self.forwarded, "flood_drops": self.flood_drops}

    def __repr__(self) -> str:
        return f"<Bridge {self.name!r} ports={[p.name for p in self.ports]}>"
