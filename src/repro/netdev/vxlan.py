"""The VXLAN tunnel device and its gro_cells NAPI (pipeline stage 2).

When the NIC stage identifies an encapsulated packet and strips the outer
headers, it hands the inner skb to the vxlan device's per-CPU
``gro_cells`` napi (``gro_cells_receive``), which the softirq then polls
— the paper's second stage, labelled **br** because the work performed
when the cell is polled is bridge input processing (FDB lookup and
forwarding to the destination veth), followed by ``netif_rx`` into the
backlog.

This is the one virtual-device NAPI in the pipeline with its own real
``napi_struct`` (paper §II-A3), and it is where GRO coalesces inner TCP
segments (the "gro" in gro_cells): the cell carries the device's
:class:`~repro.kernel.gro.GroEngine`, which the hand-off
(:func:`repro.kernel.softnet.hand_off`) tries before enqueueing.
"""

from __future__ import annotations

from typing import Dict, Optional, TYPE_CHECKING

from repro.kernel.gro import GroEngine
from repro.kernel.softnet import NapiStruct
from repro.netdev.device import NetDevice, PacketStage
from repro.packet.skb import SKBuff

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.core import Kernel
    from repro.kernel.softnet import SoftnetData
    from repro.netdev.bridge import Bridge

__all__ = ["VxlanDevice", "BridgeStage"]


class BridgeStage(PacketStage):
    """Stage 2: bridge forwarding of the decapsulated inner packet."""

    name = "br"

    def __init__(self, kernel: "Kernel", vxlan_dev: "VxlanDevice") -> None:
        self.kernel = kernel
        self.vxlan_dev = vxlan_dev
        self._costs = kernel.stage_costs(kernel.costs.bridge_pkt_ns)

    def cost(self, skb: SKBuff) -> int:
        return self._costs[skb.wire_len]

    def run(self, skb: SKBuff, softnet: "SoftnetData"
            ) -> Optional[NapiStruct]:
        bridge = self.vxlan_dev.bridge
        if bridge is None:
            self._drop(skb, f"{self.vxlan_dev.name}:no-bridge")
            return None
        port = bridge.forward(skb, ingress=self.vxlan_dev)
        peer = getattr(port, "peer", None)
        if peer is None:
            self._drop(skb, f"{bridge.name}:fdb-miss")
            return None
        # netif_rx: into the per-CPU backlog, in the container end's name.
        skb.dev = peer
        peer.rx_packets += 1
        peer.rx_bytes += skb.wire_len
        return softnet.backlog

    def _drop(self, skb: SKBuff, site: str) -> None:
        kernel = self.kernel
        kernel.count_drop(site, skb)
        ledger = kernel.ledger
        if ledger is not None:
            w = skb.gro_segments
            ledger.drop(site, w)
            ledger.leave(w)


class VxlanDevice(NetDevice):
    """A VXLAN tunnel endpoint with per-CPU gro_cells."""

    def __init__(self, kernel: "Kernel", name: str = "vxlan0", *,
                 vni: int) -> None:
        super().__init__(name)
        self.kernel = kernel
        self.vni = vni
        self.bridge: "Bridge" = None  # set when added as a bridge port
        self.gro = GroEngine(kernel)
        self._cells: Dict[int, NapiStruct] = {}

    def gro_cell_for(self, softnet: "SoftnetData") -> NapiStruct:
        """The per-CPU gro_cells NAPI for *softnet*'s CPU."""
        cpu_id = softnet.cpu.core_id
        cell = self._cells.get(cpu_id)
        if cell is None:
            # Named "br" to match the paper's stage labels (Fig. 6).
            label = "br" if cpu_id == 0 else f"br@cpu{cpu_id}"
            cell = NapiStruct(label, self.kernel,
                              stage=BridgeStage(self.kernel, self),
                              gro=self.gro)
            cell.softnet = softnet
            self._cells[cpu_id] = cell
        return cell

    def __repr__(self) -> str:
        return f"<VxlanDevice {self.name!r} vni={self.vni}>"
