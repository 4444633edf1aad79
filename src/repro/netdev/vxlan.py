"""The VXLAN tunnel device and its gro_cells NAPI (pipeline stage 2).

When the NIC stage identifies an encapsulated packet and strips the outer
headers, the inner skb enters the vxlan device's per-CPU ``gro_cells``
queue (``gro_cells_receive``) and a softirq is raised for that cell — the
paper's second stage, labelled **br** because the work performed when the
cell is polled is bridge input processing (FDB lookup and forwarding to
the destination veth), followed by ``netif_rx`` into the backlog.

This is the one virtual-device NAPI in the pipeline with its own real
``napi_struct`` (paper §II-A3), and it is where GRO coalesces inner TCP
segments (the "gro" in gro_cells).
"""

from __future__ import annotations

from typing import Dict, Generator, TYPE_CHECKING

from repro.kernel.gro import GroEngine
from repro.kernel.softnet import NapiStruct
from repro.netdev.device import NetDevice, PacketStage
from repro.packet.skb import SKBuff
from repro.prism.mode import StackMode
from repro.prism.stage_transition import transition_to_napi
from repro.trace.tracer import TracePoint

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

    def process(self, skb: SKBuff, softnet: "SoftnetData"
                ) -> Generator[int, None, None]:
        costs = self.kernel.costs
        base = costs.bridge_pkt_ns
        if self.kernel.mode is StackMode.BYPASS:
            base = costs.bypass_stage_base(base)
        yield costs.stage_packet_cost(base, skb.wire_len)
        bridge = self.vxlan_dev.bridge
        if bridge is None:
            self._drop(skb, f"{self.vxlan_dev.name}:no-bridge")
            return
        port = bridge.forward(skb, ingress=self.vxlan_dev)
        peer = getattr(port, "peer", None)
        if peer is None:
            self._drop(skb, f"{bridge.name}:fdb-miss")
            return
        # netif_rx: into the per-CPU backlog, in the container end's name.
        skb.dev = peer
        peer.count_rx(skb)
        yield from transition_to_napi(self.kernel, skb, softnet.backlog)

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
                              stage=BridgeStage(self.kernel, self))
            cell.softnet = softnet
            self._cells[cpu_id] = cell
        return cell

    def gro_cells_receive(self, skb: SKBuff, softnet: "SoftnetData"
                          ) -> Generator[int, None, None]:
        """Hand a decapsulated skb to stage 2 (with GRO coalescing)."""
        kernel = self.kernel
        skb.dev = self
        self.count_rx(skb)
        cell = self.gro_cell_for(softnet)
        # Packets that run to completion skip GRO: holding a segment for
        # coalescing would reintroduce the queueing delay the inline
        # path exists to remove (bypass runs *everything* inline).
        inline = (kernel.mode is StackMode.BYPASS
                  or (kernel.mode is StackMode.PRISM_SYNC
                      and kernel.is_high_class(skb)))
        if not inline:
            high = kernel.mode.is_prism and kernel.is_high_class(skb)
            queue = cell.queue_high if high else cell.queue_low
            if self.gro.try_merge_into_queue(queue, skb):
                if kernel.tracer.has_subscribers(TracePoint.GRO_MERGE):
                    kernel.tracer.emit(TracePoint.GRO_MERGE,
                                       device=self.name, skb=skb)
                ledger = kernel.ledger
                if ledger is not None:
                    # The absorbed segments are now counted through the
                    # held super-skb's gro_segments (queued weight), so
                    # this skb's in-processing weight moves there.
                    ledger.leave(skb.gro_segments)
                # The skb's packet now lives in the held super-skb's
                # gro_list; the emptied metadata can be reused.
                kernel.skb_pool.recycle(skb)
                yield kernel.costs.gro_merge_ns
                return
        yield from transition_to_napi(kernel, skb, cell)

    def __repr__(self) -> str:
        return f"<VxlanDevice {self.name!r} vni={self.vni}>"
