"""Generic receive offload (GRO) — coalescing TCP segments.

The paper's testbed enables GRO (§V-A); without it the 64 KB TCP
background traffic of Fig. 13 (fragmented to MTU-size segments by the
sender) would cost a full pipeline traversal per segment.  In the real
kernel, overlay TCP is coalesced by the vxlan device's ``gro_cells``
layer — which is exactly where this model applies it: when an skb is
enqueued toward the stage-2 queue, it is merged into the queue's tail skb
when they belong to the same flow and fit within the GRO limits.

A merged "super-skb" keeps the constituent packets in ``skb.gro_list``
(so TCP reassembly sees every segment) and charges later stages per-byte
costs for the full merged length.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.netdev.queues import PacketQueue
from repro.packet.headers import TcpHeader
from repro.packet.skb import SKBuff

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.core import Kernel

__all__ = ["GroEngine"]


class GroEngine:
    """Merges same-flow TCP skbs at stage-transition time."""

    def __init__(self, kernel: "Kernel") -> None:
        self.kernel = kernel
        self.merged_segments = 0

    def can_merge(self, held: SKBuff, skb: SKBuff) -> bool:
        """True if *skb* can coalesce into *held*."""
        # The new skb first: a UDP skb (the common case) needs one look.
        if not isinstance(skb.packet.inner_l4, TcpHeader):
            return False
        if not isinstance(held.packet.inner_l4, TcpHeader):
            return False
        config = self.kernel.config
        if held.packet.inner_flow_key() != skb.packet.inner_flow_key():
            return False
        if held.gro_segments + skb.gro_segments > config.gro_max_segs:
            return False
        if held.wire_len + skb.wire_len > config.gro_max_bytes:
            return False
        if held.priority_level != skb.priority_level:
            return False
        return True

    def merge(self, held: SKBuff, skb: SKBuff) -> None:
        """Fold *skb* into *held* (which stays in the queue)."""
        held.gro_list.append(skb.packet)
        held.gro_list.extend(skb.gro_list)
        held.gro_segments += skb.gro_segments
        held.wire_len += skb.wire_len
        self.merged_segments += skb.gro_segments

    def try_merge_into_queue(self, queue: PacketQueue, skb: SKBuff) -> bool:
        """Attempt to merge *skb* into the tail skb of *queue*."""
        if not queue or not self.kernel.config.gro_enabled:
            return False
        tail: SKBuff = queue[-1]
        if not self.can_merge(tail, skb):
            return False
        self.merge(tail, skb)
        return True
