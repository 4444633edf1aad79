"""A free-list pool of :class:`~repro.packet.skb.SKBuff` objects.

The receive path allocates one skb per wire packet and discards it a few
microseconds (of virtual time) later at socket delivery or drop.  At
hundreds of kilopackets per simulated second that is the single largest
source of allocator churn in the hot loop, so — like the kernel's own
``skbuff_head_cache`` slab — we recycle the metadata objects through a
free list owned by the :class:`~repro.kernel.core.Kernel`.

Two invariants keep pooling invisible to results and traces:

* **Ids are never reused.**  ``alloc`` always stamps a fresh sequential
  id from a per-kernel counter, even when the object itself comes off
  the free list, so traced event streams are byte-identical to
  allocate-fresh semantics.  This also fixes the cross-experiment state
  leak of the old module-global ``itertools.count``: every experiment's
  ids now start at 1 regardless of what ran earlier in the process.
* **Recycling is idempotent and conservative.**  A recycled skb has
  ``packet = None``; recycling it again is a no-op, and any path that
  simply forgets to recycle loses nothing but reuse.

Pooling can be switched off per kernel (``kernel.skb_pool.enabled =
False``) — ids stay per-experiment, only object reuse stops.  This is a
runtime toggle rather than a :class:`~repro.kernel.config.KernelConfig`
field on purpose: it must not perturb config hashing, cache keys, or
serialized experiment schemas.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.packet.packet import Packet
from repro.packet.skb import PRIORITY_UNCLASSIFIED, SKBuff

__all__ = ["SkbPool"]


class SkbPool:
    """Free-list allocator for skbs with a per-experiment id sequence."""

    __slots__ = ("enabled", "_free", "_next_id", "allocated", "recycled",
                 "reused")

    def __init__(self, *, enabled: bool = True) -> None:
        self.enabled = enabled
        self._free: list = []
        self._next_id = 1
        #: Introspection counters (not part of any result or digest).
        self.allocated = 0
        self.recycled = 0
        self.reused = 0

    def alloc(self, packet: Packet, dev: Any = None,
              alloc_time: Optional[int] = None) -> SKBuff:
        """Return an skb for *packet* with the next sequential id."""
        skb_id = self._next_id
        self._next_id = skb_id + 1
        self.allocated += 1
        if self.enabled and self._free:
            skb = self._free.pop()
            self.reused += 1
            skb.skb_id = skb_id
            skb.packet = packet
            skb.dev = dev
            skb.alloc_time = alloc_time
            skb.wire_len = packet.wire_len
            return skb
        return SKBuff(packet, dev=dev, alloc_time=alloc_time, skb_id=skb_id)

    def recycle(self, skb: SKBuff) -> None:
        """Return *skb* to the free list once no stage references it.

        Safe to call twice (the second call is a no-op) and safe to skip
        (the skb is then garbage-collected as before).  Callers must not
        touch the skb afterwards — its fields are cleared so stale
        packet/priority state can never leak into a reused allocation.
        """
        if not self.enabled or skb.packet is None:
            return
        skb.packet = None
        skb.dev = None
        skb.priority_level = PRIORITY_UNCLASSIFIED
        skb.gro_segments = 1
        skb.alloc_time = None
        if skb.marks:
            skb.marks.clear()
        if skb.gro_list:
            skb.gro_list.clear()
        self.recycled += 1
        self._free.append(skb)

    def __len__(self) -> int:
        """Number of skbs currently sitting on the free list."""
        return len(self._free)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "on" if self.enabled else "off"
        return (f"<SkbPool {state} free={len(self._free)} "
                f"alloc={self.allocated} reuse={self.reused}>")
