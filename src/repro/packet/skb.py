"""The kernel socket buffer (``sk_buff``) model.

In the Linux kernel every in-flight packet is represented by an ``sk_buff``
metadata structure that travels through all processing stages.  PRISM's
implementation (paper §IV-A) adds a binary priority variable to it so the
priority is computed once — at skb allocation in the physical driver — and
then reused by every later stage.  This module models exactly that, plus
the multi-level generalization the paper's §VII-3 sketches as future work.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Optional

from repro.packet.packet import Packet

__all__ = ["SKBuff", "PRIORITY_UNCLASSIFIED", "PRIORITY_HIGH", "PRIORITY_LOW"]

#: Priority levels.  Lower value = higher priority.  The paper's prototype
#: is binary: level 0 (high) and level 1 (low).  The multi-level extension
#: allows any number of levels; "low" is always the largest level in use.
PRIORITY_HIGH = 0
PRIORITY_LOW = 1
#: Sentinel for an skb whose priority has not been determined yet.
PRIORITY_UNCLASSIFIED: Optional[int] = None

#: Fallback id source for skbs constructed directly (unit tests, ad-hoc
#: scripts).  Experiment code never draws from this: the NIC allocates
#: every skb through the kernel's :class:`~repro.fastpath.pool.SkbPool`,
#: whose counter is per-experiment — so run results no longer depend on
#: what executed earlier in the same process.
_fallback_skb_ids = itertools.count(1)


class SKBuff:
    """Kernel metadata for one in-flight packet (or GRO super-packet).

    Attributes
    ----------
    packet:
        The current wire view.  After VXLAN decapsulation this is
        *replaced* by the inner packet, mirroring how the kernel adjusts
        the skb's header pointers in place.
    priority_level:
        ``None`` until classified; afterwards an integer level
        (0 = highest).  Set once at allocation time in the physical
        driver's poll function, per the paper's design.
    gro_segments:
        Number of wire packets coalesced into this skb by GRO (1 if not
        coalesced).
    wire_len:
        Bytes this skb represents on the wire, GRO-merged bytes included.
        Set from the packet at allocation and kept current by whoever
        changes what the skb carries (VXLAN decap, GRO merge).
    marks:
        Tracepoint timestamps (name -> virtual ns), written by
        :mod:`repro.trace` probes for in-kernel latency measurement.
    """

    __slots__ = ("skb_id", "packet", "dev", "priority_level", "gro_segments",
                 "marks", "alloc_time", "wire_len", "gro_list")

    def __init__(self, packet: Packet, dev: Any = None,
                 alloc_time: Optional[int] = None,
                 skb_id: Optional[int] = None) -> None:
        self.skb_id: int = next(_fallback_skb_ids) if skb_id is None else skb_id
        self.packet = packet
        self.dev = dev
        self.priority_level: Optional[int] = PRIORITY_UNCLASSIFIED
        self.gro_segments: int = 1
        self.marks: Dict[str, int] = {}
        self.alloc_time = alloc_time
        self.wire_len: int = packet.wire_len
        #: Packets GRO-merged into this skb (excludes :attr:`packet`).
        self.gro_list: list = []

    # ------------------------------------------------------------------
    # Priority
    # ------------------------------------------------------------------
    @property
    def classified(self) -> bool:
        """True once the PRISM classifier has stamped a priority."""
        return self.priority_level is not None

    @property
    def is_high_priority(self) -> bool:
        """True if this skb is in the highest priority class.

        Unclassified skbs are treated as low priority — exactly what the
        paper's prototype does for packets the classifier never sees.
        """
        return self.priority_level == PRIORITY_HIGH

    def classify(self, level: int) -> None:
        """Stamp the priority level (idempotent only for the same level)."""
        if level < 0:
            raise ValueError(f"priority level must be >= 0, got {level}")
        self.priority_level = level

    def mark(self, name: str, time_ns: int) -> None:
        """Record a tracepoint timestamp (first hit wins)."""
        if name not in self.marks:
            self.marks[name] = time_ns

    def __repr__(self) -> str:
        prio = ("?" if self.priority_level is None else str(self.priority_level))
        return (f"<SKBuff #{self.skb_id} prio={prio} "
                f"gro={self.gro_segments} {self.packet!r}>")
