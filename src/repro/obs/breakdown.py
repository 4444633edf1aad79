"""Per-stage latency breakdown — the paper's Fig. 4 decomposition.

Fig. 4 splits the in-kernel time of an overlay packet into the pipeline
stages it crosses: rx-ring residency, driver (eth) processing, gro_cells
(br) processing, and backlog (veth) processing up to socket delivery.
:class:`StageBreakdown` reproduces that table for any traced scenario
from the per-packet milestones the observer collects.

The decomposition telescopes: for each packet the segments are the
differences between consecutive milestones (ring → eth → … → socket), so
**per packet** they sum to the end-to-end kernel time exactly.  Averaging
over packets preserves that identity only when every packet has the same
milestone sequence, so the breakdown is computed over the *modal path*
(the most common stage signature — e.g. ``eth → br → veth`` for overlay,
``eth`` alone for host networking); packets on other paths (GRO-merged
segments that skip stages, drops) are excluded and
counted.  The invariant

    sum(segment means) == mean end-to-end latency   (exactly)

is pinned by ``tests/test_obs_breakdown.py``.

Averaged over every packet, the table describes whatever traffic
dominates — under a background flood, the background.
:meth:`StageBreakdown.per_socket` therefore builds one table per
receiving socket, so a foreground flow gets its own.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.obs.observer import PacketMilestones

__all__ = ["StageSegment", "StageBreakdown"]


@dataclass(frozen=True)
class StageSegment:
    """One row of the breakdown table."""

    #: Segment label, e.g. "ring", "eth", "br", "veth", "socket".
    name: str
    #: Mean duration of this segment over the included packets.
    mean_ns: float
    #: Fraction of the mean end-to-end time.
    share: float


@dataclass(frozen=True)
class StageBreakdown:
    """Fig. 4-style per-stage decomposition of in-kernel latency."""

    #: Segments in path order; their mean_ns sum to end_to_end_ns.
    segments: Tuple[StageSegment, ...]
    #: Mean ring-to-socket time of the included packets.
    end_to_end_ns: float
    #: The modal stage signature the breakdown covers.
    path: Tuple[str, ...]
    #: Packets included (on the modal path) / excluded (other paths).
    packets: int
    excluded: int

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_packets(cls, packets: Iterable[PacketMilestones]
                     ) -> "StageBreakdown":
        """Build the breakdown from observer milestone records.

        Only complete packets (ring and socket timestamps present) are
        considered; of those, only the modal path signature is averaged.
        """
        complete = [p for p in packets if p.complete]
        if not complete:
            return cls(segments=(), end_to_end_ns=0.0, path=(),
                       packets=0, excluded=0)
        signatures = Counter(p.path_signature() for p in complete)
        path, _count = signatures.most_common(1)[0]
        included = [p for p in complete if p.path_signature() == path]
        excluded = len(complete) - len(included)

        # Per-packet telescoping milestones: ring residency (DMA arrival
        # to driver-poll skb allocation, when the alloc mark is present
        # on every packet), each stage completion, socket delivery.
        n = len(included)
        with_ring = all(p.alloc_at is not None for p in included)
        labels = (["ring"] if with_ring else []) + list(path) + ["socket"]
        sums: List[int] = [0] * len(labels)
        total = 0
        for p in included:
            prev = p.ring_at
            offset = 0
            if with_ring:
                sums[0] += p.alloc_at - prev
                prev = p.alloc_at
                offset = 1
            for i, (_stage, done_at) in enumerate(p.stages):
                sums[offset + i] += done_at - prev
                prev = done_at
            sums[-1] += p.socket_at - prev
            total += p.socket_at - p.ring_at

        end_to_end = total / n
        segments = []
        for label, segment_sum in zip(labels, sums):
            mean = segment_sum / n
            share = (mean / end_to_end) if end_to_end else 0.0
            segments.append(StageSegment(label, mean, share))
        return cls(segments=tuple(segments), end_to_end_ns=end_to_end,
                   path=path, packets=n, excluded=excluded)

    @classmethod
    def per_socket(cls, packets: Iterable[PacketMilestones]
                   ) -> Dict[str, "StageBreakdown"]:
        """One breakdown per receiving socket (``<netns>:udp:<port>``),
        keyed and ordered by socket name.

        Grouping is by socket, not by priority class: vanilla never
        classifies, so every packet there reads low-priority.
        """
        groups: Dict[str, List[PacketMilestones]] = {}
        for p in packets:
            if p.complete:
                groups.setdefault(p.socket, []).append(p)
        return {socket: cls.from_packets(groups[socket])
                for socket in sorted(groups)}

    # ------------------------------------------------------------------
    # Presentation / serialization
    # ------------------------------------------------------------------
    def render(self) -> str:
        """A terminal table (the Fig. 4 shape)."""
        if not self.segments:
            return "(no completed packets)"
        lines = [f"{'stage':<10} {'mean':>10} {'share':>7}",
                 "-" * 29]
        for seg in self.segments:
            lines.append(f"{seg.name:<10} {seg.mean_ns / 1000:>8.2f}us "
                         f"{seg.share * 100:>6.1f}%")
        lines.append("-" * 29)
        lines.append(f"{'total':<10} {self.end_to_end_ns / 1000:>8.2f}us "
                     f"{'100.0%':>7}")
        lines.append(f"(path {' -> '.join(self.path)}; "
                     f"{self.packets} packets, {self.excluded} off-path)")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "version": 1,
            "path": list(self.path),
            "end_to_end_ns": self.end_to_end_ns,
            "packets": self.packets,
            "excluded": self.excluded,
            "segments": [{"name": s.name, "mean_ns": s.mean_ns,
                          "share": s.share} for s in self.segments],
        }

