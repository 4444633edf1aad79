"""Bounded packet queues with drop accounting.

Used for NIC rx rings, per-device NAPI input queues, the per-CPU backlog,
and socket receive buffers.  A full queue drops at the tail (the kernel's
behaviour for all of these) and counts the drop.
"""

from __future__ import annotations

from collections import deque
from typing import Optional, TypeVar

T = TypeVar("T")

__all__ = ["PacketQueue"]


class PacketQueue(deque):
    """A bounded FIFO of packets/skbs with enqueue-drop accounting.

    A :class:`collections.deque` itself, so ``bool()``, ``len()``,
    iteration and :meth:`dequeue` are C calls on the hot path.  Equality
    and hashing are by identity, as for any device object: two queues
    holding the same items are still two queues.
    """

    __slots__ = ("capacity", "name", "enqueued", "dropped", "max_depth",
                 "cleared")

    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__

    def __init__(self, capacity: int, name: str = "") -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        super().__init__()
        self.capacity = capacity
        self.name = name
        self.enqueued = 0
        self.dropped = 0
        #: Deepest the queue has ever been (occupancy high-watermark,
        #: reported by the observability gauges).
        self.max_depth = 0
        #: Items discarded by :meth:`clear` (device resets, link flaps).
        #: Kept separate from ``dropped`` (tail drops on admission) so
        #: packet-conservation checks can account every discarded item.
        self.cleared = 0

    def enqueue(self, item: T) -> bool:
        """Append *item*; returns False (and counts a drop) when full."""
        depth = len(self)
        if depth >= self.capacity:
            self.dropped += 1
            return False
        self.append(item)
        self.enqueued += 1
        if depth >= self.max_depth:
            self.max_depth = depth + 1
        return True

    #: Pop the head.  Raises IndexError when empty.
    dequeue = deque.popleft

    def peek(self) -> Optional[T]:
        """The head item without removing it, or None when empty."""
        return self[0] if self else None

    def clear(self) -> None:
        """Discard all queued items, counting them in ``cleared``."""
        self.cleared += len(self)
        deque.clear(self)

    def stats(self) -> dict:
        """Counter snapshot (what the telemetry layer scrapes)."""
        return {
            "depth": len(self),
            "max_depth": self.max_depth,
            "enqueued": self.enqueued,
            "dropped": self.dropped,
            "cleared": self.cleared,
        }

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return (f"<PacketQueue{label} {len(self)}/{self.capacity} "
                f"dropped={self.dropped}>")
