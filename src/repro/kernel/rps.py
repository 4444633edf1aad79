"""Receive packet steering (RPS).

Linux's software analogue of RSS: flows are spread over CPUs by hashing
the flow tuple and enqueueing the skb to the chosen CPU's backlog, with
an inter-processor interrupt to kick its NET_RX softirq.

The paper pins all packet processing to one core (§V-A) so RPS is off by
default, but the mechanism matters to PRISM's design story: the vanilla
two-list NAPI design exists to let RPS-balanced CPUs avoid locking
(§III-A), and the paper argues multi-stage flows defeat that balancing.
Enabling RPS here lets experiments explore exactly that claim.
"""

from __future__ import annotations

from typing import Callable, Generator, List, TYPE_CHECKING

from repro.packet.flow import rss_hash
from repro.packet.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.core import Kernel
    from repro.kernel.softnet import SoftnetData
    from repro.packet.skb import SKBuff

__all__ = ["RpsSteering"]


class RpsSteering:
    """Flow-hash steering over a set of CPUs."""

    def __init__(self, kernel: "Kernel", cpu_ids: List[int]) -> None:
        if not cpu_ids:
            raise ValueError("RPS needs at least one target CPU")
        for cpu_id in cpu_ids:
            if not 0 <= cpu_id < len(kernel.cpus):
                raise ValueError(f"no such CPU: {cpu_id}")
        self.kernel = kernel
        self.cpu_ids = list(cpu_ids)
        self.steered = 0

    def target_softnet(self, packet: Packet) -> "SoftnetData":
        """The softnet that should process *packet* (by outer flow hash)."""
        key = packet.flow_key()
        if key is None:
            return self.kernel.softnet_for(self.cpu_ids[0])
        index = rss_hash(key) % len(self.cpu_ids)
        return self.kernel.softnet_for(self.cpu_ids[index])

    def steer(self, skb: "SKBuff", target: "SoftnetData",
              charge: Callable[[int], bool]) -> Generator[int, None, None]:
        """Enqueue *skb* to *target*'s backlog and kick its NET_RX (an IPI).

        The driver calls this instead of running its stage when the flow
        hashes to another CPU; the backlog there runs the driver stage.
        The IPI's cost goes through the driver poll's *charge*.
        """
        kernel = self.kernel
        self.steered += 1
        ns = kernel.costs.softirq_raise_ns
        if charge(ns):
            yield ns
        level = skb.priority_level
        high = (kernel.prism and level is not None
                and level <= kernel.config.high_priority_max_level)
        backlog = target.backlog
        if backlog.enqueue(skb, high=high):
            if high:
                target.napi_schedule_head(backlog)
            else:
                target.napi_schedule(backlog)
        else:
            kernel.skb_pool.recycle(skb)  # backlog overflow drop
