"""Recorders used by workloads and the bench harness."""

from __future__ import annotations

from array import array
from typing import Callable, Dict, Optional

from repro.kernel.cpu import CpuContext, CpuCore, CpuStats
from repro.metrics.stats import LatencySummary, summarize_ns

__all__ = ["LatencyRecorder", "ThroughputMeter", "CpuUtilizationSampler"]


class LatencyRecorder:
    """Collects latency samples (ns) with optional warm-up gating.

    Every sample is kept in a compact ``array('q')`` (8 bytes/sample
    instead of a pointer to a boxed int), so summaries are exact and
    experiment results stay bit-exact.
    """

    def __init__(self, name: str = "", warmup_until_ns: int = 0) -> None:
        self.name = name
        #: Samples recorded at virtual times before this are discarded.
        self.warmup_until_ns = warmup_until_ns
        self.samples_ns = array("q")
        self.discarded = 0
        self.count = 0

    def record(self, latency_ns: int, at_ns: Optional[int] = None) -> None:
        if at_ns is not None and at_ns < self.warmup_until_ns:
            self.discarded += 1
            return
        self.count += 1
        self.samples_ns.append(latency_ns)

    def summary(self) -> Optional[LatencySummary]:
        return summarize_ns(self.samples_ns)

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:
        return f"<LatencyRecorder {self.name!r} n={self.count}>"


class ThroughputMeter:
    """Counts events (packets, requests) over a measurement window."""

    def __init__(self, name: str = "", warmup_until_ns: int = 0) -> None:
        self.name = name
        self.warmup_until_ns = warmup_until_ns
        self.count = 0
        self.bytes = 0
        #: Events that arrived before the warm-up window closed.  Exposed
        #: so summaries can show how much traffic the gate swallowed (a
        #: meter reading zero because *everything* landed in warm-up
        #: looks identical to a dead workload otherwise).
        self.discarded = 0
        self.first_at: Optional[int] = None
        self.last_at: Optional[int] = None

    def record(self, at_ns: int, nbytes: int = 0) -> None:
        if at_ns < self.warmup_until_ns:
            self.discarded += 1
            return
        self.count += 1
        self.bytes += nbytes
        if self.first_at is None:
            self.first_at = at_ns
        self.last_at = at_ns

    def summary(self) -> Dict[str, Optional[int]]:
        """Counters as a plain dict (for reports and JSON dumps)."""
        return {
            "count": self.count,
            "bytes": self.bytes,
            "discarded": self.discarded,
            "first_at": self.first_at,
            "last_at": self.last_at,
        }

    def __repr__(self) -> str:
        return (f"<ThroughputMeter {self.name!r} count={self.count} "
                f"discarded={self.discarded}>")


class CpuUtilizationSampler:
    """Windowed utilization of one core from its cumulative counters."""

    def __init__(self, core: CpuCore, now: Callable[[], int]) -> None:
        self.core = core
        self.now = now
        self._mark_time = now()
        self._mark_stats: Dict[CpuContext, int] = core.stats.snapshot()

    def mark(self) -> None:
        """Start a new measurement window at the current time."""
        self._mark_time = self.now()
        self._mark_stats = self.core.stats.snapshot()

    def utilization(self) -> float:
        """Non-idle fraction since the last mark."""
        elapsed = self.now() - self._mark_time
        return CpuStats.utilization(self._mark_stats,
                                    self.core.stats.snapshot(), elapsed)

    def softirq_fraction(self) -> float:
        """Softirq-context fraction since the last mark."""
        elapsed = self.now() - self._mark_time
        if elapsed <= 0:
            return 0.0
        current = self.core.stats.snapshot()
        softirq = (current[CpuContext.SOFTIRQ]
                   - self._mark_stats[CpuContext.SOFTIRQ])
        return min(1.0, softirq / elapsed)
