"""A simulated-time sampling profiler over the kernel's span tracepoints.

Where a wall-clock profiler interrupts the CPU and walks the stack, this
profiler rides the span tracepoints the kernel already emits
(``SPAN_BEGIN``/``SPAN_END`` on per-CPU tracks — softirq invocations,
per-device polls, per-skb stage execution) and does two things at once:

**Exact edge attribution.**  Every span edge attributes the simulated
time elapsed since the previous edge on that track to the *innermost*
open span (the leaf of the stack).  Because no simulated time passes
between a softirq handler's yields, the per-track totals reconstruct the
kernel's CPU accounting exactly: the sum of a ``cpuN`` track's folded
stacks equals that core's cumulative softirq time (within one partial
CPU slice at simulation end).  This is what :meth:`folded` /
:meth:`write_folded` export — ready for ``flamegraph.pl`` or speedscope.

**Periodic stack sampling.**  Independently, a :meth:`Simulator.every`
timer fires :meth:`SimProfiler.start` 's sampler every *sample_interval_ns* of
simulated time and records each track's current stack — the (cpu, stage,
device, flow-priority) context active at that instant.  The samples feed
a self-contained speedscope JSON ("sampled" profile type).  Sampling is
scheduled through :meth:`Simulator.every`, which never reorders other
events, so a profiled run stays digest-identical.

Why simulated-time sampling is *not* wall-clock profiling: the sampler
observes the model's virtual clock, so a stage that costs 10 µs of
simulated CPU gets 10 µs of weight regardless of how long the Python
interpreter took to simulate it.  Use :mod:`repro.perf.wallprof` (run
over the repo benchmark by ``python3 perfbench/run.py --trace``) to
find where the *simulator* spends host CPU; use this profiler to find
where the *simulated kernel* spends its cycles.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, TYPE_CHECKING, Union

from repro.trace.tracer import TracePoint, Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.core import Kernel
    from repro.sim.engine import PeriodicCall

__all__ = ["SimProfiler", "DEFAULT_SAMPLE_INTERVAL_NS"]

#: Default sampling period: 100 µs of simulated time (10 kHz virtual).
DEFAULT_SAMPLE_INTERVAL_NS = 100_000

#: Bound on retained periodic samples (~40 MB of tuples at the default
#: interval this is days of simulated time; a runaway-config backstop).
DEFAULT_MAX_SAMPLES = 1_000_000


class SimProfiler:
    """Attaches to one kernel's tracer and profiles its span activity.

    Parameters
    ----------
    kernel:
        The kernel whose tracer is subscribed to.
    sample_interval_ns:
        Simulated-time period between stack samples (0 disables periodic
        sampling; edge attribution still runs).
    max_samples:
        Retained-sample bound; further samples are counted in
        :attr:`samples_dropped` instead of kept.
    """

    def __init__(self, kernel: "Kernel", *,
                 sample_interval_ns: int = DEFAULT_SAMPLE_INTERVAL_NS,
                 max_samples: int = DEFAULT_MAX_SAMPLES) -> None:
        self.kernel = kernel
        self.tracer: Tracer = kernel.tracer
        self.sample_interval_ns = sample_interval_ns
        self.max_samples = max_samples
        #: Open-span stack per track (frame names, outermost first).
        self._stacks: Dict[str, List[str]] = {}
        #: Sim-time of the last attribution edge per track.
        self._last_edge: Dict[str, int] = {}
        #: Exact self-time per (track, stack tuple), in simulated ns.
        self.self_ns: Dict[Tuple[str, Tuple[str, ...]], int] = {}
        #: Periodic samples: (track, stack tuple) -> occurrence count.
        self.sample_counts: Dict[Tuple[str, Tuple[str, ...]], int] = {}
        #: Ordered periodic samples per track (speedscope needs order).
        self._sample_seq: Dict[str, List[Tuple[str, ...]]] = {}
        self.samples_taken = 0
        self.samples_dropped = 0
        self._sampler: Optional["PeriodicCall"] = None
        self._finalized_at: Optional[int] = None
        self._callbacks = [
            (TracePoint.SPAN_BEGIN,
             self.tracer.attach(TracePoint.SPAN_BEGIN, self._on_begin)),
            (TracePoint.SPAN_END,
             self.tracer.attach(TracePoint.SPAN_END, self._on_end)),
        ]

    # ------------------------------------------------------------------
    # Span edges (exact attribution)
    # ------------------------------------------------------------------
    def _attribute(self, track: str, stack: List[str], now: int) -> None:
        last = self._last_edge.get(track)
        if last is not None and stack and now > last:
            key = (track, tuple(stack))
            self.self_ns[key] = self.self_ns.get(key, 0) + (now - last)
        self._last_edge[track] = now

    def _on_begin(self, track: str, name: str, **fields: Any) -> None:
        now = self.kernel.sim.now
        stack = self._stacks.setdefault(track, [])
        self._attribute(track, stack, now)
        hp = fields.get("hp")
        if hp is not None:
            # Per-skb stage spans carry the flow-priority class; fold it
            # into the frame so high- and low-priority work separate in
            # the flamegraph.
            name = f"{name}[{'hp' if hp else 'lp'}]"
        stack.append(name)

    def _on_end(self, track: str, name: str, **fields: Any) -> None:
        now = self.kernel.sim.now
        stack = self._stacks.get(track)
        if not stack:
            return
        self._attribute(track, stack, now)
        # Frames close LIFO; the begin side may have suffixed a priority
        # class onto the name, so match on the prefix.
        top = stack[-1]
        if top == name or top.startswith(f"{name}["):
            stack.pop()
        else:  # pragma: no cover - span discipline violation
            while stack and stack[-1] != name and \
                    not stack[-1].startswith(f"{name}["):
                stack.pop()
            if stack:
                stack.pop()

    # ------------------------------------------------------------------
    # Periodic sampling
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin periodic stack sampling (idempotent)."""
        if self._sampler is None and self.sample_interval_ns > 0:
            self._sampler = self.kernel.sim.every(self.sample_interval_ns,
                                                  self._sample)

    def _sample(self) -> None:
        for track, stack in self._stacks.items():
            if not stack:
                continue
            if self.samples_taken >= self.max_samples:
                self.samples_dropped += 1
                continue
            self.samples_taken += 1
            key = (track, tuple(stack))
            self.sample_counts[key] = self.sample_counts.get(key, 0) + 1
            self._sample_seq.setdefault(track, []).append(tuple(stack))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def finalize(self) -> None:
        """Attribute trailing open-span time and detach (idempotent).

        Call once the simulation has stopped: spans still open (the run
        ended mid-softirq) get their time up to *now* attributed, so the
        folded totals account for every simulated nanosecond the spans
        covered.
        """
        if self._finalized_at is not None:
            return
        now = self.kernel.sim.now
        for track, stack in self._stacks.items():
            self._attribute(track, stack, now)
        for point, callback in self._callbacks:
            self.tracer.detach(point, callback)
        self._callbacks = []
        if self._sampler is not None:
            self._sampler.cancel()
            self._sampler = None
        self._finalized_at = now

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def total_ns(self, track: Optional[str] = None) -> int:
        """Total attributed simulated time (optionally for one track)."""
        return sum(ns for (t, _stack), ns in self.self_ns.items()
                   if track is None or t == track)

    def tracks(self) -> List[str]:
        return sorted({t for t, _stack in self.self_ns})

    def stage_totals(self, track: Optional[str] = None) -> Dict[str, int]:
        """Attributed time keyed by leaf frame (per-stage totals)."""
        out: Dict[str, int] = {}
        for (t, stack), ns in self.self_ns.items():
            if track is not None and t != track:
                continue
            leaf = stack[-1]
            out[leaf] = out.get(leaf, 0) + ns
        return out

    # ------------------------------------------------------------------
    # Export: collapsed stacks (flamegraph.pl folded format)
    # ------------------------------------------------------------------
    def folded(self) -> List[str]:
        """``track;frame;frame value`` lines, sorted for determinism."""
        lines = []
        for (track, stack), ns in self.self_ns.items():
            lines.append((";".join((track,) + stack), ns))
        lines.sort()
        return [f"{frames} {ns}" for frames, ns in lines]

    def write_folded(self, path: Union[str, Path]) -> Path:
        out = Path(path)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text("\n".join(self.folded()) + "\n")
        return out

    # ------------------------------------------------------------------
    # Export: speedscope JSON (self-contained, "sampled" profiles)
    # ------------------------------------------------------------------
    def speedscope(self, name: str = "repro") -> Dict[str, Any]:
        """A speedscope file document: one sampled profile per track.

        Built from the periodic samples when sampling ran, otherwise from
        the exact folded stacks (each stack one weighted sample).
        """
        frame_index: Dict[str, int] = {}

        def frames_for(stack: Tuple[str, ...]) -> List[int]:
            out = []
            for frame in stack:
                index = frame_index.get(frame)
                if index is None:
                    index = frame_index[frame] = len(frame_index)
                out.append(index)
            return out

        profiles = []
        if self._sample_seq:
            interval = self.sample_interval_ns
            for track in sorted(self._sample_seq):
                seq = self._sample_seq[track]
                samples = [frames_for(stack) for stack in seq]
                weights = [interval] * len(samples)
                profiles.append({
                    "type": "sampled",
                    "name": track,
                    "unit": "nanoseconds",
                    "startValue": 0,
                    "endValue": interval * len(samples),
                    "samples": samples,
                    "weights": weights,
                })
        else:
            by_track: Dict[str, List[Tuple[Tuple[str, ...], int]]] = {}
            for (track, stack), ns in sorted(self.self_ns.items()):
                by_track.setdefault(track, []).append((stack, ns))
            for track in sorted(by_track):
                samples, weights = [], []
                for stack, ns in by_track[track]:
                    samples.append(frames_for(stack))
                    weights.append(ns)
                profiles.append({
                    "type": "sampled",
                    "name": track,
                    "unit": "nanoseconds",
                    "startValue": 0,
                    "endValue": sum(weights),
                    "samples": samples,
                    "weights": weights,
                })
        return {
            "$schema": "https://www.speedscope.app/file-format-schema.json",
            "version": "0.0.1",
            "name": name,
            "exporter": "repro.telemetry",
            "activeProfileIndex": 0,
            "shared": {"frames": [{"name": frame} for frame in frame_index]},
            "profiles": profiles,
        }

    def write_speedscope(self, path: Union[str, Path],
                         name: str = "repro") -> Path:
        out = Path(path)
        out.parent.mkdir(parents=True, exist_ok=True)
        with out.open("w") as fh:
            json.dump(self.speedscope(name), fh, indent=1, sort_keys=True)
            fh.write("\n")
        return out

    def __repr__(self) -> str:
        return (f"<SimProfiler stacks={len(self._stacks)} "
                f"samples={self.samples_taken} total={self.total_ns()}ns>")
