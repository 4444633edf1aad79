"""Per-layer attribution for a traced benchmark run.

Two instruments, both installed from outside the program:

- :class:`SpanTracer` swaps timing wrappers onto public methods of the
  simulator's classes (and records spans around the calls the benchmark
  makes itself).  Spans -- name, start, end, parent -- stay in memory and
  are written out once, as Chrome trace JSON, when the run ends.  A span's
  self time is its duration minus the time its child spans cover.
- :func:`package_shares` buckets :class:`repro.perf.wallprof.WallClockSampler`
  stacks by the package of their innermost ``repro`` frame, giving the
  share of sampled wall time spent in each layer.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = ["PACKAGES", "SpanTracer", "Target", "package_shares",
           "write_chrome"]

#: The layers of ``src/repro``, in the order the README lists them.  Samples
#: whose innermost ``repro`` frame lies anywhere else (``scenario.py``,
#: ``perf/``) or that hold no ``repro`` frame at all count as ``other``.
PACKAGES: Tuple[str, ...] = (
    "sim", "kernel", "netdev", "prism", "stack", "packet", "fastpath",
    "overlay", "apps", "faults", "fabric", "shard", "bench",
    "obs", "trace", "telemetry", "flows", "metrics")

#: Spans kept per name for the trace file; beyond it only the totals grow.
KEEP_PER_NAME = 5_000

Observe = Callable[[tuple, Any, float], Optional[int]]


@dataclass(frozen=True)
class Target:
    """One method to wrap: ``owner.attr`` recorded as span ``name``.

    ``observe(args, result, self_s)`` runs after each successful call; an
    int it returns is added to the span's ``n`` (rows, events, ...).
    """

    name: str
    owner: type
    attr: str
    observe: Optional[Observe] = None


class SpanTracer:
    """In-memory span recorder with per-name call/time/self-time totals."""

    def __init__(self, label: str) -> None:
        self.label = label
        self.t0 = time.perf_counter()
        #: (name, start, end, parent name, n) for the first spans per name.
        self.spans: List[Tuple[str, float, float, Optional[str], int]] = []
        #: name -> [calls, total_s, self_s, n]
        self.totals: Dict[str, List[float]] = {}
        self._stack: List[List[Any]] = []

    # -- recording ------------------------------------------------------
    def _enter(self, name: str) -> List[Any]:
        frame = [name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _leave(self, frame: List[Any], observe: Optional[Observe],
               args: tuple, result: Any) -> None:
        end = time.perf_counter()
        name, start, child_s = frame
        self._stack.pop()
        duration = end - start
        self_s = duration - child_s
        parent = None
        if self._stack:
            self._stack[-1][2] += duration
            parent = self._stack[-1][0]
        n = (observe(args, result, self_s) if observe else None) or 0
        totals = self.totals.get(name)
        if totals is None:
            totals = self.totals[name] = [0, 0.0, 0.0, 0]
        totals[0] += 1
        totals[1] += duration
        totals[2] += self_s
        totals[3] += n
        if totals[0] <= KEEP_PER_NAME:
            self.spans.append((name, start, end, parent, n))

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around a call the benchmark makes itself."""
        frame = self._enter(name)
        try:
            yield
        finally:
            self._leave(frame, None, (), None)

    def _wrap(self, name: str, func: Callable, observe: Optional[Observe]):
        enter, leave = self._enter, self._leave

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            frame = enter(name)
            try:
                result = func(*args, **kwargs)
            except BaseException:
                leave(frame, None, args, None)
                raise
            leave(frame, observe, args, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self, targets: Sequence[Target]) -> Iterator[None]:
        """Wrap every target for the duration of the block."""
        patched = []
        try:
            for target in targets:
                raw = target.owner.__dict__[target.attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(target.name, raw.__func__,
                                                     target.observe))
                else:
                    wrapped = self._wrap(target.name, raw, target.observe)
                setattr(target.owner, target.attr, wrapped)
                patched.append((target.owner, target.attr, raw))
            yield
        finally:
            for owner, attr, raw in reversed(patched):
                setattr(owner, attr, raw)

    # -- reading --------------------------------------------------------
    def calls(self, name: str) -> int:
        return int(self.totals.get(name, (0,))[0])

    def total_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0))[1]

    def self_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[2]

    def n(self, name: str) -> int:
        return int(self.totals.get(name, (0, 0.0, 0.0, 0))[3])

    def chrome_events(self, pid: int) -> List[Dict[str, Any]]:
        events: List[Dict[str, Any]] = [{
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": self.label}}]
        for name, start, end, parent, n in self.spans:
            events.append({
                "name": name, "ph": "X", "pid": pid, "tid": 0,
                "ts": (start - self.t0) * 1e6, "dur": (end - start) * 1e6,
                "args": {"parent": parent, "n": n}})
        return events


def write_chrome(path: Path, tracers: Sequence[SpanTracer],
                 meta: Dict[str, Any]) -> Path:
    """One Chrome trace file holding every tracer's spans and totals."""
    events: List[Dict[str, Any]] = []
    totals: Dict[str, Dict[str, Any]] = {}
    for pid, tracer in enumerate(tracers, start=1):
        events.extend(tracer.chrome_events(pid))
        totals[tracer.label] = {
            name: {"calls": int(t[0]), "total_s": t[1], "self_s": t[2],
                   "n": int(t[3])}
            for name, t in sorted(tracer.totals.items())}
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                   "otherData": dict(meta, totals=totals,
                                     keep_per_name=KEEP_PER_NAME)}, fh)
        fh.write("\n")
    return path


def package_shares(samples: Sequence[Tuple[Tuple[str, ...], int]],
                   repro_dir: Path) -> Tuple[Dict[str, float], int]:
    """Share of sampled wall time per package, and the sample count.

    *samples* are ``WallClockSampler.samples``: root-to-leaf stacks of
    ``"func (file:line)"`` strings with a wall-nanosecond weight each.
    """
    prefix = str(repro_dir) + os.sep
    weights = dict.fromkeys(PACKAGES + ("other",), 0)
    for stack, weight in samples:
        package = "other"
        for frame in reversed(stack):
            path = frame[frame.rindex("(") + 1:frame.rindex(":")]
            if path.startswith(prefix):
                head = path[len(prefix):].split(os.sep, 1)
                if len(head) == 2 and head[0] in weights:
                    package = head[0]
                break
        weights[package] += weight
    total = sum(weights.values())
    shares = {name: (w / total if total else 0.0)
              for name, w in weights.items()}
    return shares, len(samples)
