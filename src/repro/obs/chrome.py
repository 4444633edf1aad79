"""Chrome ``trace_event`` export of a flight recording.

Produces the JSON object format Perfetto / chrome://tracing load
directly: a ``traceEvents`` array of ``B``/``E``/``X``/``i``/``C``
events plus ``process_name``/``thread_name`` metadata, one thread
(track) per simulated CPU, queue, or counter family.  Timestamps are in
microseconds per the format spec; simulation nanoseconds survive as
fractional values, so nothing is rounded away.

``validate_chrome_trace`` checks the structural rules the viewers rely
on: every event carries the required keys for its phase, B/E events
balance per track with LIFO names, and counters carry numeric values.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.obs.recorder import (
    FlightRecorder,
    PH_BEGIN,
    PH_COMPLETE,
    PH_COUNTER,
    PH_END,
    PH_INSTANT,
)

__all__ = ["chrome_trace_doc", "validate_chrome_trace", "write_chrome_trace"]

#: All simulated activity lives in one "process".
_PID = 1

_REQUIRED_KEYS = ("ph", "ts", "pid", "tid", "name")
_KNOWN_PHASES = {PH_BEGIN, PH_END, PH_COMPLETE, PH_INSTANT, PH_COUNTER, "M"}


def chrome_trace_doc(recorder: FlightRecorder, *,
                     process_name: str = "prism-sim",
                     meta: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Render *recorder*'s contents as a Chrome trace JSON object.

    *meta* (scenario description, seed, …) is attached under
    ``otherData`` where the viewers display it as trace metadata.
    """
    events: List[Dict[str, Any]] = [{
        "ph": "M", "name": "process_name", "pid": _PID, "tid": 0, "ts": 0,
        "args": {"name": process_name},
    }]
    tids: Dict[str, int] = {}
    for track in recorder.tracks():
        tid = tids[track] = len(tids) + 1
        events.append({
            "ph": "M", "name": "thread_name", "pid": _PID, "tid": tid,
            "ts": 0, "args": {"name": track},
        })

    # Ring-buffer eviction can orphan an E whose B was overwritten; such
    # events are dropped here so the exported nesting always balances.
    open_spans: Dict[str, List[str]] = {}
    for event in recorder.events():
        if event.ph == PH_BEGIN:
            open_spans.setdefault(event.track, []).append(event.name)
        elif event.ph == PH_END:
            stack = open_spans.get(event.track)
            if not stack or stack[-1] != event.name:
                continue  # begin evicted by wraparound
            stack.pop()
        out: Dict[str, Any] = {
            "ph": event.ph,
            "ts": event.ts / 1000.0,  # sim-ns -> us (fractional, exact-ish)
            "pid": _PID,
            "tid": tids[event.track],
            "name": event.name,
        }
        if event.ph == PH_COMPLETE:
            out["dur"] = (event.dur or 0) / 1000.0
        if event.ph == PH_INSTANT:
            out["s"] = "t"  # thread-scoped instant
        if event.args:
            out["args"] = event.args
        events.append(out)

    doc: Dict[str, Any] = {
        "traceEvents": events,
        "displayTimeUnit": "ns",
    }
    other: Dict[str, Any] = {"evicted_events": recorder.evicted}
    if meta:
        other.update(meta)
    doc["otherData"] = other
    return doc


def validate_chrome_trace(doc: Dict[str, Any]) -> None:
    """Raise ValueError if *doc* is not a loadable Chrome trace.

    Checks the JSON-object-format invariants: a ``traceEvents`` list,
    per-phase required keys, numeric timestamps/durations, balanced
    B/E nesting per (pid, tid), and dict-valued counter args.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"trace document must be an object, got {type(doc)}")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("trace document has no traceEvents array")
    stacks: Dict[Any, List[str]] = {}
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValueError(f"traceEvents[{i}] is not an object")
        for key in _REQUIRED_KEYS:
            if key not in event:
                raise ValueError(f"traceEvents[{i}] missing {key!r}")
        ph = event["ph"]
        if ph not in _KNOWN_PHASES:
            raise ValueError(f"traceEvents[{i}] has unknown phase {ph!r}")
        if not isinstance(event["ts"], (int, float)):
            raise ValueError(f"traceEvents[{i}] ts is not numeric")
        track = (event["pid"], event["tid"])
        if ph == PH_BEGIN:
            stacks.setdefault(track, []).append(event["name"])
        elif ph == PH_END:
            stack = stacks.get(track)
            if not stack:
                raise ValueError(
                    f"traceEvents[{i}]: E {event['name']!r} with no open B "
                    f"on track {track}")
            opened = stack.pop()
            if opened != event["name"]:
                raise ValueError(
                    f"traceEvents[{i}]: E {event['name']!r} does not match "
                    f"open B {opened!r} on track {track}")
        elif ph == PH_COMPLETE:
            if not isinstance(event.get("dur"), (int, float)):
                raise ValueError(f"traceEvents[{i}] X event has no numeric dur")
        elif ph == PH_COUNTER:
            args = event.get("args")
            if not isinstance(args, dict) or not all(
                    isinstance(v, (int, float)) for v in args.values()):
                raise ValueError(
                    f"traceEvents[{i}] C event needs numeric args")
    # Spans still open at the end of the recording (simulation stopped
    # mid-softirq) are legal: the viewers close them at the trace end.


def write_chrome_trace(path: Union[str, Path], recorder: FlightRecorder, *,
                       process_name: str = "prism-sim",
                       meta: Optional[Dict[str, Any]] = None) -> Path:
    """Export *recorder* to *path* as validated Chrome trace JSON."""
    doc = chrome_trace_doc(recorder, process_name=process_name, meta=meta)
    validate_chrome_trace(doc)
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))
    return path
