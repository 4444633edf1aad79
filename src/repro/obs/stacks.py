"""Folded-stack and speedscope export of the observer's span attribution.

:attr:`repro.obs.observer.KernelObserver.self_ns` maps ``(track, stack)``
to the exact simulated nanoseconds spent with that stack innermost.
These functions render the table for flamegraph tools: collapsed stacks
(``flamegraph.pl``'s folded format) and a self-contained speedscope
document with one weighted "sampled" profile per track.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Mapping, Tuple, Union

__all__ = ["folded_lines", "write_folded", "speedscope_doc",
           "write_speedscope"]

#: ``(track, open-span stack) -> simulated ns`` (the observer's table).
SelfTime = Mapping[Tuple[str, Tuple[str, ...]], int]


def folded_lines(self_ns: SelfTime) -> List[str]:
    """``track;frame;frame value`` lines, sorted for determinism."""
    lines = sorted((";".join((track,) + stack), ns)
                   for (track, stack), ns in self_ns.items())
    return [f"{frames} {ns}" for frames, ns in lines]


def write_folded(path: Union[str, Path], self_ns: SelfTime) -> Path:
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(folded_lines(self_ns)) + "\n")
    return out


def speedscope_doc(self_ns: SelfTime, name: str = "repro") -> Dict[str, Any]:
    """A speedscope file document: one profile per track, each folded
    stack one sample weighted by its simulated nanoseconds."""
    frame_index: Dict[str, int] = {}
    by_track: Dict[str, List[Tuple[Tuple[str, ...], int]]] = {}
    for (track, stack), ns in sorted(self_ns.items()):
        by_track.setdefault(track, []).append((stack, ns))
    profiles = []
    for track, rows in by_track.items():
        samples = [[frame_index.setdefault(frame, len(frame_index))
                    for frame in stack] for stack, _ns in rows]
        weights = [ns for _stack, ns in rows]
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
        "exporter": "repro.obs",
        "activeProfileIndex": 0,
        "shared": {"frames": [{"name": frame} for frame in frame_index]},
        "profiles": profiles,
    }


def write_speedscope(path: Union[str, Path], self_ns: SelfTime,
                     name: str = "repro") -> Path:
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w") as fh:
        json.dump(speedscope_doc(self_ns, name), fh, indent=1,
                  sort_keys=True)
        fh.write("\n")
    return out
