"""Wall-clock stack sampling for real (host-time) profiles.

The kernel observer's span attribution (:mod:`repro.obs.stacks`)
weighs *simulated* time — ideal for attributing virtual nanoseconds to
kernel stages, useless for finding where the interpreter actually burns
host CPU.  :class:`WallClockSampler` fills that gap: a daemon thread
periodically snapshots the target thread's Python stack via
``sys._current_frames()`` and accumulates wall-nanosecond weights per
stack, then exports the result as a self-contained speedscope JSON
document ("sampled" profile type — the same shape the observer's
profile takes, so both open in the same UI).

Sampling is cooperative with the GIL: each snapshot grabs a consistent
frame chain without pausing the target, and the overhead is one stack
walk per interval (~1 ms default), far below cProfile's per-call
tracing cost — which is what makes it honest for profiling the
repo benchmark (``perfbench/``) while it measures.

Usage::

    sampler = WallClockSampler()
    with sampler:
        run_cluster(config, shards=1)
    sampler.write_speedscope("fabric.speedscope.json", name="fabric")
"""

from __future__ import annotations

import json
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

__all__ = ["WallClockSampler"]


class WallClockSampler:
    """Periodic wall-clock stack sampler for one target thread."""

    def __init__(self, interval_s: float = 0.001) -> None:
        self.interval_s = interval_s
        self.samples: List[Tuple[Tuple[str, ...], int]] = []
        self.samples_taken = 0
        self._target_ident: Optional[int] = None
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "WallClockSampler":
        """Begin sampling the *calling* thread from a daemon thread."""
        if self._thread is not None:
            raise RuntimeError("sampler already running")
        self._target_ident = threading.get_ident()
        self._stop.clear()
        self._thread = threading.Thread(target=self._run,
                                        name="wallprof", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=5)
        self._thread = None

    def __enter__(self) -> "WallClockSampler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- sampling loop --------------------------------------------------
    def _run(self) -> None:
        ident = self._target_ident
        last = time.perf_counter_ns()
        while not self._stop.wait(self.interval_s):
            frame = sys._current_frames().get(ident)
            now = time.perf_counter_ns()
            if frame is None:  # target thread exited
                break
            stack: List[str] = []
            while frame is not None:
                code = frame.f_code
                stack.append(f"{code.co_name} "
                             f"({code.co_filename}:{code.co_firstlineno})")
                frame = frame.f_back
            stack.reverse()  # speedscope wants root -> leaf
            self.samples.append((tuple(stack), now - last))
            self.samples_taken += 1
            last = now

    # -- export ---------------------------------------------------------
    def speedscope(self, name: str = "repro") -> Dict[str, Any]:
        """A speedscope document with one "sampled" wall-clock profile."""
        frame_index: Dict[str, int] = {}
        samples: List[List[int]] = []
        weights: List[int] = []
        for stack, weight_ns in self.samples:
            row = []
            for frame in stack:
                index = frame_index.get(frame)
                if index is None:
                    index = frame_index[frame] = len(frame_index)
                row.append(index)
            samples.append(row)
            weights.append(weight_ns)
        return {
            "$schema": "https://www.speedscope.app/file-format-schema.json",
            "version": "0.0.1",
            "name": name,
            "exporter": "repro.perf.wallprof",
            "activeProfileIndex": 0,
            "shared": {"frames": [{"name": frame} for frame in frame_index]},
            "profiles": [{
                "type": "sampled",
                "name": f"{name} (wall clock)",
                "unit": "nanoseconds",
                "startValue": 0,
                "endValue": sum(weights),
                "samples": samples,
                "weights": weights,
            }],
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
        return (f"<WallClockSampler samples={self.samples_taken} "
                f"interval={self.interval_s * 1e3:.1f}ms>")
