"""ECMP hashing and flowlet switching (deterministic, process-stable).

ECMP picks among a flow's equal-cost paths by hashing the flow key with
a salt derived from the run seed.  The hash is sha256-based — **never**
the builtin ``hash``, which Python salts per process via
``PYTHONHASHSEED`` and would break "same digest in-process and in
subprocess shard workers".

Flowlet switching (CONGA/LetFlow-style): a flow that goes idle for
longer than the configured gap starts a new *flowlet* — its generation
counter bumps, and the generation feeds the hash, so the flow rehashes
onto a (possibly different) equal-cost path without reordering packets
inside a burst.  The hash runs only when a flowlet starts: inside one,
the flow keeps the path index it was given.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Tuple

__all__ = ["ecmp_index", "FlowletTable"]


def ecmp_index(salt: int, flow: Tuple, generation: int, n_paths: int) -> int:
    """Deterministic path index in ``[0, n_paths)`` for one flowlet."""
    if n_paths <= 1:
        return 0
    blob = f"{salt}\x1f{generation}\x1f" + "\x1f".join(map(str, flow))
    digest = hashlib.sha256(blob.encode()).digest()
    return int.from_bytes(digest[:8], "big") % n_paths


class FlowletTable:
    """Per-flow (last-seen, generation, path, path count) flowlet state."""

    __slots__ = ("gap_ns", "salt", "_flows", "rehashes", "path_changes")

    def __init__(self, gap_ns: int, salt: int) -> None:
        self.gap_ns = gap_ns
        self.salt = salt
        self._flows: Dict[Tuple, Tuple[int, int, int, int]] = {}
        #: Idle gaps crossed (generation bumps), whether or not the
        #: rehash landed on a different path.
        self.rehashes = 0
        #: Rehashes that actually moved the flow to a new path.
        self.path_changes = 0

    def assign(self, flow: Tuple, now_ns: int, n_paths: int) -> int:
        """The path index for *flow*'s packet departing at *now_ns*."""
        state = self._flows.get(flow)
        if state is None:
            generation = 0
            index = ecmp_index(self.salt, flow, generation, n_paths)
        else:
            last_ns, generation, index, last_n_paths = state
            if now_ns - last_ns > self.gap_ns:
                # A new flowlet: rehash onto a (possibly) new path.
                generation += 1
                self.rehashes += 1
                index = ecmp_index(self.salt, flow, generation, n_paths)
                if index != state[2]:
                    self.path_changes += 1
            elif n_paths != last_n_paths:
                index = ecmp_index(self.salt, flow, generation, n_paths)
        self._flows[flow] = (now_ns, generation, index, n_paths)
        return index

    def __len__(self) -> int:
        return len(self._flows)
