"""Measurement digests: a canonical JSON rendering, hashed.

Kept apart from :mod:`repro.bench.runner` so that digesting a result
(the cluster executor does it for every :class:`ClusterResult`) loads
neither the batch runner nor its process pool.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from typing import Any, Dict

__all__ = ["MEASUREMENT_FIELDS", "jsonable", "measurement_digest",
           "result_digest"]

#: What :func:`result_digest` hashes: the measurements a figure reads
#: (latency samples, per-class counters, CPU accounting, drops) and, in
#: fault runs, the injector summary, packet ledger and recovery totals.
#: Config, stage breakdown, telemetry and flow records are left out, so
#: a schema or instrumentation change never looks like a behaviour change.
MEASUREMENT_FIELDS = (
    "fg_samples_ns", "fg_sent", "fg_replies", "fg_delivered_pps",
    "bg_delivered_pps", "cpu_utilization", "softirq_fraction", "drops",
    "fault_summary", "conservation", "recovery")


def jsonable(value: Any) -> Any:
    """Convert configs/results into a stable, json-serializable structure."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        out: Dict[str, Any] = {"__class__": type(value).__name__}
        for f in dataclasses.fields(value):
            out[f.name] = jsonable(getattr(value, f.name))
        return out
    if isinstance(value, enum.Enum):
        return [type(value).__name__, value.value]
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in sorted(value.items())}
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, float):
        return repr(value)  # exact round-trip text, no json float surprises
    return repr(value)


def measurement_digest(payload: Dict[str, Any]) -> str:
    """sha256 of a canonical JSON rendering of *payload*."""
    blob = json.dumps(jsonable(payload), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def result_digest(result: Any) -> str:
    """Measurement digest of an :class:`ExperimentResult` — equal
    digests ⇔ identical measurements.

    Hashes :data:`MEASUREMENT_FIELDS` only: two configs that simulate
    the same thing (``costs=None`` vs ``CostModel()``, flow export on or
    off, a traced or untraced run) digest equally.  The determinism
    tests use it to compare serial, parallel and cached executions.
    """
    return measurement_digest({name: getattr(result, name)
                               for name in MEASUREMENT_FIELDS})
