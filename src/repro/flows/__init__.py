"""Sampled flow-record export — the repo's sFlow/NetFlow analogue.

Aggregate metrics (the telemetry registry) answer "how much"; traces
(the obs layer) answer "what happened in this one run" — neither can
answer *which flows* starved, on which link, during which fault window,
once a 16-host cluster is pushing hundreds of thousands of aggregated
users.  This package adds the missing per-flow layer, modelled on the
goflow → Kafka → ClickHouse pipelines real fleets run:

- :class:`~repro.flows.sampler.FlowSampler` — a seeded, deterministic
  1-in-N packet sampler.  No simulation RNG is consumed and no event is
  scheduled, so enabling it never perturbs the schedule; the per-site
  sampling phase is derived from the seed, so the *same* packets are
  picked on every rerun.
- :class:`~repro.flows.cache.FlowCache` — a bounded in-sim cache that
  folds samples into :class:`~repro.flows.records.FlowRecord` entries
  (packets/bytes/drops per emit site, first/last seen, priority class,
  latency sums) with active/idle timeout expiry and LRU eviction under
  pressure, all counted.
- :class:`~repro.flows.collector.FlowCollector` plus thin taps: the
  :class:`~repro.flows.collector.KernelFlowTap` subscribes to the
  kernel's tracer (socket delivery, rx-ring ingress, every counted
  drop); host fabric egress/ingress and the executor's
  :class:`~repro.fabric.network.FabricNetwork` links
  (:class:`~repro.flows.collector.FabricFlowTap`) fold directly.
- Pluggable sinks (:mod:`repro.flows.sink`): in-memory, JSONL, and a
  versioned SQLite store (:mod:`repro.flows.store`).
- An offline query layer (:mod:`repro.flows.query`): top-k flows,
  per-class latency/drop breakdowns, per-link utilization, cross-run
  diffs — ``python -m repro --flows-query ...``.

Determinism contract: collectors are per-host-cell (cells are always
one simulator per host) or executor-owned (the fabric), expiry runs at
the shard-window barriers whose horizon sequence is a pure function of
the config — so the merged record set is byte-identical at any shard
count and for in-process vs subprocess workers.  Export only observes:
measurement digests are equal with export on or off.
"""

from repro.flows.cache import FlowCache
from repro.flows.collector import FabricFlowTap, FlowCollector
from repro.flows.config import FlowExportConfig
from repro.flows.records import (
    FLOW_SCHEMA_VERSION,
    FlowRecord,
    flow_record_digest,
    merge_flow_blocks,
    normalize_records,
)
from repro.flows.sampler import FlowSampler
from repro.flows.sink import (
    JsonlSink,
    MemorySink,
    SqliteSink,
    export_flows,
    open_sink,
)
from repro.flows.store import FlowStore

__all__ = [
    "FLOW_SCHEMA_VERSION",
    "FabricFlowTap",
    "FlowCache",
    "FlowCollector",
    "FlowExportConfig",
    "FlowRecord",
    "FlowSampler",
    "FlowStore",
    "JsonlSink",
    "MemorySink",
    "SqliteSink",
    "export_flows",
    "flow_record_digest",
    "merge_flow_blocks",
    "normalize_records",
    "open_sink",
]
