"""Cluster scenario description and merged result (space-parallel runs).

A :class:`ClusterConfig` describes an N-host scenario: every host runs a
fully simulated server (the same kernel/stack under test as the
two-machine testbed) *and* originates aggregated closed-loop client
populations toward every other host, split into a high-priority ("hi")
and a low-priority ("lo") flow class.  Hosts are connected by the
fabric a :class:`~repro.fabric.spec.TopologySpec` describes (a full
mesh of direct links by default), transited hop by hop by
:class:`~repro.fabric.network.FabricNetwork`; the spec's minimum path
latency is the conservative lookahead horizon for the sharded executor.

:class:`ClusterResult` is the deterministic merge of all per-host
results.  Its digest hashes the measurements only — per-host results,
merged latency, per-class totals, fabric conservation and fabric
statistics — never the config or anything that depends on *how* the run
was executed (shard count, process placement, wall-clock timings):
equal digests ⇔ identical simulation outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.bench.digest import jsonable, measurement_digest
from repro.fabric.network import min_path_latency_ns
from repro.fabric.spec import Topology, TopologySpec
from repro.faults.plan import FaultPlan
from repro.prism.mode import StackMode
from repro.sim.units import MS

if TYPE_CHECKING:  # pragma: no cover
    from repro.flows.config import FlowExportConfig

__all__ = ["ClusterConfig", "ClusterResult", "cluster_digest"]

#: Fabric-level framing overhead for a cross-host overlay datagram
#: (outer+inner Ethernet/IP/UDP plus VXLAN), used for serialization
#: timing on the inter-host fabric.
CROSS_HEADER_BYTES = 90

#: What :func:`cluster_digest` hashes.
CLUSTER_MEASUREMENTS = ("hosts", "fg_latency", "totals", "conservation",
                        "fabric")


@dataclass(frozen=True)
class ClusterConfig:
    """One N-host cluster scenario (pure value, picklable)."""

    hosts: int = 4
    #: Total aggregated users across every (src, dst, class) flow.
    users: int = 2_000
    #: Fraction of users in the high-priority class.
    hi_fraction: float = 0.25
    #: Closed-loop think time between a user's reply and next request.
    think_ns: int = 2 * MS
    #: Request timeout: the user gives up and its credit is reclaimed.
    timeout_ns: int = 20 * MS
    payload_len: int = 16
    lo_payload_len: int = 32
    duration_ns: int = 12 * MS
    warmup_ns: int = 3 * MS
    seed: int = 0
    mode: StackMode = StackMode.VANILLA
    #: Per-host local one-way background flood (0 disables it).
    local_bg_pps: float = 0.0
    faults: Optional[FaultPlan] = None
    #: The fabric spec cross-host packets route through (a
    #: :class:`~repro.fabric.network.FabricNetwork`: per-link FIFO
    #: serialization, ECMP + flowlets where paths fan out).  ``None``
    #: means ``Topology.mesh(hosts)``, filled in at construction, so the
    #: field is never ``None`` afterwards.  The spec's minimum path
    #: latency is the lookahead horizon.
    topology: Optional[TopologySpec] = None
    #: Optional sampled flow-record export
    #: (:class:`repro.flows.FlowExportConfig`).  ``None`` (the default)
    #: leaves every hook a single attribute check.  When set, per-host
    #: collectors
    #: plus an executor-owned fabric collector sample 1-in-N packets
    #: into :class:`~repro.flows.records.FlowRecord` sets merged onto
    #: :attr:`ClusterResult.flows`.
    flow_export: Optional[FlowExportConfig] = None

    def __post_init__(self) -> None:
        if self.hosts < 2:
            raise ValueError("a cluster needs at least 2 hosts")
        if self.users < 1:
            raise ValueError("users must be positive")
        if not (0.0 <= self.hi_fraction <= 1.0):
            raise ValueError("hi_fraction must be in [0, 1]")
        if self.topology is None:
            object.__setattr__(self, "topology", Topology.mesh(self.hosts))
        if self.topology.host_count != self.hosts:
            raise ValueError(
                f"topology describes {self.topology.host_count} hosts "
                f"but the cluster has {self.hosts}")

    @property
    def end_ns(self) -> int:
        return self.warmup_ns + self.duration_ns

    @property
    def lookahead_ns(self) -> int:
        """The conservative lookahead horizon this cluster's fabric
        guarantees: no cross-host packet arrives sooner than this after
        departing."""
        return min_path_latency_ns(self.topology)

    # ------------------------------------------------------------------
    # Deterministic user placement
    # ------------------------------------------------------------------
    def flows(self) -> List[Tuple[int, int]]:
        """Every ordered (src, dst) host pair, lexicographic."""
        return [(s, d) for s in range(self.hosts)
                for d in range(self.hosts) if d != s]

    def flow_users(self) -> Dict[Tuple[int, int, str], int]:
        """Users per (src, dst, class) flow — a pure function of the
        config, so every shard places the same users everywhere."""
        flows = self.flows()
        hi_total = int(self.users * self.hi_fraction)
        lo_total = self.users - hi_total
        placement: Dict[Tuple[int, int, str], int] = {}
        for cls, total in (("hi", hi_total), ("lo", lo_total)):
            base, rem = divmod(total, len(flows))
            for i, (src, dst) in enumerate(flows):
                placement[(src, dst, cls)] = base + (1 if i < rem else 0)
        return placement


@dataclass
class ClusterResult:
    """The deterministic merge of every host's measurements.

    The digest covers :data:`CLUSTER_MEASUREMENTS`.  ``config`` is left
    out (it describes the run, it was not measured), and ``shards`` and
    ``timing`` describe *how* the run executed — a 1-shard and an
    8-shard run of the same config must hash identically.
    """

    config: ClusterConfig
    #: Per-host result dicts, sorted by host id.
    hosts: List[Dict[str, Any]]
    #: Merged hi-class latency summary (all hosts' samples pooled).
    fg_latency: Optional[Any]
    #: Cluster-wide per-class ledger totals.
    totals: Dict[str, Dict[str, int]]
    #: Cross-shard fabric conservation accounting (exact).
    conservation: Dict[str, Any]
    #: Fabric statistics (ECMP spread, flowlet switches, per-link
    #: counts).  Deterministic, so it is digested.
    fabric: Dict[str, Any]
    #: Merged sampled flow records (``None`` unless the config enabled
    #: :attr:`ClusterConfig.flow_export`).  Excluded from the digest:
    #: flow records are *derived* observability data whose own
    #: shard-independence is pinned by a separate record digest
    #: (``flows["record_digest"]``) and the determinism tests.
    flows: Optional[Dict[str, Any]] = None
    #: Execution shape — excluded from the digest.
    shards: int = 1
    timing: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        out = {name: jsonable(getattr(self, name))
               for name in ("config", *CLUSTER_MEASUREMENTS, "shards",
                            "timing")}
        out["digest"] = cluster_digest(self)
        # Flow summary only — counters and the record digest; the full
        # record list goes to a sink, not into run reports.
        out["flows"] = None if self.flows is None else {
            key: jsonable(value) for key, value in self.flows.items()
            if key != "records"}
        return out


def cluster_digest(result: ClusterResult) -> str:
    """Measurement digest — equal ⇔ identical merged simulation outcome."""
    return measurement_digest({name: getattr(result, name)
                               for name in CLUSTER_MEASUREMENTS})
