"""Declarative topology specs — the single source of truth for *where*
a cluster runs.

A :class:`TopologySpec` is a frozen, hashable value object
describing hosts, switches, links, per-host containers, and the ECMP
policy of the fabric a cluster runs on
(:class:`~repro.shard.cluster.ClusterConfig`,
``Scenario.cluster(...).topology(spec)``).  The two-host pair is not a
spec: it is ``ExperimentConfig.network`` plus the cost model's wire
fields.

Design rules:

- **Pure value.**  All collections are tuples, so specs hash, compare,
  pickle, and serve as ``functools.lru_cache`` keys (path enumeration
  caches on the spec itself).
- **No wire format of its own.**  A spec inside a cluster config is
  encoded by :func:`repro.bench.digest.jsonable` like every other
  config value, and nothing decodes it.

Build specs through the :class:`Topology` factory::

    Topology.fat_tree(k=4)           # 16 hosts, 20 switches, ECMP
    Topology.mesh(hosts=8)           # full mesh, single-hop links
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

__all__ = [
    "ContainerSpec",
    "HostSpec",
    "SwitchSpec",
    "LinkSpec",
    "EcmpSpec",
    "TopologySpec",
    "Topology",
]

#: Default per-hop link parameters for fabric topologies.
FABRIC_LINK_LATENCY_NS = 25_000
FABRIC_LINK_BYTES_PER_NS = 12.5
DEFAULT_FLOWLET_GAP_NS = 100_000


@dataclass(frozen=True)
class ContainerSpec:
    """One container placed on a host (name + overlay IP)."""

    name: str
    ip: str


@dataclass(frozen=True)
class HostSpec:
    """One physical host: id (dense, 0-based), name, uplink, placement."""

    id: int
    name: str
    #: Name of the switch this host uplinks to ("" = point-to-point
    #: topology with direct host-host links, e.g. a mesh).
    attach: str = ""
    containers: Tuple[ContainerSpec, ...] = ()


@dataclass(frozen=True)
class SwitchSpec:
    """One store-and-forward fabric switch."""

    name: str
    #: "tor" | "agg" | "core" (informational; routing is topological).
    tier: str = "tor"


@dataclass(frozen=True)
class LinkSpec:
    """One bidirectional link: two independent FIFO directions."""

    a: str
    b: str
    latency_ns: int = FABRIC_LINK_LATENCY_NS
    bytes_per_ns: float = FABRIC_LINK_BYTES_PER_NS


@dataclass(frozen=True)
class EcmpSpec:
    """ECMP + flowlet policy for multi-path topologies."""

    #: Mixed into the path hash alongside the run seed, so two specs can
    #: deliberately shuffle flows onto different paths.
    hash_salt: int = 0
    #: A flow idle for longer than this gap rehashes onto a (possibly)
    #: new equal-cost path — flowlet switching.
    flowlet_gap_ns: int = DEFAULT_FLOWLET_GAP_NS


@dataclass(frozen=True)
class TopologySpec:
    """A frozen, hashable description of hosts, fabric, and placement."""

    #: "mesh" | "fat-tree" (open set — the kind names the generator;
    #: consumers dispatch on structure).
    kind: str
    hosts: Tuple[HostSpec, ...]
    switches: Tuple[SwitchSpec, ...] = ()
    links: Tuple[LinkSpec, ...] = ()
    ecmp: EcmpSpec = field(default_factory=EcmpSpec)

    def __post_init__(self) -> None:
        if not self.kind:
            raise ValueError("topology kind must be non-empty")
        if len(self.hosts) < 2:
            raise ValueError("a topology needs at least 2 hosts")
        for i, host in enumerate(self.hosts):
            if host.id != i:
                raise ValueError(
                    f"host ids must be dense and ordered: "
                    f"hosts[{i}].id == {host.id}")
        names = ([h.name for h in self.hosts]
                 + [s.name for s in self.switches])
        if len(set(names)) != len(names):
            raise ValueError("host/switch names must be unique")
        nodes = set(names)
        for link in self.links:
            if link.a not in nodes or link.b not in nodes:
                raise ValueError(f"link {link.a}<->{link.b} references "
                                 f"an unknown node")
            if link.a == link.b:
                raise ValueError(f"self-link on {link.a}")
            if link.latency_ns <= 0 or link.bytes_per_ns <= 0:
                raise ValueError(f"link {link.a}<->{link.b} needs positive "
                                 f"latency and bandwidth")
        for host in self.hosts:
            if host.attach and host.attach not in nodes:
                raise ValueError(f"host {host.name} attaches to unknown "
                                 f"switch {host.attach!r}")
            ips = [c.ip for c in host.containers]
            if len(set(ips)) != len(ips):
                raise ValueError(f"host {host.name}: duplicate container IPs")
        if self.ecmp.flowlet_gap_ns <= 0:
            raise ValueError("flowlet_gap_ns must be positive")

    # ------------------------------------------------------------------
    @property
    def host_count(self) -> int:
        return len(self.hosts)


class Topology:
    """Factory for canonical :class:`TopologySpec` values."""

    @staticmethod
    def fat_tree(k: int = 4, *, hosts: Optional[int] = None,
                 containers_per_host: int = 2,
                 link_latency_ns: int = FABRIC_LINK_LATENCY_NS,
                 bytes_per_ns: float = FABRIC_LINK_BYTES_PER_NS,
                 flowlet_gap_ns: int = DEFAULT_FLOWLET_GAP_NS,
                 hash_salt: int = 0) -> TopologySpec:
        """A k-ary fat-tree (k pods x k/2 ToR + k/2 agg, (k/2)^2 cores).

        Full capacity is ``k^3/4`` hosts; *hosts* truncates to the first
        N (switch fabric stays complete, so equal-cost path counts are
        unchanged).  Every host carries *containers_per_host* service
        containers — the first is the high-priority service, the second
        the low-priority one.
        """
        from repro.fabric.fattree import build_fat_tree  # avoid cycle

        return build_fat_tree(
            k, hosts=hosts, containers_per_host=containers_per_host,
            link_latency_ns=link_latency_ns, bytes_per_ns=bytes_per_ns,
            flowlet_gap_ns=flowlet_gap_ns, hash_salt=hash_salt)

    @staticmethod
    def mesh(hosts: int, *, latency_ns: int = 50_000,
             bytes_per_ns: float = 12.5) -> TopologySpec:
        """A full mesh of direct host-host links (no switches, exactly
        one path per pair) — the default fabric of a
        :class:`~repro.shard.cluster.ClusterConfig`.  Mesh hosts carry
        no containers, so each cluster host serves from one ``srv``
        container.
        """
        if hosts < 2:
            raise ValueError("a mesh needs at least 2 hosts")
        host_specs = tuple(HostSpec(i, f"h{i}") for i in range(hosts))
        links = tuple(
            LinkSpec(f"h{i}", f"h{j}", latency_ns=latency_ns,
                     bytes_per_ns=bytes_per_ns)
            for i in range(hosts) for j in range(i + 1, hosts))
        return TopologySpec(kind="mesh", hosts=host_specs, links=links)
