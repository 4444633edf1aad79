"""repro.fabric — declarative topologies and the simulated multi-hop
datacenter fabric (fat-tree, ECMP, flowlet switching).

Public surface:

- :class:`~repro.fabric.spec.TopologySpec` and the :class:`Topology`
  factory (``fat_tree`` / ``mesh``) — the frozen single
  source of truth for where a cluster runs;
- :class:`~repro.fabric.network.FabricNetwork` — the executable
  store-and-forward fabric the sharded executor routes through;
- :func:`~repro.fabric.network.min_path_latency_ns` — the conservative
  lookahead horizon a spec implies.

The priority-survival experiment helper lives in
:mod:`repro.fabric.experiment` (imported lazily by its users — it pulls
in :mod:`repro.shard`, which itself consumes specs from here).
"""

from repro.fabric.ecmp import ecmp_index
from repro.fabric.fattree import fat_tree_capacity
from repro.fabric.network import (
    FabricNetwork,
    equal_cost_paths,
    min_path_latency_ns,
)
from repro.fabric.spec import (
    ContainerSpec,
    HostSpec,
    LinkSpec,
    Topology,
    TopologySpec,
)

__all__ = [
    "ContainerSpec",
    "FabricNetwork",
    "HostSpec",
    "LinkSpec",
    "Topology",
    "TopologySpec",
    "ecmp_index",
    "equal_cost_paths",
    "fat_tree_capacity",
    "min_path_latency_ns",
]
