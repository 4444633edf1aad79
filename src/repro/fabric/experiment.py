"""Priority survival under cross-host ECMP contention.

The canonical fat-tree cluster cell: every host both serving and
originating hi/lo flow classes toward every other host, paths spread by
ECMP with flowlet switching.  Run once per stack mode, it asks the
paper's question scaled out: does high-priority latency *survive* when
the contention is no longer a single shared wire but a multi-hop fabric
where hi and lo flowlets collide on ToR/agg/core links?

Kept out of ``repro.fabric.__init__`` on purpose: this module imports
:mod:`repro.shard`, which imports the fabric package — pulling it into
the package root would create an import cycle.
"""

from __future__ import annotations

from repro.fabric.spec import Topology
from repro.prism.mode import StackMode
from repro.shard.cluster import ClusterConfig
from repro.sim.units import MS

__all__ = ["priority_survival_config"]


def priority_survival_config(mode: StackMode, *, k: int = 4,
                             hosts: int = 8, users: int = 4_000,
                             duration_ns: int = 8 * MS,
                             seed: int = 0,
                             flowlet_gap_ns: int = 100_000,
                             local_bg_pps: float = 0.0) -> ClusterConfig:
    """The canonical fat-tree contention cell for one stack mode."""
    spec = Topology.fat_tree(k, hosts=hosts,
                             flowlet_gap_ns=flowlet_gap_ns)
    return ClusterConfig(
        hosts=hosts,
        users=users,
        duration_ns=duration_ns,
        warmup_ns=duration_ns // 4,
        seed=seed,
        mode=mode,
        local_bg_pps=local_bg_pps,
        topology=spec)
