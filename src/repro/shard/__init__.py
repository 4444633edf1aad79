"""Space-parallel sharded simulation (conservative lookahead).

- :mod:`~repro.shard.cluster` — :class:`ClusterConfig` (an N-host
  scenario as a pure value) and :class:`ClusterResult` (the
  deterministic, shard-count-independent merge);
- :mod:`~repro.shard.hostcell` — one host as a self-contained
  simulation cell with cross-host flow plumbing;
- :mod:`~repro.shard.worker` — in-process and subprocess shard workers
  speaking the same split-phase step protocol;
- :mod:`~repro.shard.executor` — :func:`run_cluster`: the
  conservative-lookahead barrier loop, deterministic routing, merged
  results with exact cross-shard packet conservation.
"""

from repro.shard.cluster import ClusterConfig, cluster_digest
from repro.shard.executor import run_cluster
from repro.shard.hostcell import HostCell
from repro.shard.worker import partition_hosts

__all__ = [
    "ClusterConfig",
    "HostCell",
    "cluster_digest",
    "partition_hosts",
    "run_cluster",
]
