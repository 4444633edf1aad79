"""Flow-export configuration.

:class:`FlowExportConfig` is the single spec object threaded through
``ExperimentConfig.flow_export`` / ``ClusterConfig.flow_export``.  Like
``FaultPlan`` and ``TopologySpec`` it is frozen and hashable (it rides
inside frozen configs and cache keys), and like them it is encoded by
:func:`repro.bench.digest.jsonable`.  Flow export only observes: measurement
digests hash no config and no flow records, so a run digests the same
with export on or off.
"""

import dataclasses

from repro.sim.units import MS


@dataclasses.dataclass(frozen=True)
class FlowExportConfig:
    """Sampling and cache policy for the flow-record pipeline.

    sample_rate
        1-in-N packet sampling at every enabled emit site.  ``1``
        samples every packet (tests); the canonical overhead budget is
        measured at ``64``.
    max_flows
        Bound on concurrently tracked flows per collector.  Folding
        into a full cache force-exports the least-recently-touched
        record first (reason ``evict``) — the NetFlow emergency-expiry
        analogue — and counts it.
    active_timeout_ns / idle_timeout_ns
        NetFlow-style expiry, evaluated at deterministic points
        (shard-window barriers and finalize): a record older than the
        active timeout is exported even while traffic continues (long
        flows become several records); one untouched for the idle
        timeout is exported as finished.
    """

    sample_rate: int = 64
    max_flows: int = 4096
    active_timeout_ns: int = 60 * MS
    idle_timeout_ns: int = 15 * MS

    def __post_init__(self):
        if self.sample_rate < 1:
            raise ValueError(f"sample_rate must be >= 1: {self.sample_rate}")
        if self.max_flows < 1:
            raise ValueError(f"max_flows must be >= 1: {self.max_flows}")
        if self.active_timeout_ns <= 0 or self.idle_timeout_ns <= 0:
            raise ValueError("flow timeouts must be positive")
