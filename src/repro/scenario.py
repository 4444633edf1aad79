"""The Scenario API — one fluent entry point for every experiment.

Benches, examples, and the CLI all build their workloads through
:class:`Scenario` instead of spelling out raw
:class:`~repro.bench.experiment.ExperimentConfig` fields::

    from repro.scenario import Scenario

    result = (Scenario(mode="prism-sync", network="overlay")
              .foreground("pingpong", rate_pps=1_000)
              .background(rate_pps=300_000)
              .timing(duration_ns=300 * MS, warmup_ns=60 * MS)
              .run())

    traced = Scenario(mode="vanilla").background(rate_pps=300_000).run_traced()
    traced.write_chrome("out.json")          # load in Perfetto
    traced.write_folded("out.folded")        # flamegraph input
    print(traced.render_breakdowns())        # Fig. 4, one table per socket

A Scenario is **immutable**: every fluent call returns a new one, so
partial scenarios can be shared and forked freely (sweeps, mode
comparisons).  :meth:`build` produces the underlying frozen
``ExperimentConfig`` — equal to one constructed directly, so the disk
cache keys (which hash the config) do not depend on which API built it.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Iterable, List, Optional, Union

from repro.bench.experiment import (
    APP_KINDS,
    FG_KINDS,
    ExperimentConfig,
    ExperimentResult,
    TracedExperiment,
    run_experiment,
    run_traced_experiment,
)
from repro.fabric.spec import Topology, TopologySpec
from repro.faults import FaultPlan
from repro.kernel.config import KernelConfig
from repro.kernel.costs import CostModel
from repro.prism.mode import StackMode

if TYPE_CHECKING:  # pragma: no cover
    from pathlib import Path

    from repro.flows.config import FlowExportConfig

__all__ = ["Scenario", "ClusterScenario", "Topology", "run_scenarios"]


def _flow_config(sample_rate: int, *, max_flows: Optional[int],
                 active_timeout_ns: Optional[int],
                 idle_timeout_ns: Optional[int],
                 config: Optional[FlowExportConfig]
                 ) -> Optional[FlowExportConfig]:
    """Resolve the ``with_flows`` knobs into a FlowExportConfig.

    ``config=`` wins when given (other knobs then must be absent);
    ``sample_rate=0`` disables export and returns ``None``.
    """
    knobs: dict = {}
    if max_flows is not None:
        knobs["max_flows"] = int(max_flows)
    if active_timeout_ns is not None:
        knobs["active_timeout_ns"] = int(active_timeout_ns)
    if idle_timeout_ns is not None:
        knobs["idle_timeout_ns"] = int(idle_timeout_ns)
    if config is not None:
        if knobs:
            raise TypeError("with_flows() takes either config= or "
                            f"individual knobs, not both: {sorted(knobs)}")
        return config
    if not sample_rate:
        if knobs:
            raise TypeError("with_flows(sample_rate=0) disables export; "
                            f"knobs make no sense: {sorted(knobs)}")
        return None
    from repro.flows.config import FlowExportConfig

    return FlowExportConfig(sample_rate=int(sample_rate), **knobs)


class Scenario:
    """A fluent, immutable builder for one experiment scenario."""

    __slots__ = ("_config",)

    def __init__(self, mode: Union[StackMode, str] = StackMode.VANILLA, *,
                 network: str = "overlay", seed: int = 1,
                 config: Optional[ExperimentConfig] = None) -> None:
        if config is not None:
            self._config = config
            return
        if isinstance(mode, str):
            mode = StackMode.parse(mode)
        if network not in ("overlay", "host"):
            raise ValueError(f"unknown network type {network!r}; "
                             "expected 'overlay' or 'host'")
        self._config = ExperimentConfig(mode=mode, network=network, seed=seed)

    def _replace(self, **changes: object) -> "Scenario":
        return Scenario(config=dataclasses.replace(self._config, **changes))

    # ------------------------------------------------------------------
    # Workload
    # ------------------------------------------------------------------
    def foreground(self, kind: str = "pingpong", *,
                   rate_pps: Optional[float] = None,
                   payload_len: Optional[int] = None,
                   high_priority: Optional[bool] = None) -> "Scenario":
        """Configure the measured flow: sockperf 'pingpong' (latency) or
        'flood' (throughput), or the 'memcached' (memaslap, Fig. 12) or
        'web' (nginx/wrk2, Fig. 13) application, which set their own
        request pattern and so take no *rate_pps* or *payload_len*."""
        if kind not in FG_KINDS:
            raise ValueError(f"unknown foreground kind {kind!r}; "
                             f"expected one of {FG_KINDS}")
        if kind in APP_KINDS and (rate_pps, payload_len) != (None, None):
            raise ValueError(f"foreground {kind!r} sets its own request "
                             "pattern; it takes no rate_pps or payload_len")
        changes: dict = {"fg_kind": kind}
        if rate_pps is not None:
            changes["fg_rate_pps"] = float(rate_pps)
        if payload_len is not None:
            changes["fg_payload_len"] = int(payload_len)
        if high_priority is not None:
            changes["fg_high_priority"] = bool(high_priority)
        return self._replace(**changes)

    def background(self, rate_pps: float, *,
                   payload_len: Optional[int] = None,
                   burst: Optional[int] = None) -> "Scenario":
        """Add the low-priority flood competing for the packet core: UDP,
        or behind a 'web' foreground a TCP flood of *rate_pps*
        messages/s, each *payload_len* bytes."""
        changes: dict = {"bg_rate_pps": float(rate_pps)}
        if payload_len is not None:
            changes["bg_payload_len"] = int(payload_len)
        if burst is not None:
            changes["bg_burst"] = int(burst)
        return self._replace(**changes)

    # ------------------------------------------------------------------
    # Simulation shape
    # ------------------------------------------------------------------
    def timing(self, *, duration_ns: Optional[int] = None,
               warmup_ns: Optional[int] = None,
               seed: Optional[int] = None) -> "Scenario":
        """Set the measurement window, warm-up, and/or RNG seed."""
        changes: dict = {}
        if duration_ns is not None:
            changes["duration_ns"] = int(duration_ns)
        if warmup_ns is not None:
            changes["warmup_ns"] = int(warmup_ns)
        if seed is not None:
            changes["seed"] = int(seed)
        return self._replace(**changes) if changes else self

    def seed(self, seed: int) -> "Scenario":
        """Set the RNG seed (shorthand for ``timing(seed=...)``)."""
        return self._replace(seed=int(seed))

    def mode(self, mode: Union[StackMode, str]) -> "Scenario":
        """Switch the stack mode (accepts a StackMode or its name)."""
        if isinstance(mode, str):
            mode = StackMode.parse(mode)
        return self._replace(mode=mode)

    def kernel(self, **knobs: object) -> "Scenario":
        """Override :class:`~repro.kernel.config.KernelConfig` tunables
        (``napi_weight=``, ``napi_budget=``, ``gro_enabled=``, …).
        Unknown names raise TypeError."""
        base = self._config.kernel_config or KernelConfig()
        return self._replace(kernel_config=base.replace(**knobs))

    def costs(self, **knobs: object) -> "Scenario":
        """Override :class:`~repro.kernel.costs.CostModel` parameters.
        Unknown names raise TypeError."""
        base = self._config.costs or CostModel()
        return self._replace(costs=base.replace(**knobs))

    def with_faults(self,
                    plan: Union["FaultPlan", str, None]) -> "Scenario":
        """Attach a fault-injection plan (and its loss recovery).

        Accepts a :class:`~repro.faults.plan.FaultPlan`, a compact spec
        string (``"burst@80ms x2; loss:eth:0.01; retries=5"`` — see
        :meth:`FaultPlan.parse`), or ``None`` to return to the loss-free
        configuration."""
        if isinstance(plan, str):
            plan = FaultPlan.parse(plan)
        return self._replace(faults=plan)

    def with_flows(self, sample_rate: int = 64, *,
                   max_flows: Optional[int] = None,
                   active_timeout_ns: Optional[int] = None,
                   idle_timeout_ns: Optional[int] = None,
                   config: Optional[FlowExportConfig] = None) -> "Scenario":
        """Enable sampled flow-record export (1-in-``sample_rate``).

        The result gains a ``flows`` block (record set + counters) ready
        for :func:`repro.flows.export_flows`; the simulation outcome is
        pinned identical to an export-free run.  Pass an explicit
        ``config=`` to reuse a prebuilt
        :class:`~repro.flows.FlowExportConfig`, or ``sample_rate=0`` /
        ``config=None`` with no other knobs to disable again.
        """
        return self._replace(flow_export=_flow_config(
            sample_rate, max_flows=max_flows,
            active_timeout_ns=active_timeout_ns,
            idle_timeout_ns=idle_timeout_ns, config=config))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def build(self) -> ExperimentConfig:
        """The frozen config this scenario describes."""
        return self._config

    def run(self) -> ExperimentResult:
        """Run the scenario in-process and return its measurements."""
        return run_experiment(self._config)

    def run_traced(self) -> TracedExperiment:
        """Run once with the observability layer attached: spans,
        gauges, the Fig. 4 breakdown per receiving socket, the metrics
        snapshot and the span profile, exported by the result's
        ``write_chrome`` / ``write_openmetrics`` / ``write_metrics_json``
        / ``write_folded`` / ``write_speedscope``.  Measurements are
        pinned identical to a plain :meth:`run`."""
        return run_traced_experiment(self._config)

    # ------------------------------------------------------------------
    # Cluster scenarios
    # ------------------------------------------------------------------
    @staticmethod
    def cluster(hosts: int = 4, **knobs: object) -> "ClusterScenario":
        """An N-host space-parallel cluster scenario (sharded execution).

        Returns a :class:`ClusterScenario`; knobs forward to its
        constructor (``users=``, ``mode=``, ``seed=``, …)::

            result = (Scenario.cluster(hosts=16)
                      .users(100_000, hi_fraction=0.25)
                      .shards(4)
                      .run())
        """
        return ClusterScenario(hosts, **knobs)

    # ------------------------------------------------------------------
    def label(self) -> str:
        return self._config.label()

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Scenario)
                and self._config == other._config)

    def __hash__(self) -> int:
        return hash(self._config)

    def __repr__(self) -> str:
        return f"Scenario({self._config!r})"


class ClusterScenario:
    """A fluent, immutable builder for an N-host sharded cluster run.

    Wraps :class:`~repro.shard.cluster.ClusterConfig` the way
    :class:`Scenario` wraps ``ExperimentConfig``.  The shard count is
    *execution shape*, not scenario identity: it is carried alongside
    the config and never changes the result digest.
    """

    __slots__ = ("_config", "_shards")

    def __init__(self, hosts: int = 4, *,
                 mode: Union[StackMode, str] = StackMode.VANILLA,
                 seed: int = 0, config: object = None,
                 shards: int = 1, **knobs: object) -> None:
        from repro.shard.cluster import ClusterConfig  # local, avoids cycle

        self._shards = int(shards)
        if config is not None:
            self._config = config
            return
        if isinstance(mode, str):
            mode = StackMode.parse(mode)
        self._config = ClusterConfig(hosts=hosts, mode=mode, seed=seed,
                                     **knobs)

    def _replace(self, **changes: object) -> "ClusterScenario":
        return ClusterScenario(
            config=dataclasses.replace(self._config, **changes),
            shards=self._shards)

    def users(self, users: int, *,
              hi_fraction: Optional[float] = None,
              think_ns: Optional[int] = None,
              timeout_ns: Optional[int] = None) -> "ClusterScenario":
        """Set the aggregated closed-loop population and its behavior."""
        changes: dict = {"users": int(users)}
        if hi_fraction is not None:
            changes["hi_fraction"] = float(hi_fraction)
        if think_ns is not None:
            changes["think_ns"] = int(think_ns)
        if timeout_ns is not None:
            changes["timeout_ns"] = int(timeout_ns)
        return self._replace(**changes)

    def timing(self, *, duration_ns: Optional[int] = None,
               warmup_ns: Optional[int] = None,
               seed: Optional[int] = None) -> "ClusterScenario":
        changes: dict = {}
        if duration_ns is not None:
            changes["duration_ns"] = int(duration_ns)
        if warmup_ns is not None:
            changes["warmup_ns"] = int(warmup_ns)
        if seed is not None:
            changes["seed"] = int(seed)
        return self._replace(**changes) if changes else self

    def mode(self, mode: Union[StackMode, str]) -> "ClusterScenario":
        if isinstance(mode, str):
            mode = StackMode.parse(mode)
        return self._replace(mode=mode)

    def background(self, rate_pps: float) -> "ClusterScenario":
        """Per-host local one-way background flood."""
        return self._replace(local_bg_pps=float(rate_pps))

    def topology(self, spec: Optional[TopologySpec]) -> "ClusterScenario":
        """Route cross-host traffic over an explicit fabric spec (host
        count follows the spec); ``None`` returns to the default
        ``Topology.mesh(hosts)``."""
        hosts = self._config.hosts if spec is None else spec.host_count
        return self._replace(topology=spec, hosts=hosts)

    def with_faults(self,
                    plan: Union["FaultPlan", str, None]) -> "ClusterScenario":
        if isinstance(plan, str):
            plan = FaultPlan.parse(plan)
        return self._replace(faults=plan)

    def with_flows(self, sample_rate: int = 64, *,
                   max_flows: Optional[int] = None,
                   active_timeout_ns: Optional[int] = None,
                   idle_timeout_ns: Optional[int] = None,
                   config: Optional[FlowExportConfig] = None
                   ) -> "ClusterScenario":
        """Enable sampled flow-record export on every host collector
        plus the fabric's link collector.  See
        :meth:`Scenario.with_flows`; the merged record set is pinned
        identical at every shard count."""
        return self._replace(flow_export=_flow_config(
            sample_rate, max_flows=max_flows,
            active_timeout_ns=active_timeout_ns,
            idle_timeout_ns=idle_timeout_ns, config=config))

    def shards(self, shards: int) -> "ClusterScenario":
        """How many worker processes to partition the hosts across."""
        out = ClusterScenario(config=self._config, shards=int(shards))
        return out

    def build(self):
        """The frozen :class:`ClusterConfig` this scenario describes."""
        return self._config

    def run(self, *, processes: Optional[bool] = None):
        """Run across the configured shards; returns a
        :class:`~repro.shard.cluster.ClusterResult`."""
        from repro.shard.executor import run_cluster  # local, avoids cycle

        return run_cluster(self._config, shards=self._shards,
                           processes=processes)

    def __repr__(self) -> str:
        return f"ClusterScenario({self._config!r}, shards={self._shards})"


def run_scenarios(scenarios: Iterable[Union[Scenario, ExperimentConfig]], *,
                  jobs: int = 1, cache: bool = False,
                  cache_dir: Optional["Path"] = None
                  ) -> List[ExperimentResult]:
    """Run many scenarios with fan-out and memoization.

    Accepts Scenario objects or raw configs; delegates to
    :func:`repro.bench.runner.run_experiments`.
    """
    from repro.bench.runner import run_experiments  # local, avoids cycle

    configs = [s.build() if isinstance(s, Scenario) else s for s in scenarios]
    return run_experiments(configs, jobs=jobs, cache=cache,
                           cache_dir=cache_dir)
