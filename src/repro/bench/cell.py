"""One experiment as a steppable *cell* — build / advance / finalize.

Historically :func:`repro.bench.experiment.run_experiment` built the
testbed, ran the simulation to the end, and collected measurements in a
single function.  The space-parallel sharded executor needs those three
phases separated: each simulated host's cell is **built** in its worker
process, **advanced** window-by-window to conservative-lookahead
horizons (exchanging cross-host packets at the barriers in between), and
**finalized** into an :class:`~repro.bench.experiment.ExperimentResult`
only after the last window.

:class:`ExperimentCell` is that separation.  ``run_experiment`` is now a
thin wrapper (build → run_to(end) → finalize), and the windowed path
measures exactly what the monolithic one does because
:meth:`~repro.sim.engine.Simulator.run_window` never reorders or drops
occurrences — the golden-digest tests pin both.

The workload setup helpers themselves remain in
:mod:`repro.bench.experiment` (tests monkeypatch them there); the cell
late-binds through the module so those patches keep working.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Optional

from repro.bench.testbed import Testbed, build_testbed
from repro.faults.recovery import merge_recovery
from repro.metrics.recorder import CpuUtilizationSampler, LatencyRecorder

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.injector import FaultInjector
    from repro.flows.collector import FlowCollector

__all__ = ["ExperimentCell"]


class ExperimentCell:
    """One scenario, built and ready to advance to arbitrary horizons.

    Construction performs everything :func:`run_experiment` used to do
    before the simulation started — testbed, fault injector, observer
    attach hook, workload setup, CPU sampler — in the exact same order,
    so a cell driven straight to the end produces an identical
    :class:`ExperimentResult`.

    *attach* runs once the testbed exists, before the workload is set
    up (observers subscribe to the server kernel's tracer there).

    The cell owns the warmup bookkeeping: :meth:`run_to` marks the CPU
    sampler precisely at the warmup boundary the first time a horizon
    crosses it, no matter how the windows fall.
    """

    def __init__(self, config, *,
                 attach: Optional[Callable[[Testbed], Any]] = None) -> None:
        # Late import: experiment.py imports this module at load time.
        from repro.bench import experiment as _experiment

        if config.network not in ("overlay", "host"):
            raise ValueError(f"unknown network type {config.network!r}")
        if config.fg_kind not in _experiment.FG_KINDS:
            raise ValueError(f"unknown foreground kind {config.fg_kind!r}; "
                             f"expected one of {_experiment.FG_KINDS}")
        if (config.network == "host"
                and config.fg_kind in _experiment.APP_KINDS):
            raise ValueError(f"foreground kind {config.fg_kind!r} runs on "
                             "the overlay only")
        if config.network == "host" and config.faults is not None:
            # The host ping client has no retry tracker: its lost pings
            # would vanish from the samples instead of being retried.
            raise ValueError("a fault plan needs network='overlay': loss "
                             "recovery runs only on the overlay")
        for name in _experiment.APP_FIXED_FIELDS.get(config.fg_kind, ()):
            default = getattr(_experiment.ExperimentConfig, name)
            if getattr(config, name) != default:
                raise ValueError(
                    f"{name}={getattr(config, name)!r}: foreground kind "
                    f"{config.fg_kind!r} does not use it (leave it at "
                    f"{default!r})")
        self.config = config
        self.testbed = build_testbed(seed=config.seed, costs=config.costs,
                                     config=config.kernel_config,
                                     mode=config.mode)
        self.injector: Optional[FaultInjector] = None
        if config.faults is not None:
            from repro.faults.injector import FaultInjector
            self.injector = FaultInjector(config.faults,
                                          self.testbed).install()
        if attach is not None:
            attach(self.testbed)
        self.sim = self.testbed.sim
        self.recorder = LatencyRecorder("fg", warmup_until_ns=config.warmup_ns)

        self.fg_client = None
        self.counters: Optional[Dict[str, int]] = None
        if config.network == "overlay":
            self.fg_meter, self.bg_meter, self.fg_client = (
                _experiment._overlay_setup(self.testbed, config,
                                           self.recorder))
        else:
            self.fg_meter, self.bg_meter, self.counters = (
                _experiment._host_network_setup(self.testbed, config,
                                                self.recorder))

        packet_core = self.testbed.server.kernel.cpu(0)
        self.sampler = CpuUtilizationSampler(packet_core,
                                             lambda: self.sim.now)
        self.flows: Optional[FlowCollector] = None
        if config.flow_export is not None:
            # Sampled flow export: the tap folds 1-in-N packets from the
            # kernel's tracepoints; it never schedules events or touches
            # the RNG, so the measurements are identical with export on
            # or off.
            from repro.flows.collector import FlowCollector, KernelFlowTap
            self.flows = FlowCollector(config.flow_export, scope="server",
                                       seed=config.seed)
            KernelFlowTap(self.flows, self.testbed.server.kernel)
        self._marked = False

    @property
    def end_ns(self) -> int:
        """The virtual time at which the measurement window closes."""
        return self.config.warmup_ns + self.config.duration_ns

    def run_to(self, horizon: int) -> int:
        """Advance to *horizon*, marking warmup exactly when crossed.

        Returns the number of occurrences processed (idle windows are
        nearly free).  Safe to call with horizons past :attr:`end_ns` —
        the cluster executor keeps every cell on the global barrier
        clock even when cells have different measurement windows.
        """
        sim = self.sim
        processed = 0
        warmup = self.config.warmup_ns
        if not self._marked and horizon >= warmup:
            processed += sim.run_window(warmup)
            self.sampler.mark()
            self._marked = True
        processed += sim.run_window(horizon)
        if self.flows is not None:
            # Horizon-aligned expiry on the sim clock: the horizon
            # sequence is deterministic, so record boundaries are too.
            self.flows.expire(horizon)
        return processed

    def finalize(self) -> Any:
        """Collect the measurements (call once, after the last window)."""
        from repro.bench.experiment import ExperimentResult

        config = self.config
        window = config.duration_ns
        # Select the counter source by network type: host runs count in the
        # local `counters` dict, overlay runs in the foreground client
        # (requests sent, replies matched).  (Selecting by truthiness would
        # silently fall through on a host run that legitimately sent zero
        # packets.)
        if config.network == "host":
            fg_sent = self.counters["fg_sent"]
            fg_replies = self.counters["fg_replies"]
        else:
            fg_sent = self.fg_client.sent
            fg_replies = self.fg_client.replies
        result = ExperimentResult(
            config=config,
            fg_latency=self.recorder.summary(),
            fg_samples_ns=list(self.recorder.samples_ns),
            fg_sent=fg_sent,
            fg_replies=fg_replies,
            fg_delivered_pps=self.fg_meter.count * 1e9 / window,
            bg_delivered_pps=self.bg_meter.count * 1e9 / window,
            cpu_utilization=self.sampler.utilization(),
            softirq_fraction=self.sampler.softirq_fraction(),
            drops=dict(self.testbed.server.kernel.drops),
        )
        if self.flows is not None:
            from repro.flows.records import merge_flow_blocks
            result.flows = merge_flow_blocks(
                [self.flows.finalize()],
                sample_rate=config.flow_export.sample_rate)
        if self.injector is not None:
            result.fault_summary = self.injector.summary()
            result.conservation = self.injector.conservation_report()
            stats = []
            recovery = getattr(self.fg_client, "recovery", None)
            if recovery is not None:
                stats.append(recovery)
            totals: Dict[str, Any] = merge_recovery(stats)
            totals["clients"] = [s.to_dict() for s in stats]
            result.recovery = totals
        return result
