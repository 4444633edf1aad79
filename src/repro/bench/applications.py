"""Application benchmark runners (paper Figs. 12 and 13).

- :func:`run_memcached_benchmark` — memaslap against a containerized
  memcached server, optionally with a low-priority sockperf UDP flood
  (Fig. 12: idle/busy x vanilla/PRISM-sync);
- :func:`run_webserver_benchmark` — wrk2 against a containerized nginx,
  with a low-priority sockperf **TCP** flood of 64 KB messages (Fig. 13),
  exercising TSO fragmentation on the sender and GRO coalescing in the
  receiver's gro_cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.apps.memcached import MemaslapClient, MemcachedServer
from repro.apps.sockperf import SockperfTcpFlood, SockperfUdpFlood, SockperfUdpServer
from repro.apps.webserver import NginxServer, Wrk2Client
from repro.bench.testbed import build_testbed
from repro.faults import FaultPlan, merge_recovery
from repro.faults.injector import FaultInjector
from repro.kernel.config import KernelConfig
from repro.kernel.costs import CostModel
from repro.metrics.recorder import CpuUtilizationSampler, LatencyRecorder
from repro.metrics.stats import LatencySummary
from repro.prism.mode import StackMode
from repro.sim.units import MS

__all__ = ["AppBenchConfig", "AppBenchResult",
           "run_memcached_benchmark", "run_webserver_benchmark"]

BG_PORT = 12222


@dataclass(frozen=True)
class AppBenchConfig:
    """One application benchmark scenario."""

    mode: StackMode = StackMode.VANILLA
    busy: bool = True
    #: Background: UDP flood for memcached (pps), TCP flood for web
    #: (messages/s of bg_message_len bytes).
    bg_rate: float = 300_000.0
    #: TCP background message rate for the web bench, calibrated so the
    #: background consumes ~60-70% of the packet core (see DESIGN.md:
    #: the paper's 20K x 64KB rate maps to ~13K msg/s at our calibrated
    #: per-segment costs).
    web_bg_rate: float = 13_000.0
    bg_burst: int = 96
    bg_message_len: int = 65_536
    duration_ns: int = 300 * MS
    warmup_ns: int = 60 * MS
    #: memaslap concurrency window / wrk2 target request rate.
    window: int = 4
    #: wrk2 drives the single connection at saturation (the paper's
    #: coupled latency/throughput movements imply a closed loop).
    wrk2_rate_rps: float = 50_000.0
    seed: int = 1
    costs: Optional[CostModel] = None
    kernel_config: Optional[KernelConfig] = None
    #: Optional fault-injection plan; when set, the measured client runs
    #: with the plan's :class:`~repro.faults.plan.RetryPolicy` so losses
    #: are retried instead of deadlocking the closed loop.
    faults: Optional[FaultPlan] = None

    def label(self) -> str:
        return f"{self.mode}/{'busy' if self.busy else 'idle'}"


@dataclass
class AppBenchResult:
    """Throughput and latency of the measured application."""

    config: AppBenchConfig
    latency: Optional[LatencySummary]
    throughput_per_sec: float
    completed: int
    cpu_utilization: float
    drops: Dict[str, int] = field(default_factory=dict)
    #: Every post-warmup latency sample (ns), for order-statistic intervals.
    samples_ns: List[int] = field(default_factory=list)
    #: Fault-run extras (``None`` on loss-free runs): what the injector
    #: did, the exact packet-conservation report, and the measured
    #: client's merged loss-recovery totals.
    fault_summary: Optional[Dict[str, Any]] = None
    conservation: Optional[Dict[str, Any]] = None
    recovery: Optional[Dict[str, Any]] = None

    def __str__(self) -> str:
        latency = str(self.latency) if self.latency else "no samples"
        return (f"[{self.config.label()}] {self.throughput_per_sec:,.0f} op/s | "
                f"{latency} | cpu={self.cpu_utilization * 100:.0f}%")


def _install_faults(testbed, config: AppBenchConfig):
    """Install the configured FaultInjector (None on loss-free runs)."""
    if config.faults is None:
        return None
    return FaultInjector(config.faults, testbed).install()


def _retry_kwargs(testbed, config: AppBenchConfig, label: str) -> dict:
    """Retry wiring for the measured client of a fault run."""
    if config.faults is None:
        return {}
    return {"retry": config.faults.retry,
            "retry_rng": testbed.rng.fork(f"retry:{label}")}


def _attach_fault_extras(result: AppBenchResult, injector, client) -> None:
    if injector is None:
        return
    result.fault_summary = injector.summary()
    result.conservation = injector.conservation_report()
    stats = [s for s in (client.recovery,) if s is not None]
    totals: Dict[str, Any] = merge_recovery(stats)
    totals["clients"] = [s.to_dict() for s in stats]
    result.recovery = totals


def _with_udp_background(testbed, config: AppBenchConfig) -> None:
    bg_server_cont = testbed.add_server_container("bg-server", "10.0.0.11")
    bg_client_cont = testbed.add_client_container("bg-client", "10.0.0.101")
    SockperfUdpServer(bg_server_cont, BG_PORT, core_id=2, reply=False,
                      app_work_ns=300)
    SockperfUdpFlood(testbed.sim, testbed.client, testbed.overlay,
                     bg_client_cont, "10.0.0.11", BG_PORT,
                     rate_pps=config.bg_rate, src_port=30002,
                     burst=config.bg_burst)


def _with_tcp_background(testbed, config: AppBenchConfig) -> None:
    bg_server_cont = testbed.add_server_container("bg-server", "10.0.0.11")
    bg_client_cont = testbed.add_client_container("bg-client", "10.0.0.101")
    # TCP drain server: counts delivered messages.
    endpoint = bg_server_cont.tcp_endpoint(BG_PORT, core_id=2)

    def drain():
        while True:
            yield from endpoint.recv()

    bg_server_cont.spawn(drain(), core_id=2, name="tcp-drain")
    SockperfTcpFlood(testbed.sim, testbed.client, testbed.overlay,
                     bg_client_cont, "10.0.0.11", BG_PORT,
                     rate_msgs_per_sec=config.web_bg_rate,
                     message_len=config.bg_message_len, src_port=30003)


def run_memcached_benchmark(config: AppBenchConfig) -> AppBenchResult:
    """Fig. 12: memaslap ops/s and latency, idle vs busy."""
    testbed = build_testbed(seed=config.seed, costs=config.costs,
                            config=config.kernel_config, mode=config.mode)
    injector = _install_faults(testbed, config)
    sim = testbed.sim
    mc_cont = testbed.add_server_container("memcached", "10.0.0.10")
    client_cont = testbed.add_client_container("memaslap", "10.0.0.100")
    MemcachedServer(mc_cont, core_id=1)
    recorder = LatencyRecorder("memaslap", warmup_until_ns=config.warmup_ns)
    client = MemaslapClient(sim, testbed.client, testbed.overlay, client_cont,
                            "10.0.0.10", window=config.window,
                            rng=testbed.rng.fork("memaslap"),
                            recorder=recorder,
                            warmup_until_ns=config.warmup_ns,
                            **_retry_kwargs(testbed, config, "memaslap"))
    if config.busy:
        _with_udp_background(testbed, config)
    testbed.mark_high_priority("10.0.0.10", 11211)
    client.start()

    sampler = CpuUtilizationSampler(testbed.server.kernel.cpu(0),
                                    lambda: sim.now)
    sim.run(until=config.warmup_ns)
    sampler.mark()
    sim.run(until=config.warmup_ns + config.duration_ns)

    result = AppBenchResult(
        config=config,
        latency=recorder.summary(),
        throughput_per_sec=client.completed.count * 1e9 / config.duration_ns,
        completed=client.completed.count,
        cpu_utilization=sampler.utilization(),
        drops=dict(testbed.server.kernel.drops),
        samples_ns=list(recorder.samples_ns))
    _attach_fault_extras(result, injector, client)
    return result


def run_webserver_benchmark(config: AppBenchConfig) -> AppBenchResult:
    """Fig. 13: wrk2 requests/s and latency, idle vs busy."""
    testbed = build_testbed(seed=config.seed, costs=config.costs,
                            config=config.kernel_config, mode=config.mode)
    injector = _install_faults(testbed, config)
    sim = testbed.sim
    web_cont = testbed.add_server_container("nginx", "10.0.0.10")
    client_cont = testbed.add_client_container("wrk2", "10.0.0.100")
    NginxServer(web_cont, core_id=1)
    recorder = LatencyRecorder("wrk2", warmup_until_ns=config.warmup_ns)
    client = Wrk2Client(sim, testbed.client, testbed.overlay, client_cont,
                        "10.0.0.10", rate_rps=config.wrk2_rate_rps,
                        recorder=recorder, warmup_until_ns=config.warmup_ns,
                        latency_from="sent",
                        **_retry_kwargs(testbed, config, "wrk2"))
    if config.busy:
        _with_tcp_background(testbed, config)
    testbed.mark_high_priority("10.0.0.10", 80)

    sampler = CpuUtilizationSampler(testbed.server.kernel.cpu(0),
                                    lambda: sim.now)
    sim.run(until=config.warmup_ns)
    sampler.mark()
    sim.run(until=config.warmup_ns + config.duration_ns)

    result = AppBenchResult(
        config=config,
        latency=recorder.summary(),
        throughput_per_sec=client.completed.count * 1e9 / config.duration_ns,
        completed=client.completed.count,
        cpu_utilization=sampler.utilization(),
        drops=dict(testbed.server.kernel.drops),
        samples_ns=list(recorder.samples_ns))
    _attach_fault_extras(result, injector, client)
    return result
