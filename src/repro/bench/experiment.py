"""Experiment runner (paper Figs. 3, 8-13).

One :class:`ExperimentConfig` describes a complete scenario: network type
(overlay/host), stack mode, foreground (:data:`FG_KINDS`: sockperf
ping-pong latency or flood throughput, or the memcached/memaslap and
nginx/wrk2 applications), optional low-priority background flood,
durations, and knobs.  :func:`run_experiment` builds the testbed, runs
it, and returns an :class:`ExperimentResult` with latency summaries,
delivered rates, CPU utilization of the packet-processing core, and drop
counters.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields as dataclass_fields
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Union

from repro.apps.sockperf import (
    SockperfUdpClient,
    SockperfUdpFlood,
    SockperfUdpServer,
)
from repro.bench.cell import ExperimentCell
from repro.bench.testbed import Testbed
from repro.faults.plan import FaultPlan
from repro.kernel.config import KernelConfig
from repro.kernel.costs import CostModel
from repro.metrics.recorder import ThroughputMeter
from repro.metrics.stats import LatencySummary
from repro.prism.mode import StackMode
from repro.sim.units import MS, SEC

if TYPE_CHECKING:  # pragma: no cover
    from repro.flows.config import FlowExportConfig
    from repro.metrics.recorder import LatencyRecorder
    from repro.obs.breakdown import StageBreakdown
    from repro.obs.observer import KernelObserver
    from repro.obs.recorder import FlightRecorder

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "TracedExperiment",
    "run_experiment",
    "run_traced_experiment",
]

FG_PORT = 11111
BG_PORT = 12222

#: Foreground kinds.  "pingpong" measures sockperf latency and "flood"
#: delivered throughput; "memcached" (memaslap, Fig. 12) and "web"
#: (wrk2 against nginx, Fig. 13) measure an application's latency and
#: completed operations per second, on the overlay only.
FG_KINDS = ("pingpong", "flood", "memcached", "web")
APP_KINDS = ("memcached", "web")

#: Config fields an application kind does not read, so a non-default
#: value would only split the cache key; the cell refuses one.  A "web"
#: cell's background is the TCP flood, which sends no bursts.
APP_FIXED_FIELDS = {
    "memcached": ("fg_rate_pps", "fg_payload_len"),
    "web": ("fg_rate_pps", "fg_payload_len", "bg_burst"),
}

#: memaslap's window of outstanding requests (Fig. 12).
MEMASLAP_WINDOW = 4
#: wrk2's target rate: it drives its single connection at saturation
#: (the paper's coupled latency/throughput movements imply a closed
#: loop), so it measures from the actual write.
WRK2_RATE_RPS = 50_000.0


@dataclass(frozen=True)
class ExperimentConfig:
    """One microbenchmark scenario (the frozen, hashable form).

    .. note::
       Prefer building configs through :class:`repro.scenario.Scenario`
       — this dataclass is kept as the thin frozen view the runner
       and cache operate on.  Every field is part of the disk-cache key
       (:func:`repro.bench.runner.config_key`, which encodes it with
       :func:`~repro.bench.digest.jsonable`); nothing decodes a config,
       and result digests hash measurements only, never the config.
    """

    mode: StackMode = StackMode.VANILLA
    #: "overlay" (3-stage container pipeline) or "host" (single stage).
    network: str = "overlay"
    #: Foreground flow, one of :data:`FG_KINDS`.  The sockperf kinds
    #: use the rate and payload below; the application kinds refuse
    #: non-default values (:data:`APP_FIXED_FIELDS`).
    fg_kind: str = "pingpong"
    fg_rate_pps: float = 1_000.0
    fg_payload_len: int = 16
    #: Mark the foreground flow high-priority in the PRISM database.
    fg_high_priority: bool = True
    #: Background low-priority UDP flood (0 disables it).  Behind a
    #: "web" foreground it is a TCP flood instead: the rate counts
    #: messages per second and the payload is the message length.
    bg_rate_pps: float = 0.0
    bg_payload_len: int = 32
    #: Background burstiness (packets sent back-to-back per burst);
    #: sockperf's throughput mode blasts from a tight loop, so bursts
    #: exceed one NAPI batch — which is what triggers the interleaving
    #: pathology of Fig. 6a.  See SockperfUdpFlood.
    bg_burst: int = 96
    #: Measurement window and warm-up.
    duration_ns: int = 300 * MS
    warmup_ns: int = 60 * MS
    seed: int = 1
    costs: Optional[CostModel] = None
    kernel_config: Optional[KernelConfig] = None
    #: Optional fault-injection plan (loss, bursts, flaps + loss
    #: recovery); ``None`` is the canonical, loss-free configuration.
    faults: Optional[FaultPlan] = None
    #: Optional sampled flow-record export
    #: (:class:`repro.flows.FlowExportConfig`); ``None`` keeps every
    #: flow hook a single attribute check.
    flow_export: Optional[FlowExportConfig] = None

    def label(self) -> str:
        busy = f"+bg{self.bg_rate_pps / 1000:.0f}k" if self.bg_rate_pps else ""
        return f"{self.network}/{self.mode}{busy}"


@dataclass
class ExperimentResult:
    """Measurements from one experiment run."""

    config: ExperimentConfig
    fg_latency: Optional[LatencySummary]
    fg_samples_ns: List[int]
    fg_sent: int
    fg_replies: int
    fg_delivered_pps: float
    bg_delivered_pps: float
    cpu_utilization: float
    softirq_fraction: float
    drops: Dict[str, int] = field(default_factory=dict)
    #: Fig. 4-style per-stage decomposition (dict form of
    #: :class:`repro.obs.StageBreakdown`); populated by traced runs only.
    stage_breakdown: Optional[Dict[str, Any]] = None
    #: Versioned metrics snapshot
    #: (:func:`repro.telemetry.kernel.collect_metrics`); populated by
    #: traced runs only.
    telemetry: Optional[Dict[str, Any]] = None
    #: What the injector did (:meth:`FaultInjector.summary`); fault runs
    #: only.
    fault_summary: Optional[Dict[str, Any]] = None
    #: Packet-conservation report (:meth:`PacketLedger.report`):
    #: ``injected == delivered + dropped(by site) + in-flight`` with the
    #: residual and per-site breakdowns; fault runs only.
    conservation: Optional[Dict[str, Any]] = None
    #: Merged loss-recovery totals (retries/timeouts/give-ups) plus the
    #: per-client stats; fault runs only.
    recovery: Optional[Dict[str, Any]] = None
    #: Sampled flow-record export block (``schema``/``sample_rate``/
    #: ``records``/counters); flow-export runs only.
    flows: Optional[Dict[str, Any]] = None

    def __str__(self) -> str:
        latency = str(self.fg_latency) if self.fg_latency else "no samples"
        return (f"[{self.config.label()}] fg: {latency} | "
                f"fg={self.fg_delivered_pps / 1000:.0f}kpps "
                f"bg={self.bg_delivered_pps / 1000:.0f}kpps "
                f"cpu={self.cpu_utilization * 100:.0f}%")

    # ------------------------------------------------------------------
    # The disk cache's entry (repro.bench.runner.ResultCache)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe dict of every field.  ``config`` is written as
        :func:`~repro.bench.digest.jsonable` text for readers; it is
        never read back (:meth:`from_dict` takes the config)."""
        from repro.bench.digest import jsonable

        out = {f.name: getattr(self, f.name) for f in dataclass_fields(self)}
        out["config"] = jsonable(self.config)
        if self.fg_latency is not None:
            out["fg_latency"] = asdict(self.fg_latency)
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any],
                  config: ExperimentConfig) -> "ExperimentResult":
        """Rebuild a :meth:`to_dict` entry cached under *config*."""
        kwargs = {f.name: data[f.name] for f in dataclass_fields(cls)
                  if f.name != "config"}
        if kwargs["fg_latency"] is not None:
            kwargs["fg_latency"] = LatencySummary(**kwargs["fg_latency"])
        return cls(config=config, **kwargs)


def _host_network_setup(testbed: Testbed, config: ExperimentConfig,
                        recorder: LatencyRecorder):
    """Foreground/background served by host (root-namespace) sockets."""
    from repro.apps.sockperf import PingRecord
    from repro.fastpath.headercache import CachedUdpBuilder
    import itertools

    sim = testbed.sim
    server = testbed.server
    fg_socket = server.udp_socket(FG_PORT, core_id=1)
    fg_meter = ThroughputMeter("fg", warmup_until_ns=config.warmup_ns)

    def fg_server():
        pool = server.kernel.skb_pool
        while True:
            skb = yield from fg_socket.recv()
            fg_meter.record(sim.now, skb.wire_len)
            packet = skb.packet
            pool.recycle(skb)
            yield 600
            if config.fg_kind != "pingpong" or packet.ip is None:
                continue
            yield from server.egress.udp_send(
                src_mac=server.mac, dst_mac=testbed.client.mac,
                src_ip=server.ip, dst_ip=packet.ip.src,
                src_port=FG_PORT, dst_port=packet.l4.src_port,
                payload=packet.payload, payload_len=packet.payload_len)

    server.spawn(fg_server(), core_id=1, name="fg-host-server")

    seq = itertools.count(1)

    builder = CachedUdpBuilder()

    def client_sender():
        interval = SEC / config.fg_rate_pps
        next_send = float(sim.now)
        while True:
            record = PingRecord(seq=next(seq), sent_at=sim.now)
            packet = builder.build(
                src_mac=testbed.client.mac, dst_mac=server.mac,
                src_ip=testbed.client.ip, dst_ip=server.ip,
                src_port=30001, dst_port=FG_PORT,
                payload=record, payload_len=config.fg_payload_len,
                created_at=sim.now)
            testbed.client.transmit(packet)
            counters["fg_sent"] += 1
            next_send += interval
            yield max(0, int(next_send) - sim.now)

    counters = {"fg_sent": 0, "fg_replies": 0}

    def on_reply(inner):
        record = inner.payload
        if isinstance(record, PingRecord):
            counters["fg_replies"] += 1
            recorder.record((sim.now - record.sent_at) // 2, at_ns=sim.now)

    testbed.client.on_port(30001, on_reply)
    sim.process(client_sender(), name="fg-host-client")

    bg_meter = ThroughputMeter("bg", warmup_until_ns=config.warmup_ns)
    if config.bg_rate_pps > 0:
        bg_socket = server.udp_socket(BG_PORT, core_id=2)

        def bg_server():
            pool = server.kernel.skb_pool
            while True:
                skb = yield from bg_socket.recv()
                bg_meter.record(sim.now, skb.wire_len)
                pool.recycle(skb)
                yield 400

        server.spawn(bg_server(), core_id=2, name="bg-host-server")

        def bg_sender():
            interval = SEC / config.bg_rate_pps
            next_burst = float(sim.now)
            while True:
                for _ in range(config.bg_burst):
                    packet = builder.build(
                        src_mac=testbed.client.mac, dst_mac=server.mac,
                        src_ip=testbed.client.ip, dst_ip=server.ip,
                        src_port=30002, dst_port=BG_PORT,
                        payload=None, payload_len=config.bg_payload_len,
                        created_at=sim.now)
                    testbed.client.transmit(packet)
                next_burst += interval * config.bg_burst
                yield max(0, int(next_burst) - sim.now)

        sim.process(bg_sender(), name="bg-host-client")

    if config.fg_high_priority:
        testbed.mark_high_priority(str(server.ip), FG_PORT)
    return fg_meter, bg_meter, counters


def _overlay_setup(testbed: Testbed, config: ExperimentConfig,
                   recorder: LatencyRecorder):
    """Foreground/background between containers over the VXLAN overlay.

    Returns ``(fg_meter, bg_meter, fg_client)``; the client counts
    requests sent and replies matched."""
    sim = testbed.sim
    kind = config.fg_kind
    retry = retry_rng = None
    if config.faults is not None:
        # Loss recovery rides with the fault plan: every injected loss is
        # retried rather than silently thinning the sample stream.  The
        # retry jitter draws from its own labeled fork so it cannot
        # perturb workload randomness.
        retry = config.faults.retry
        retry_rng = testbed.rng.fork(
            {"memcached": "retry:memaslap", "web": "retry:wrk2"}.get(
                kind, "retry:sockperf"))
    if kind in APP_KINDS:
        fg_port, fg_client = _app_foreground(testbed, config, recorder,
                                             retry, retry_rng)
        fg_meter = fg_client.completed
    else:
        fg_port = FG_PORT
        fg_server_cont = testbed.add_server_container("fg-server",
                                                      "10.0.0.10")
        fg_client_cont = testbed.add_client_container("fg-client",
                                                      "10.0.0.100")
        reply = kind == "pingpong"
        fg_server = SockperfUdpServer(fg_server_cont, FG_PORT, core_id=1,
                                      reply=reply)
        fg_server.received.warmup_until_ns = config.warmup_ns
        fg_meter = fg_server.received
        if reply:
            fg_client = SockperfUdpClient(
                sim, testbed.client, testbed.overlay, fg_client_cont,
                "10.0.0.10", FG_PORT, rate_pps=config.fg_rate_pps,
                payload_len=config.fg_payload_len, src_port=30001,
                recorder=recorder, warmup_until_ns=config.warmup_ns,
                retry=retry, retry_rng=retry_rng)
        else:
            fg_client = SockperfUdpFlood(
                sim, testbed.client, testbed.overlay, fg_client_cont,
                "10.0.0.10", FG_PORT, rate_pps=config.fg_rate_pps,
                payload_len=config.fg_payload_len, src_port=30001)

    bg_meter = ThroughputMeter("bg", warmup_until_ns=config.warmup_ns)
    if config.bg_rate_pps > 0:
        bg_server_cont = testbed.add_server_container("bg-server", "10.0.0.11")
        bg_client_cont = testbed.add_client_container("bg-client", "10.0.0.101")
        if kind == "web":
            _tcp_background(testbed, config, bg_server_cont, bg_client_cont,
                            bg_meter)
        else:
            bg_server = SockperfUdpServer(bg_server_cont, BG_PORT, core_id=2,
                                          reply=False, app_work_ns=400)
            bg_server.received.warmup_until_ns = config.warmup_ns
            SockperfUdpFlood(
                sim, testbed.client, testbed.overlay, bg_client_cont,
                "10.0.0.11", BG_PORT, rate_pps=config.bg_rate_pps,
                payload_len=config.bg_payload_len, src_port=30002,
                burst=config.bg_burst)
            bg_meter = bg_server.received

    if config.fg_high_priority:
        testbed.mark_high_priority("10.0.0.10", fg_port)
    if kind == "memcached":
        fg_client.start()
    return fg_meter, bg_meter, fg_client


def _app_foreground(testbed: Testbed, config: ExperimentConfig,
                    recorder: LatencyRecorder, retry, retry_rng):
    """The application server and its client; returns (port, client).

    The models load here, so a sockperf cell never imports them."""
    sim = testbed.sim
    warmup = config.warmup_ns
    retry_kwargs = {"retry": retry, "retry_rng": retry_rng}
    if config.fg_kind == "memcached":
        from repro.apps.memcached import (
            MEMCACHED_PORT,
            MemaslapClient,
            MemcachedServer,
        )
        server_cont = testbed.add_server_container("memcached", "10.0.0.10")
        client_cont = testbed.add_client_container("memaslap", "10.0.0.100")
        MemcachedServer(server_cont, core_id=1)
        client = MemaslapClient(
            sim, testbed.client, testbed.overlay, client_cont, "10.0.0.10",
            window=MEMASLAP_WINDOW, rng=testbed.rng.fork("memaslap"),
            recorder=recorder, warmup_until_ns=warmup, **retry_kwargs)
        return MEMCACHED_PORT, client
    from repro.apps.webserver import HTTP_PORT, NginxServer, Wrk2Client
    server_cont = testbed.add_server_container("nginx", "10.0.0.10")
    client_cont = testbed.add_client_container("wrk2", "10.0.0.100")
    NginxServer(server_cont, core_id=1)
    client = Wrk2Client(
        sim, testbed.client, testbed.overlay, client_cont, "10.0.0.10",
        rate_rps=WRK2_RATE_RPS, recorder=recorder, warmup_until_ns=warmup,
        latency_from="sent", **retry_kwargs)
    return HTTP_PORT, client


def _tcp_background(testbed: Testbed, config: ExperimentConfig,
                    server_cont, client_cont, meter: ThroughputMeter) -> None:
    """A sockperf TCP flood of ``bg_payload_len``-byte messages into a
    drain server that counts them (Fig. 13): TSO fragments them on the
    sender and the receiver's gro_cells coalesce them."""
    from repro.apps.sockperf import SockperfTcpFlood

    sim = testbed.sim
    endpoint = server_cont.tcp_endpoint(BG_PORT, core_id=2)

    def drain():
        while True:
            message, _ = yield from endpoint.recv()
            meter.record(sim.now, message.length)

    server_cont.spawn(drain(), core_id=2, name="tcp-drain")
    SockperfTcpFlood(sim, testbed.client, testbed.overlay, client_cont,
                     "10.0.0.11", BG_PORT, rate_msgs_per_sec=config.bg_rate_pps,
                     message_len=config.bg_payload_len, src_port=30003)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Build the scenario, simulate it, and collect the measurements.

    Keep this a plain single-argument function: the parallel runner maps
    it directly over a process pool (``pool.map(run_experiment, ...)``).
    """
    return _run_experiment(config)


def _run_experiment(config: ExperimentConfig, *,
                    attach: Optional[Callable[[Testbed], Any]] = None
                    ) -> ExperimentResult:
    """:func:`run_experiment` plus an observability hook.

    *attach* runs after the testbed is built and before the simulation
    starts — tests use it to subscribe observers to the server kernel's
    tracer or to set kernel switches.

    Build/advance/finalize live on :class:`~repro.bench.cell.ExperimentCell`
    so the sharded executor can drive the same cell in lookahead windows;
    one straight run to the end is the degenerate single-window case.
    """
    cell = ExperimentCell(config, attach=attach)
    cell.run_to(cell.end_ns)
    return cell.finalize()


# ----------------------------------------------------------------------
# Observed runs
# ----------------------------------------------------------------------
@dataclass
class TracedExperiment:
    """A result plus the recording and the metrics that explain it."""

    result: ExperimentResult
    observer: KernelObserver
    #: Fig. 4 over every completed packet (``result.stage_breakdown``).
    breakdown: StageBreakdown
    #: Fig. 4 once per receiving socket, ordered by socket name.
    breakdowns: Dict[str, StageBreakdown]

    @property
    def recorder(self) -> FlightRecorder:
        return self.observer.recorder

    def render_breakdowns(self) -> str:
        """The Fig. 4 table of each receiving socket, ending with a line
        that says so when the observer's packet cap truncated them."""
        text = "\n\n".join(f"socket {socket}:\n{breakdown.render()}"
                            for socket, breakdown in self.breakdowns.items())
        dropped = self.observer.packets_overflowed
        if dropped:
            text += (f"\n\ntruncated: {dropped:,} packets past the "
                     f"{self.observer.max_packets:,}-packet milestone cap "
                     f"are in no table")
        return text

    def write_chrome(self, path: Union[str, Path]) -> Path:
        """Export the recording as Perfetto-loadable Chrome trace JSON."""
        from repro.obs.chrome import write_chrome_trace

        config = self.result.config
        return write_chrome_trace(
            path, self.recorder,
            meta={"scenario": config.label(), "seed": config.seed,
                  "duration_ns": config.duration_ns})

    def write_openmetrics(self, path: Union[str, Path]) -> Path:
        """Export the metrics snapshot as OpenMetrics text exposition."""
        from repro.telemetry.openmetrics import write_openmetrics

        return write_openmetrics(path, self.result.telemetry)

    def write_metrics_json(self, path: Union[str, Path]) -> Path:
        """Export the versioned JSON metrics snapshot."""
        import json

        out = Path(path)
        out.parent.mkdir(parents=True, exist_ok=True)
        with out.open("w") as fh:
            json.dump(self.result.telemetry, fh, indent=1,
                      sort_keys=True)
            fh.write("\n")
        return out

    def write_folded(self, path: Union[str, Path]) -> Path:
        """Export the span attribution as collapsed stacks
        (flamegraph.pl folded format)."""
        from repro.obs.stacks import write_folded

        return write_folded(path, self.observer.self_ns)

    def write_speedscope(self, path: Union[str, Path]) -> Path:
        """Export the span attribution as a speedscope JSON profile."""
        from repro.obs.stacks import write_speedscope

        return write_speedscope(path, self.observer.self_ns,
                                name=self.result.config.label())


def run_traced_experiment(config: ExperimentConfig) -> TracedExperiment:
    """Run one experiment observed, in one simulation.

    Before the simulation starts, a :class:`KernelObserver` (flight
    recorder, packet milestones, gauges, span attribution, per-key
    counts) subscribes to the server kernel's tracer, so its gated emit
    sites light up.  It only reads state: the measurements are
    bit-identical to a plain :func:`run_experiment` (the golden-digest
    tests pin this).  The result additionally carries the Fig. 4
    breakdown (``stage_breakdown``) and the metrics snapshot
    (``telemetry``), read from the finished cell.
    """
    from repro.obs.breakdown import StageBreakdown
    from repro.obs.observer import KernelObserver
    from repro.telemetry.kernel import collect_metrics

    observers: List[KernelObserver] = []

    def attach(testbed: Testbed) -> None:
        server = testbed.server
        observer = KernelObserver(server.kernel)
        observer.watch_host(server)
        observer.start_gauges()
        observers.append(observer)

    cell = ExperimentCell(config, attach=attach)
    cell.run_to(cell.end_ns)
    result = cell.finalize()
    observer = observers[0]
    observer.detach()
    result.telemetry = collect_metrics(cell, observer)
    packets = observer.packets.values()
    breakdown = StageBreakdown.from_packets(packets)
    result.stage_breakdown = breakdown.to_dict()
    return TracedExperiment(result=result, observer=observer,
                            breakdown=breakdown,
                            breakdowns=StageBreakdown.per_socket(packets))
