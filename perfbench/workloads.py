"""The benchmark's workloads, and what one child interpreter does with them.

A workload is a config built from the runner's seed; the program only ever
receives the built config.  Each function here runs inside a fresh child
interpreter and returns a plain JSON-able dict.  ``repro`` is imported
lazily, inside those functions, so that the set-up time a child reports
(spawn to the first ``run_to``) includes the imports.

Child modes:

- ``setup``: imports, config and build only -- cheap extra ``setup_s`` samples;
- ``measure``: one untimed simulated warm-up, then the timed window;
- ``trace``: the same run with timing wrappers and the wall-clock sampler on,
  for per-layer numbers (plus, on the overlay workloads, a
  ``run_traced_experiment`` pass for the simulated per-stage split).
"""

from __future__ import annotations

import contextlib
import dataclasses
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

MS = 1_000_000

#: Cluster shards: fixed, not derived from the core count, so the workload
#: is the same on every machine.  Measured runs keep both shards in one
#: process.  With subprocess shards a window waits for the slower of two
#: cores, and on a shared 2-vCPU host that spread the pace over ten runs
#: by 33% (quartiles over median), against 5-6% for the one-process
#: workloads.  The traced run still times the subprocess shape.
SHARDS = 2

#: Timed chunks a measured run is split into.  Load from elsewhere on the
#: machine only ever slows a chunk down, so the benchmark reports the
#: run's pace as a high quantile of the chunk rates (see ``pace``).
CHUNKS = 40
QUICK_CHUNKS = 10
PACE_QUANTILE = 0.9


@dataclass(frozen=True)
class Workload:
    name: str
    #: StackMode value (``repro.prism.mode.StackMode.parse`` input).
    mode: str
    #: ``FaultPlan.parse`` spec; its seed is the runner's seed.
    faults: Optional[str] = None
    #: Measured window (overlay workloads).
    window_ms: int = 1000
    cluster: bool = False


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("overlay-vanilla", "vanilla"),
    Workload("overlay-prism-sync", "prism-sync"),
    # Retries fire without jitter: with it, the p99 (which falls among the
    # retried requests) moves 4% from seed to seed.  The window is 10%
    # longer so that the losses still leave >= 1000 fg samples.
    Workload("overlay-bypass-lossy", "bypass",
             faults=("loss:eth:0.02; skbfail:0.01; retries=5; timeout=2ms; "
                     "jitter=0"),
             window_ms=1100),
    Workload("fattree-k4-2shard", "prism-sync", cluster=True),
)}

#: Wrapped entry points each workload's traced run must see fire.
OVERLAY_SPANS = ("prism.classify", "fastpath.pool_init")
CLUSTER_SPANS = ("prism.classify", "fastpath.pool_init", "sim.host_run_to",
                 "shard.step", "fabric.transit_batch", "overlay.wirefmt.encode",
                 "overlay.wirefmt.decode", "shard.post_step", "shard.wait_step")


def pace(chunk_rates: List[float]) -> float:
    """The rate a run sustains when the machine is not taking time away."""
    return quantile(sorted(chunk_rates), PACE_QUANTILE)


def quantile(ordered: List[float], q: float) -> float:
    """Nearest-rank quantile of an ascending list (0 when empty)."""
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def min_fg_samples(quick: bool) -> int:
    """Latency samples needed so that >= 10 lie beyond the p99."""
    return 50 if quick else 1000


# ----------------------------------------------------------------------
# Configs
# ----------------------------------------------------------------------
def overlay_config(workload: Workload, seed: int, quick: bool):
    """The Fig. 11 stress cell: 1 kpps fg ping-pong under a 300 kpps flood.

    The seed picks the fg and bg payload sizes (16-31 B and 32-63 B) and
    seeds the testbed and fault plan; seed 1 is the canonical 16 B / 32 B
    cell of ``BENCH_datapath.json``.
    """
    from repro.bench.experiment import ExperimentConfig
    from repro.faults.plan import FaultPlan
    from repro.prism.mode import StackMode

    faults = None
    if workload.faults is not None:
        faults = dataclasses.replace(FaultPlan.parse(workload.faults),
                                     seed=seed)
    warmup, window = 200 * MS, workload.window_ms * MS
    if quick:
        warmup, window = warmup // 10, window // 10
    return ExperimentConfig(
        mode=StackMode.parse(workload.mode), network="overlay",
        fg_rate_pps=1_000, fg_payload_len=16 + (seed - 1) % 16,
        bg_rate_pps=300_000, bg_payload_len=32 + (seed - 1) * 7 % 32,
        bg_burst=96, warmup_ns=warmup, duration_ns=window, seed=seed,
        faults=faults)


def cluster_config(workload: Workload, seed: int, quick: bool):
    """k=4 fat-tree, closed-loop aggregated users, ECMP with flowlets.

    10k users keep the hi class below saturation: at 20k users the hi
    class collapses and its post-warm-up sample count swings from 313 to
    1877 across seeds 1-10.
    """
    from repro.fabric.experiment import priority_survival_config
    from repro.prism.mode import StackMode

    mode = StackMode.parse(workload.mode)
    if quick:
        return priority_survival_config(mode, hosts=8, users=2_000,
                                        duration_ns=8 * MS, seed=seed)
    return priority_survival_config(mode, hosts=16, users=10_000,
                                    duration_ns=20 * MS, seed=seed)


def build_config(workload: Workload, seed: int, quick: bool):
    if workload.cluster:
        return cluster_config(workload, seed, quick)
    return overlay_config(workload, seed, quick)


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _peak_rss_mb() -> float:
    """ru_maxrss of this process (shards included), in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1024 * 1024 if sys.platform == "darwin" else 1024)


def _cell_packets(cell) -> int:
    """Packets so far: fg+bg delivered in the window plus fg sent."""
    return cell.fg_meter.count + cell.bg_meter.count + cell.fg_client.sent


def _run_window(cell, chunks: int, tracer=None) -> Dict[str, Any]:
    """Advance a warmed-up cell through its window in timed chunks."""
    config = cell.config
    start, window = config.warmup_ns, config.duration_ns
    rates: List[float] = []
    events = packets = 0
    window_s = 0.0
    before = _cell_packets(cell)
    for i in range(1, chunks + 1):
        horizon = start + window * i // chunks
        t0 = time.perf_counter()
        if tracer is None:
            events += cell.run_to(horizon)
        else:
            with tracer.span("sim.run_to"):
                events += cell.run_to(horizon)
        seconds = time.perf_counter() - t0
        after = _cell_packets(cell)
        rates.append((after - before) / seconds)
        packets += after - before
        before = after
        window_s += seconds
    return {"chunk_pkts_per_s": rates, "window_s": window_s,
            "events": events, "packets": packets}


def _overlay_result(result) -> Dict[str, Any]:
    from repro.bench.runner import result_digest

    latency = result.fg_latency
    out: Dict[str, Any] = {
        "digest": result_digest(result),
        "fg_samples": 0 if latency is None else latency.count,
        "fg_p50_us": 0.0 if latency is None else latency.p50_us,
        "fg_p99_us": 0.0 if latency is None else latency.p99_us,
        "fg_sent": result.fg_sent,
        "fg_replies": result.fg_replies,
        "cpu_util": result.cpu_utilization,
        "softirq_fraction": result.softirq_fraction,
        "drops": dict(result.drops),
    }
    if result.conservation is not None:
        out["conservation"] = {key: result.conservation[key] for key in
                               ("injected", "delivered", "dropped",
                                "balanced")}
    if result.recovery is not None:
        out["recovery"] = {key: result.recovery[key] for key in
                           ("retries_total", "timeouts_total", "gave_up",
                            "duplicates")}
    return out


def _cluster_result(result) -> Dict[str, Any]:
    from repro.shard.cluster import cluster_digest

    totals = result.totals
    latency = result.fg_latency
    hosts = result.hosts
    fabric = result.fabric or {}
    drops: Dict[str, int] = {}
    for host in hosts:
        for site, count in host["drops"].items():
            drops[site] = drops.get(site, 0) + count
    return {
        "digest": cluster_digest(result),
        "fg_samples": 0 if latency is None else latency.count,
        "fg_p50_us": 0.0 if latency is None else latency.p50_us,
        "fg_p99_us": 0.0 if latency is None else latency.p99_us,
        "sent": sum(totals[c]["sent"] for c in ("hi", "lo")),
        "replies": sum(totals[c]["replies"] for c in ("hi", "lo")),
        "timed_out": sum(totals[c]["timed_out"] for c in ("hi", "lo")),
        "late_replies": sum(totals[c]["late_replies"] for c in ("hi", "lo")),
        "cross_sent": result.conservation["cross_sent"],
        "windows": result.conservation["windows"],
        "exact": bool(result.conservation["exact"]),
        "cpu_util": statistics.fmean(h["cpu_utilization"] for h in hosts),
        "softirq_fraction": statistics.fmean(h["softirq_fraction"]
                                             for h in hosts),
        "drops": drops,
        "fabric_packets": fabric.get("packets", 0),
        "flowlet_rehashes": fabric.get("flowlet_rehashes", 0),
        "paths_used_max": fabric.get("paths_used_max", 0),
        "run_s": result.timing["run_s"],
        "build_s": result.timing["build_s"],
    }


# ----------------------------------------------------------------------
# Child modes
# ----------------------------------------------------------------------
def setup(workload: Workload, seed: int, quick: bool) -> Dict[str, Any]:
    """Imports, config and build, as a measured run does them; no run."""
    t0 = time.perf_counter()
    if workload.cluster:
        from repro.shard.worker import ShardWorker, partition_hosts
    else:
        from repro.bench.cell import ExperimentCell
    t1 = time.perf_counter()
    config = build_config(workload, seed, quick)
    t2 = time.perf_counter()
    if workload.cluster:
        for block in partition_hosts(config.hosts, SHARDS,
                                     topology=config.topology):
            ShardWorker(config, block)
    else:
        ExperimentCell(config)
    setup_end = time.monotonic()
    build_s = time.perf_counter() - t2
    return {"setup_end": setup_end, "import_s": t1 - t0, "build_s": build_s}


def measure(workload: Workload, seed: int, quick: bool) -> Dict[str, Any]:
    """One untraced run: the end-to-end numbers come from here."""
    if workload.cluster:
        return _measure_cluster(workload, seed, quick)
    t0 = time.perf_counter()
    from repro.bench.cell import ExperimentCell
    t1 = time.perf_counter()
    config = overlay_config(workload, seed, quick)
    t2 = time.perf_counter()
    cell = ExperimentCell(config)
    setup_end = time.monotonic()
    build_s = time.perf_counter() - t2
    cell.run_to(config.warmup_ns)  # untimed simulated warm-up
    out = _run_window(cell, QUICK_CHUNKS if quick else CHUNKS)
    out.update(_overlay_result(cell.finalize()))
    out.update(setup_end=setup_end, import_s=t1 - t0, build_s=build_s,
               peak_rss_mb=_peak_rss_mb())
    return out


def _measure_cluster(workload: Workload, seed: int,
                     quick: bool) -> Dict[str, Any]:
    t0 = time.perf_counter()
    from repro.shard.executor import run_cluster
    t1 = time.perf_counter()
    config = cluster_config(workload, seed, quick)
    called = time.monotonic()
    with _window_clock() as (ends, rows):
        result = run_cluster(config, shards=SHARDS, processes=False)
    out = _cluster_result(result)
    # run_cluster builds the shard workers before its first window.
    out.update(setup_end=called + result.timing["build_s"],
               import_s=t1 - t0, window_s=result.timing["run_s"],
               chunk_pkts_per_s=_chunk_rates(ends, rows, CHUNKS),
               clock_rows=sum(rows), peak_rss_mb=_peak_rss_mb())
    return out


@contextlib.contextmanager
def _window_clock():
    """End time and cross-shard rows of every in-process cluster window.

    The executor drives the windows itself, so the cluster's chunks are
    timed at the barrier: the executor calls ``wait_step`` once per shard
    per window, and the window ends with the last of those calls.  One
    clock read per window; no spans.
    """
    from repro.shard.worker import ShardWorker

    original = ShardWorker.wait_step
    ends: List[float] = []
    rows: List[int] = []
    pending = [0, 0]  # waits and rows so far in the current window

    def wait_step(self):
        out = original(self)
        pending[0] += 1
        pending[1] += len(out) if out is not None else 0
        if pending[0] == SHARDS:
            ends.append(time.perf_counter())
            rows.append(pending[1])
            pending[0] = pending[1] = 0
        return out

    ShardWorker.wait_step = wait_step
    try:
        yield ends, rows
    finally:
        ShardWorker.wait_step = original


def _chunk_rates(ends: List[float], rows: List[int],
                 chunks: int) -> List[float]:
    """Rows per second over runs of consecutive windows (window 0 opens)."""
    per = max(1, (len(ends) - 1) // chunks)
    return [sum(rows[a + 1:a + per + 1]) / (ends[a + per] - ends[a])
            for a in range(0, len(ends) - per, per)]


def trace(workload: Workload, seed: int, quick: bool,
          out_dir: Path) -> Dict[str, Any]:
    """The traced run: spans, wall-clock shares and per-layer counters."""
    if workload.cluster:
        return _trace_cluster(workload, seed, quick, out_dir)
    from layers import SpanTracer, Target, package_shares, write_chrome

    import repro
    from repro.bench.cell import ExperimentCell
    from repro.bench.experiment import run_traced_experiment
    from repro.bench.runner import result_digest
    from repro.fastpath.pool import SkbPool
    from repro.perf.wallprof import WallClockSampler
    from repro.prism.classifier import PriorityClassifier

    config = overlay_config(workload, seed, quick)
    tracer = SpanTracer("overlay")
    pools: List[Any] = []
    targets = [
        Target("prism.classify", PriorityClassifier, "classify"),
        Target("fastpath.pool_init", SkbPool, "__init__",
               lambda args, result, self_s: pools.append(args[0])),
    ]
    sampler = WallClockSampler()
    with tracer.installed(targets):
        with tracer.span("bench.build"):
            cell = ExperimentCell(config)
        with tracer.span("sim.run_to"):
            cell.run_to(config.warmup_ns)
        with sampler:
            window = _run_window(cell, QUICK_CHUNKS if quick else CHUNKS,
                                 tracer)
        with tracer.span("bench.finalize"):
            result = _overlay_result(cell.finalize())
    shares, n_samples = package_shares(sampler.samples,
                                       Path(repro.__file__).parent)

    # Simulated per-stage split (Fig. 4): the kernel observer is a separate
    # pass because it turns on the kernel's traced paths, which would skew
    # the wall-clock shares above.
    traced = run_traced_experiment(config).result
    stages = {seg["name"]: seg["mean_ns"]
              for seg in traced.stage_breakdown["segments"]}
    traced.stage_breakdown = None

    trace_path = write_chrome(out_dir / f"{workload.name}.trace.json",
                              [tracer], {"workload": workload.name,
                                         "seed": seed, "quick": quick})
    profile_path = sampler.write_speedscope(
        out_dir / f"{workload.name}.speedscope.json", name=workload.name)
    allocated = sum(pool.allocated for pool in pools)
    reused = sum(pool.reused for pool in pools)
    result.update(window)
    result.update(
        digests=[result["digest"], result_digest(traced)],
        shares=shares, samples=n_samples,
        spans={name: tracer.calls(name) for name in tracer.totals},
        classify_calls=tracer.calls("prism.classify"),
        classify_s=tracer.total_s("prism.classify"),
        skb_allocs=allocated,
        skb_reuse_ratio=reused / allocated if allocated else 0.0,
        stages=stages, files=[str(trace_path), str(profile_path)])
    return result


class _WindowLog:
    """Per-window coordinator wait, from the pipe workers' step calls."""

    def __init__(self) -> None:
        self.horizon = None
        #: horizon -> [blocked seconds, rows returned]
        self.windows: Dict[int, List[float]] = {}

    def posted(self, args, result, self_s) -> int:
        self.horizon = args[1]
        self.windows.setdefault(self.horizon, [0.0, 0])
        return 0

    def waited(self, args, result, self_s) -> int:
        rows = len(result) if result is not None else 0
        window = self.windows[self.horizon]
        window[0] += self_s
        window[1] += rows
        return rows


def _trace_cluster(workload: Workload, seed: int, quick: bool,
                   out_dir: Path) -> Dict[str, Any]:
    from layers import SpanTracer, Target, package_shares, write_chrome

    import repro
    from repro.fabric.network import FabricNetwork
    from repro.fastpath.pool import SkbPool
    from repro.overlay.wirefmt import WireBatch
    from repro.perf.wallprof import WallClockSampler
    from repro.prism.classifier import PriorityClassifier
    from repro.shard.executor import run_cluster
    from repro.shard.hostcell import HostCell
    from repro.shard.worker import PipeShardWorker, ShardWorker

    config = cluster_config(workload, seed, quick)

    # Pass 1, the measured shape (in-process shards): every layer runs in
    # this thread, so the sampler sees the whole simulation.
    local = SpanTracer("in-process shards")
    pools: List[Any] = []
    sampler = WallClockSampler()
    with _window_clock() as (ends, rows), local.installed([
            Target("prism.classify", PriorityClassifier, "classify"),
            Target("fastpath.pool_init", SkbPool, "__init__",
                   lambda args, result, self_s: pools.append(args[0])),
            Target("sim.host_run_to", HostCell, "run_to",
                   lambda args, result, self_s: result),
            Target("shard.step", ShardWorker, "post_step"),
            Target("fabric.transit_batch", FabricNetwork, "transit_batch",
                   lambda args, result, self_s: len(result))]):
        with sampler, local.span("shard.run_cluster"):
            result = _cluster_result(
                run_cluster(config, shards=SHARDS, processes=False))
    shares, n_samples = package_shares(sampler.samples,
                                       Path(repro.__file__).parent)

    # Pass 2, pipe workers in subprocesses: coordinator-side framing,
    # barrier waits and the parallel run time.  The wrappers are inherited by the forked workers,
    # whose spans stay in their own memory.
    piped = SpanTracer("coordinator")
    windows = _WindowLog()
    with piped.installed([
            Target("overlay.wirefmt.encode", WireBatch, "encode",
                   lambda args, result, self_s: len(args[0])),
            Target("overlay.wirefmt.decode", WireBatch, "decode",
                   lambda args, result, self_s: len(result)),
            Target("shard.post_step", PipeShardWorker, "post_step",
                   windows.posted),
            Target("shard.wait_step", PipeShardWorker, "wait_step",
                   windows.waited)]):
        with piped.span("shard.run_cluster"):
            piped_result = _cluster_result(run_cluster(config, shards=SHARDS))

    trace_path = write_chrome(out_dir / f"{workload.name}.trace.json",
                              [local, piped], {"workload": workload.name,
                                               "seed": seed, "quick": quick})
    profile_path = sampler.write_speedscope(
        out_dir / f"{workload.name}.speedscope.json", name=workload.name)
    waits_us = sorted(w[0] * 1e6 for w in windows.windows.values())
    allocated = sum(pool.allocated for pool in pools)
    reused = sum(pool.reused for pool in pools)
    spans = {name: local.calls(name) for name in local.totals}
    spans.update({name: piped.calls(name) for name in piped.totals})
    result.update(
        digests=[result["digest"], piped_result["digest"]],
        subprocess_run_s=piped_result["run_s"],
        chunk_pkts_per_s=_chunk_rates(ends, rows, CHUNKS),
        clock_rows=sum(rows), shares=shares,
        samples=n_samples,
        spans=spans,
        events=local.n("sim.host_run_to"),
        classify_calls=local.calls("prism.classify"),
        classify_s=local.total_s("prism.classify"),
        skb_allocs=allocated,
        skb_reuse_ratio=reused / allocated if allocated else 0.0,
        transit_calls=local.calls("fabric.transit_batch"),
        transit_s=local.total_s("fabric.transit_batch"),
        encode_s=piped.total_s("overlay.wirefmt.encode"),
        decode_s=piped.total_s("overlay.wirefmt.decode"),
        wire_rows=(piped.n("overlay.wirefmt.encode")
                   + piped.n("overlay.wirefmt.decode")),
        traced_windows=len(windows.windows),
        windows_empty=sum(1 for w in windows.windows.values() if not w[1]),
        wait_rows=piped.n("shard.wait_step"),
        wait_s=piped.self_s("shard.wait_step"),
        wait_p50_us=quantile(waits_us, 0.50),
        wait_p99_us=quantile(waits_us, 0.99),
        files=[str(trace_path), str(profile_path)])
    return result

