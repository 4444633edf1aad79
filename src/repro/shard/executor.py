"""The space-parallel cluster executor (conservative lookahead).

Hosts are partitioned into shard workers; the executor advances the
whole cluster in fixed windows of the fabric's minimum path latency
(:attr:`~repro.shard.cluster.ClusterConfig.lookahead_ns`) — the
*lookahead horizon*.  Inside a window every shard simulates freely
(concurrently, when process-backed); at the barrier the executor
collects each shard's outbox as one columnar
:class:`~repro.overlay.wirefmt.WireBatch` frame, concatenates the
union, transits it through the one
:class:`~repro.fabric.network.FabricNetwork` it owns (hop-by-hop FIFO
serialization; the result comes back sorted by the
partition-independent wire key), and routes every packet to the shard
owning its destination for delivery at the next step.

The barrier is the cross-shard hot path, so it never builds a
per-packet object: frames decode into column lists, the transit sort
runs over zipped row tuples at C speed, the fabric rewrites the arrival
column, and the routed split is a per-destination-shard ``take`` over
the columns.  Windows with no cross-shard traffic skip decode, transit
and routing entirely (the shared ``EMPTY_FRAME`` makes them free),
which matters at scale: most windows of a lightly loaded cluster move
nothing.

Correctness of the window width: a packet departing in window
``(t_{k-1}, t_k]`` crosses links whose latencies sum to at least
``L = lookahead_ns``, so ``arrival > t_{k-1} + L = t_k`` — at barrier
*k* every exchanged packet is strictly in every cell's future.
Delivery can therefore always use ``schedule_at`` and no shard ever
receives a packet from its past (no rollback needed).

Determinism: cells are always per-host simulators and the fabric
transits every shard's departures in one global order — so the
merged :class:`~repro.shard.cluster.ClusterResult` digest is identical
at every shard count and for in-process vs process-backed workers.
Exact packet conservation across the fabric is *checked*, not assumed:
any imbalance raises.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from repro.fabric.network import FabricNetwork
from repro.metrics.stats import summarize_ns
from repro.overlay.wirefmt import CLS_NAMES, WireBatch
from repro.shard.cluster import (
    CROSS_HEADER_BYTES,
    ClusterConfig,
    ClusterResult,
)
from repro.shard.worker import PipeShardWorker, ShardWorker, partition_hosts

__all__ = ["run_cluster"]


def run_cluster(config: ClusterConfig, *, shards: int = 1,
                processes: Optional[bool] = None) -> ClusterResult:
    """Run one cluster scenario across *shards* workers.

    ``processes`` selects the worker backend: ``None`` (default) uses
    subprocesses whenever ``shards > 1``; ``False`` forces everything
    in-process (useful for tests and debugging — results are identical
    by construction).
    """
    partitions = partition_hosts(config.hosts, shards,
                                 topology=config.topology)
    shards = len(partitions)
    if processes is None:
        processes = shards > 1
    worker_cls = PipeShardWorker if processes else ShardWorker

    # One fabric instance, owned by the executor: per-link FIFO state
    # persists across barriers, and transit consumes the union of every
    # shard's departures — so arrivals and fabric statistics are
    # identical at any shard count.
    fabric = FabricNetwork(config.topology, seed=config.seed,
                           header_bytes=CROSS_HEADER_BYTES)
    if config.flow_export is not None:
        # Executor-owned link collector: samples the globally sorted
        # transit stream, so its records are shard-count independent
        # like the fabric stats.
        from repro.flows import FabricFlowTap, FlowCollector
        fabric.flows = FabricFlowTap(
            FlowCollector(config.flow_export, scope="fabric",
                          seed=config.seed),
            host_names=[h.name for h in config.topology.hosts],
            dir_names=fabric._dir_names,
            cls_names=CLS_NAMES)

    build_start = time.perf_counter()
    workers = [worker_cls(config, block) for block in partitions]
    #: host id -> owning shard index, dense (hosts are 0..n-1).
    host_shard: List[int] = [0] * config.hosts
    for i, block in enumerate(partitions):
        for host in block:
            host_shard[host] = i
    build_s = time.perf_counter() - build_start

    horizon = config.lookahead_ns
    end = config.end_ns
    routed_total = 0
    windows = 0
    in_flight = 0
    inboxes: List[Optional[WireBatch]] = [None] * len(workers)
    run_start = time.perf_counter()
    try:
        t = 0
        while t < end:
            t = min(t + horizon, end)
            windows += 1
            if fabric.flows is not None:
                # Barrier-aligned expiry on the sim clock: the window
                # sequence is a pure function of the config, so the
                # fabric collector expires identically at any shard
                # count.
                fabric.flows.collector.expire(t)
            for worker, inbox in zip(workers, inboxes):
                worker.post_step(t, inbox)
            outs = [worker.wait_step() for worker in workers]
            inboxes = [None] * len(workers)
            batch: Optional[WireBatch] = None
            for out in outs:
                if out is None or not len(out):
                    continue
                if batch is None:
                    batch = out
                else:
                    batch.extend(out)
            if batch is None:
                # Empty window: nothing to sort, transit, or route.
                continue
            if t >= end:
                # The measurement window is over: whatever departed in
                # the last window stays on the fabric, counted in-flight.
                in_flight = len(batch)
                continue
            # No pre-sort needed: transit re-sorts departure-major with
            # the full wire key as tie-break (duplicates keep
            # concatenation order either way, sorts being stable) and
            # returns the batch already in wire order.
            batch = fabric.transit_batch(batch)
            routed_total += len(batch)
            if len(workers) == 1:
                inboxes = [batch]
            else:
                shard_rows: List[List[int]] = [[] for _ in workers]
                for row, dst in enumerate(batch.dst):
                    shard_rows[host_shard[dst]].append(row)
                inboxes = [batch.take(rows) if rows else None
                           for rows in shard_rows]
        run_s = time.perf_counter() - run_start
        host_results: Dict[int, dict] = {}
        for worker in workers:
            host_results.update(worker.finalize())
    finally:
        for worker in workers:
            worker.close()

    fabric_flows = None
    if fabric.flows is not None:
        fabric_flows = fabric.flows.collector.finalize()
    return _merge(config, host_results, shards=shards,
                  routed_total=routed_total, in_flight=in_flight,
                  windows=windows, fabric=fabric.stats(),
                  fabric_flows=fabric_flows,
                  timing={"build_s": build_s, "run_s": run_s,
                          "processes": bool(processes)})


def _merge(config: ClusterConfig, host_results: Dict[int, dict], *,
           shards: int, routed_total: int, in_flight: int, windows: int,
           fabric: Dict[str, object],
           timing: Dict[str, object],
           fabric_flows: Optional[dict] = None) -> ClusterResult:
    """Deterministically merge per-host results and check conservation."""
    hosts = [host_results[i] for i in sorted(host_results)]
    if len(hosts) != config.hosts:
        raise RuntimeError(f"merged {len(hosts)} host results, "
                           f"expected {config.hosts}")

    # Flow blocks are popped *before* the host dicts reach the digest
    # payload: the cluster digest stays the pure simulation outcome,
    # and the merged record set gets its own digest below.
    flows = None
    if config.flow_export is not None:
        from repro.flows.records import merge_flow_blocks
        blocks = [host.pop("flows") for host in hosts]
        if fabric_flows is not None:
            blocks.append(fabric_flows)
        flows = merge_flow_blocks(
            blocks, sample_rate=config.flow_export.sample_rate)

    samples: List[int] = []
    totals: Dict[str, Dict[str, int]] = {
        cls: {"users": 0, "sent": 0, "replies": 0, "timed_out": 0,
              "outstanding": 0, "late_replies": 0}
        for cls in ("hi", "lo")}
    outbox_total = delivered_total = injected_total = pending_total = 0
    for host in hosts:
        samples.extend(host["fg_samples_ns"])
        for ledger in host["ledgers"]:
            cls = "hi" if ledger["label"].endswith(":hi") else "lo"
            for key in ("users", "sent", "replies", "timed_out",
                        "outstanding", "late_replies"):
                totals[cls][key] += ledger[key]
        cross = host["cross"]
        outbox_total += cross["outbox"]
        delivered_total += cross["delivered"]
        injected_total += cross["injected"]
        pending_total += cross["pending"]
        if cross["unrouted"]:
            raise RuntimeError(
                f"host {host['host']}: {cross['unrouted']} outbox packets "
                f"never drained")

    conservation = {
        "cross_sent": outbox_total,
        "cross_routed": routed_total,
        "cross_in_flight_fabric": in_flight,
        "cross_delivered": delivered_total,
        "cross_injected": injected_total,
        "cross_pending_at_end": pending_total,
        "windows": windows,
        "exact": True,
    }
    # Every packet that ever left a host is routed or still on the
    # fabric; every routed packet reached its destination cell; every
    # delivered packet either injected or is scheduled past the end.
    if outbox_total != routed_total + in_flight:
        raise RuntimeError(
            f"fabric imbalance: sent={outbox_total} != "
            f"routed={routed_total} + in_flight={in_flight}")
    if delivered_total != routed_total:
        raise RuntimeError(
            f"delivery imbalance: routed={routed_total} != "
            f"delivered={delivered_total}")
    if injected_total + pending_total != delivered_total:
        raise RuntimeError(
            f"injection imbalance: delivered={delivered_total} != "
            f"injected={injected_total} + pending={pending_total}")

    return ClusterResult(
        config=config,
        hosts=hosts,
        fg_latency=summarize_ns(samples),
        totals=totals,
        conservation=conservation,
        fabric=fabric,
        flows=flows,
        shards=shards,
        timing=timing)
