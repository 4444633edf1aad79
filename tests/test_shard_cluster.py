"""Shard determinism, conservation, and windowed-execution contracts.

The space-parallel executor's one promise: *how* a cluster is executed
(shard count, in-process vs subprocess workers, window count) never
changes *what* it computes.  These tests pin that promise:

1. digests identical at ``shards=1/2/4`` and, for drawn meshes and a
   small fat-tree, at 1, 2 and one shard per host (and subprocess ==
   in-process);
2. exact cross-fabric packet conservation, loss-free and under faults,
   with per-host kernel :class:`PacketLedger` balance preserved;
3. back-to-back isolation (mirrors ``test_fastpath_golden``): two runs
   in one process are digest-identical;
4. the windowed :class:`ExperimentCell` path is byte-identical to the
   monolithic single-run engine — the single-shard ⇔ today's-engine
   equivalence the sharded machinery is built on.
"""

from __future__ import annotations

import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.experiment import ExperimentConfig, run_experiment
from repro.bench.cell import ExperimentCell
from repro.bench.digest import jsonable
from repro.bench.runner import result_digest
from repro.fabric.spec import Topology
from repro.faults.plan import FaultPlan, PacketLoss
from repro.prism.mode import StackMode
from repro.shard import (
    ClusterConfig,
    HostCell,
    cluster_digest,
    partition_hosts,
    run_cluster,
)
from repro.sim.units import MS


def _small_cluster(**overrides) -> ClusterConfig:
    knobs = dict(hosts=4, users=200, duration_ns=8 * MS, warmup_ns=2 * MS,
                 timeout_ns=5 * MS)
    knobs.update(overrides)
    return ClusterConfig(**knobs)


# ----------------------------------------------------------------------
# Determinism across shard counts and worker backends
# ----------------------------------------------------------------------
def test_digest_identical_across_shard_counts():
    config = _small_cluster()
    digests = {
        shards: cluster_digest(run_cluster(config, shards=shards,
                                           processes=False))
        for shards in (1, 2, 4)}
    assert len(set(digests.values())) == 1, digests


# Small fabrics: 2-6 host meshes and a truncated k=4 fat-tree.
TOPOLOGIES = st.one_of(st.integers(2, 6).map(Topology.mesh),
                       st.just(Topology.fat_tree(4, hosts=8)))
CLUSTERS = st.builds(
    lambda spec, users, seed, mode: ClusterConfig(
        hosts=spec.host_count, users=users, seed=seed, mode=mode,
        duration_ns=3 * MS, warmup_ns=1 * MS, timeout_ns=5 * MS,
        topology=spec),
    TOPOLOGIES, st.integers(1, 400), st.integers(0, 2**16),
    st.sampled_from(list(StackMode)))


def _digests_by_shard_count(config, *, processes):
    """Digest at 1 shard, 2 shards and one shard per host."""
    return {shards: cluster_digest(run_cluster(config, shards=shards,
                                               processes=processes))
            for shards in (1, 2, config.hosts)}


@settings(max_examples=20, deadline=None)
@given(CLUSTERS)
def test_digest_independent_of_shard_count_property(config):
    digests = _digests_by_shard_count(config, processes=False)
    assert len(set(digests.values())) == 1, digests


def test_digest_independent_of_shard_count_in_subprocesses():
    config = ClusterConfig(hosts=3, users=150, seed=11,
                           mode=StackMode.PRISM_SYNC, duration_ns=3 * MS,
                           warmup_ns=1 * MS, timeout_ns=5 * MS)
    in_process = _digests_by_shard_count(config, processes=False)
    subprocesses = _digests_by_shard_count(config, processes=True)
    assert len(set(in_process.values()) | set(subprocesses.values())) == 1


def test_subprocess_workers_match_in_process():
    config = _small_cluster(hosts=3, users=120)
    in_process = run_cluster(config, shards=3, processes=False)
    subprocesses = run_cluster(config, shards=3, processes=True)
    assert cluster_digest(in_process) == cluster_digest(subprocesses)


def test_back_to_back_cluster_runs_are_identical():
    """No cross-run state leaks through the sharded path either."""
    config = _small_cluster(hosts=2, users=80)
    first = cluster_digest(run_cluster(config, shards=1))
    second = cluster_digest(run_cluster(config, shards=1))
    assert first == second


# ----------------------------------------------------------------------
# Exact conservation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shards", [1, 2, 4])
def test_cross_fabric_conservation_loss_free(shards):
    result = run_cluster(_small_cluster(), shards=shards, processes=False)
    c = result.conservation
    assert c["exact"]
    assert c["cross_sent"] == c["cross_routed"] + c["cross_in_flight_fabric"]
    assert (c["cross_injected"] + c["cross_pending_at_end"]
            == c["cross_delivered"])
    for cls in ("hi", "lo"):
        t = result.totals[cls]
        assert t["sent"] == t["replies"] + t["timed_out"] + t["outstanding"]
    # Loss-free run: no user ever had to give up on a request.
    assert result.totals["hi"]["timed_out"] == 0


@pytest.mark.parametrize("shards", [1, 2])
def test_conservation_under_faults(shards):
    plan = FaultPlan(losses=(PacketLoss(site="wire", p=0.05),))
    config = _small_cluster(hosts=3, users=150, faults=plan)
    result = run_cluster(config, shards=shards, processes=False)
    assert result.conservation["exact"]
    dropped = 0
    for host in result.hosts:
        report = host["conservation"]
        assert report["balanced"], report
        dropped += report["dropped"]
    assert dropped > 0, "5% wire loss dropped nothing — fault not installed"
    # Lost requests/replies surface as timeouts, and the ledgers still
    # balance exactly (credits reclaimed, no deadlocked users).
    timed_out = sum(result.totals[cls]["timed_out"] for cls in ("hi", "lo"))
    assert timed_out > 0


def test_faulty_run_digest_stable_across_shards():
    plan = FaultPlan(losses=(PacketLoss(site="wire", p=0.05),))
    config = _small_cluster(hosts=3, users=90, faults=plan)
    one = run_cluster(config, shards=1, processes=False)
    three = run_cluster(config, shards=3, processes=False)
    assert cluster_digest(one) == cluster_digest(three)


# ----------------------------------------------------------------------
# Windowed cell == monolithic engine (the shards=1 byte-identity basis)
# ----------------------------------------------------------------------
def test_windowed_experiment_cell_matches_monolithic_run():
    config = ExperimentConfig(
        mode=StackMode.VANILLA, network="overlay", fg_rate_pps=2_000,
        bg_rate_pps=120_000.0, duration_ns=12 * MS, warmup_ns=3 * MS)
    monolithic = result_digest(run_experiment(config))

    cell = ExperimentCell(config)
    horizon, step = 0, 50_000  # the cluster executor's default lookahead
    while horizon < cell.end_ns:
        horizon = min(horizon + step, cell.end_ns)
        cell.run_to(horizon)
    assert result_digest(cell.finalize()) == monolithic


# ----------------------------------------------------------------------
# Building blocks
# ----------------------------------------------------------------------
def test_partition_hosts_balanced_and_complete():
    assert partition_hosts(16, 4) == [[0, 1, 2, 3], [4, 5, 6, 7],
                                      [8, 9, 10, 11], [12, 13, 14, 15]]
    blocks = partition_hosts(5, 3)
    assert sorted(h for block in blocks for h in block) == list(range(5))
    assert max(len(b) for b in blocks) - min(len(b) for b in blocks) <= 1
    assert partition_hosts(2, 8) == [[0], [1]]  # never more shards than hosts


def test_lookahead_violation_is_detected():
    from repro.overlay.wirefmt import CLS_CODE, KIND_CODE, WireBatch

    cell = HostCell(_small_cluster(hosts=2, users=2), 0)
    cell.run_to(1 * MS)
    stale = WireBatch()
    stale.append(1, 0, CLS_CODE["hi"], KIND_CODE["req"], 1, 0, 500_000,
                 16, 0)
    with pytest.raises(RuntimeError, match="lookahead violation"):
        cell.deliver_rows(stale, [0])


def test_cluster_config_roundtrips_through_dict():
    """Shard subprocesses get the config pickled; ``ClusterResult.to_dict``
    writes its :func:`jsonable` dict, which survives JSON unchanged."""
    plan = FaultPlan(losses=(PacketLoss(site="eth", p=0.01),))
    config = _small_cluster(mode=StackMode.PRISM_SYNC, faults=plan)
    assert pickle.loads(pickle.dumps(config)) == config
    data = jsonable(config)
    assert json.loads(json.dumps(data)) == data
    assert data["mode"] == ["StackMode", "prism-sync"]
    assert data["faults"]["losses"][0]["p"] == repr(0.01)


def test_wire_format_roundtrip_and_ordering():
    from repro.overlay.wirefmt import CLS_CODE, KIND_CODE, WireBatch

    batch = WireBatch()
    # b first: (src 1, dst 0, lo, reply, seq 3), then a: (0, 1, hi, req, 7).
    batch.append(1, 0, CLS_CODE["lo"], KIND_CODE["reply"], 3, 20, 60, 32, 5)
    batch.append(0, 1, CLS_CODE["hi"], KIND_CODE["req"], 7, 10, 60, 16, 10)
    decoded = WireBatch.decode(batch.encode())
    assert decoded.seq == [3, 7] and decoded.sent_at == [5, 10]
    # Equal arrivals break ties on stable flow identity, src first.
    decoded.sort_wire()
    assert decoded.src == [0, 1] and decoded.seq == [7, 3]
    with pytest.raises(ValueError):
        WireBatch.decode(("bogus",))
