"""Fabric behavior: ECMP determinism, flowlets, cluster integration."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fabric import (FabricNetwork, Topology, ecmp_index,
                          min_path_latency_ns)
from repro.fabric.ecmp import FlowletTable
from repro.overlay.wirefmt import CLS_CODE, KIND_CODE, WireBatch
from repro.bench.digest import jsonable
from repro.shard.cluster import ClusterConfig, ClusterResult, cluster_digest
from repro.shard.executor import run_cluster
from repro.shard.worker import partition_hosts
from repro.sim.units import MS

FAT8 = Topology.fat_tree(4, hosts=8)


def small_config(seed=0, **overrides) -> ClusterConfig:
    base = dict(hosts=8, users=600, duration_ns=4 * MS, warmup_ns=1 * MS,
                seed=seed, topology=FAT8)
    base.update(overrides)
    return ClusterConfig(**base)


def requests(departures, *, src=0, dst=7, cls="hi", seqs=None):
    """A batch of 64 B requests, one per departure time."""
    batch = WireBatch()
    for i, departure_ns in enumerate(departures):
        batch.append(src, dst, CLS_CODE[cls], KIND_CODE["req"],
                     i if seqs is None else seqs[i], departure_ns,
                     departure_ns + 50_000, 64, departure_ns)
    return batch


def rows(batch):
    return list(zip(batch.src, batch.dst, batch.cls, batch.kind, batch.seq,
                    batch.departure, batch.arrival, batch.payload_len,
                    batch.sent_at))


class TestEcmpHash:
    def test_deterministic_and_in_range(self):
        flow = (0, 7, "hi", "req")
        first = ecmp_index(7, flow, 0, 4)
        assert first == ecmp_index(7, flow, 0, 4)
        assert 0 <= first < 4
        assert ecmp_index(7, flow, 0, 1) == 0

    def test_salt_generation_and_flow_vary_the_index(self):
        flows = [(s, d, "hi", "req") for s in range(8) for d in range(8)]
        spread = {ecmp_index(0, f, 0, 4) for f in flows}
        assert spread == {0, 1, 2, 3}
        flow = flows[0]
        by_gen = {ecmp_index(0, flow, g, 64) for g in range(32)}
        assert len(by_gen) > 1
        by_salt = {ecmp_index(s, flow, 0, 64) for s in range(32)}
        assert len(by_salt) > 1


class TestFlowletTable:
    def test_within_gap_keeps_the_path(self):
        table = FlowletTable(gap_ns=100_000, salt=1)
        flow = (0, 7, "hi", "req")
        first = table.assign(flow, 0, 4)
        for t in range(10_000, 100_000, 10_000):
            assert table.assign(flow, t, 4) == first
        assert table.rehashes == 0

    def test_idle_gap_rehashes(self):
        table = FlowletTable(gap_ns=100_000, salt=1)
        flow = (0, 7, "hi", "req")
        seen = {table.assign(flow, 0, 8)}
        t = 0
        for _ in range(40):
            t += 200_000  # every send exceeds the idle gap
            seen.add(table.assign(flow, t, 8))
        assert table.rehashes == 40
        assert table.path_changes > 0
        assert len(seen) > 1

    def test_one_path_gap_counts_no_rehash(self):
        """A pair with one path has nothing to rehash onto: idle gaps
        still start new flowlets, but count no rehash."""
        table = FlowletTable(gap_ns=100_000, salt=1)
        flow = (0, 7, "hi", "req")
        for t in range(0, 40 * 200_000, 200_000):
            assert table.assign(flow, t, 1) == 0
        assert (table.rehashes, table.path_changes) == (0, 0)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 2),          # flow
                              st.integers(0, 250_000),    # gap to last send
                              st.sampled_from([1, 2, 4, 8])),  # paths
                    max_size=60))
    def test_hashing_once_per_flowlet_matches_hashing_every_packet(
            self, trace):
        """Reusing a flowlet's index is exactly hashing every packet."""
        gap, salt = 100_000, 3
        table = FlowletTable(gap_ns=gap, salt=salt)
        flows = [(0, 7, "hi", "req"), (1, 7, "lo", "req"),
                 (7, 0, "hi", "rep")]
        last = {}  # flow -> (last departure, generation, index)
        rehashes = path_changes = 0
        now = 0
        for flow_no, delta, n_paths in trace:
            now += delta
            flow = flows[flow_no]
            state = last.get(flow)
            generation = 0 if state is None else state[1]
            if state is not None and now - state[0] > gap:
                generation += 1
                rehashes += n_paths > 1
            index = ecmp_index(salt, flow, generation, n_paths)
            if state is not None and generation != state[1] \
                    and index != state[2]:
                path_changes += 1
            last[flow] = (now, generation, index)
            assert table.assign(flow, now, n_paths) == index
        assert (table.rehashes, table.path_changes) == (rehashes,
                                                         path_changes)


class TestFabricNetwork:
    def test_transit_is_deterministic(self):
        outs = []
        for _ in range(2):
            net = FabricNetwork(FAT8, seed=3)
            out = net.transit_batch(requests(range(0, 50_000, 1_000)))
            outs.append((rows(out), net.stats()))
        assert outs[0] == outs[1]

    def test_arrivals_respect_the_lookahead(self):
        net = FabricNetwork(FAT8, seed=0)
        out = net.transit_batch(requests(range(0, 10_000, 500)))
        lookahead = min_path_latency_ns(FAT8)
        for departure, arrival in zip(out.departure, out.arrival):
            assert arrival >= departure + lookahead

    def test_bursty_flow_spreads_over_paths(self):
        # One flow sending bursts separated by more than the flowlet
        # gap: ECMP alone would pin it to one path, flowlet switching
        # must spread it.
        net = FabricNetwork(FAT8, seed=1)
        departures = []
        t = 0
        for burst in range(12):
            for i in range(3):
                departures.append(t + i * 1_000)
            t += 400_000  # idle gap >> flowlet_gap_ns (100 us)
        net.transit_batch(requests(departures, seqs=[0] * len(departures)))
        stats = net.stats()
        assert stats["flowlet_rehashes"] == 11
        (paths,) = stats["flow_paths"].values()
        assert len(paths) > 1
        assert stats["flowlet_path_changes"] > 0


class TestPartitioning:
    def test_legacy_split_is_unchanged(self):
        assert partition_hosts(16, 4) == [[0, 1, 2, 3], [4, 5, 6, 7],
                                          [8, 9, 10, 11], [12, 13, 14, 15]]
        assert partition_hosts(2, 8) == [[0], [1]]

    def test_rack_aligned_split(self):
        spec16 = Topology.fat_tree(4)
        # k=4 racks hold 2 hosts: every block boundary lands on an even
        # host id, and the union is every host exactly once.
        for shards in (2, 3, 4, 5, 8):
            blocks = partition_hosts(16, shards, topology=spec16)
            assert [h for b in blocks for h in b] == list(range(16))
            assert all(b for b in blocks)
            assert all(b[0] % 2 == 0 for b in blocks)


@pytest.mark.slow
class TestFabricCluster:
    def test_digest_deterministic_and_partition_independent(self):
        config = small_config(seed=3)
        runs = {
            "s1": run_cluster(config, shards=1),
            "s1-again": run_cluster(config, shards=1),
            "s3-inproc": run_cluster(config, shards=3, processes=False),
            "s2-subproc": run_cluster(config, shards=2, processes=True),
        }
        digests = {name: cluster_digest(r) for name, r in runs.items()}
        assert len(set(digests.values())) == 1, digests
        for result in runs.values():
            assert result.conservation["exact"]

    def test_seed_changes_the_digest(self):
        one = run_cluster(small_config(seed=0), shards=1)
        two = run_cluster(small_config(seed=1), shards=1)
        assert cluster_digest(one) != cluster_digest(two)

    def test_fabric_stats_show_ecmp_spread(self):
        result = run_cluster(small_config(), shards=1)
        stats = result.fabric
        assert stats["paths_used_max"] > 1
        assert stats["flows_multipath"] > 0
        assert stats["links_used"] == 48
        assert stats["packets"] == result.conservation["cross_routed"]

    def test_lookahead_is_min_path_latency(self):
        assert small_config().lookahead_ns == 50_000  # 2 hops same-ToR
        mesh = ClusterConfig(hosts=4, topology=Topology.mesh(
            4, latency_ns=70_000))
        assert mesh.lookahead_ns == 70_000

    def test_topology_round_trips_through_to_dict(self):
        """A cluster result holds its config; ``to_dict`` encodes it,
        topology included, with :func:`jsonable`."""
        for config, spec in ((small_config(), FAT8),
                             (ClusterConfig(hosts=4), Topology.mesh(4))):
            assert config.topology == spec
            result = ClusterResult(config=config, hosts=[], fg_latency=None,
                                   totals={}, conservation={}, fabric={})
            assert result.config is config
            assert result.to_dict()["config"]["topology"] == jsonable(spec)

    def test_host_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="describes 8 hosts"):
            ClusterConfig(hosts=4, topology=FAT8)
