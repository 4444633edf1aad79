"""Wire format v2: columnar batches, fast-path equivalence, golden digests.

The cross-shard path (columnar ``WireBatch`` frames, precomputed fabric
route tables, barriers that never build per-packet objects) is pinned
here:

- batch encode/decode is an exact round trip (property-tested),
  including through pickle (the worker-pipe representation);
- v1 per-packet frames are rejected with a clear version error;
- the columnar sort equals a stable sort of plain row tuples by
  (arrival, src, dst, cls, kind, seq) — the reference order, kept in
  this file — including tie-breaks;
- the BFS-based ``min_path_latency_ns`` equals brute-force path
  enumeration on every topology family;
- cluster digests are identical at shards 1/2/4, in-process and
  subprocess, and the quick vanilla fat-tree survival cell matches its
  pinned measurement digest;
- a shard worker killed mid-run surfaces a clean ``RuntimeError``
  instead of hanging ``close()``.
"""

import os
import pickle
import signal
import time
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fabric.experiment import priority_survival_config
from repro.fabric.network import equal_cost_paths, min_path_latency_ns
from repro.fabric.spec import Topology
from repro.overlay.wirefmt import (
    CLS_CODE,
    CLS_NAMES,
    EMPTY_FRAME,
    KIND_CODE,
    KIND_NAMES,
    WIRE_VERSION,
    WireBatch,
)
from repro.prism.mode import StackMode
from repro.shard.cluster import ClusterConfig, cluster_digest
from repro.shard.executor import run_cluster
from repro.shard.worker import PipeShardWorker
from repro.sim.units import MS

FAT8 = Topology.fat_tree(4, hosts=8)


class Row(NamedTuple):
    """One wire packet as a plain record, with named cls/kind."""

    src_host: int
    dst_host: int
    cls: str
    kind: str
    seq: int
    departure_ns: int
    arrival_ns: int
    payload_len: int
    sent_at: int


def reference_sort_key(row: Row):
    """The reference wire order: arrival first, then flow identity,
    then send order; ``sorted`` keeps ties stable."""
    return (row.arrival_ns, row.src_host, row.dst_host, row.cls, row.kind,
            row.seq)


def to_batch(rows) -> WireBatch:
    batch = WireBatch()
    for r in rows:
        batch.append(r.src_host, r.dst_host, CLS_CODE[r.cls],
                     KIND_CODE[r.kind], r.seq, r.departure_ns, r.arrival_ns,
                     r.payload_len, r.sent_at)
    return batch


def to_rows(batch: WireBatch):
    return [Row(*fields) for fields in zip(
        batch.src, batch.dst, [CLS_NAMES[c] for c in batch.cls],
        [KIND_NAMES[k] for k in batch.kind], batch.seq, batch.departure,
        batch.arrival, batch.payload_len, batch.sent_at)]


wire_packets = st.builds(
    Row,
    src_host=st.integers(min_value=0, max_value=7),
    dst_host=st.integers(min_value=8, max_value=15),
    cls=st.sampled_from(CLS_NAMES),
    kind=st.sampled_from(KIND_NAMES),
    seq=st.integers(min_value=0, max_value=2**40),
    departure_ns=st.integers(min_value=0, max_value=2**50),
    arrival_ns=st.integers(min_value=2**50, max_value=2**51),
    payload_len=st.integers(min_value=0, max_value=9000),
    sent_at=st.integers(min_value=0, max_value=2**50),
)


class TestBatchRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(wire_packets, max_size=40))
    def test_encode_decode_is_identity(self, packets):
        batch = to_batch(packets)
        frame = batch.encode()
        assert frame[0] == WIRE_VERSION
        assert frame[1] == len(packets)
        assert to_rows(WireBatch.decode(frame)) == packets

    @settings(max_examples=20, deadline=None)
    @given(st.lists(wire_packets, max_size=40))
    def test_round_trip_through_pickle(self, packets):
        # The frame is exactly what crosses the worker pipe.
        frame = pickle.loads(pickle.dumps(to_batch(packets).encode()))
        assert to_rows(WireBatch.decode(frame)) == packets

    def test_empty_frame_is_shared_and_decodes_empty(self):
        assert EMPTY_FRAME[1] == 0
        assert len(WireBatch.decode(EMPTY_FRAME)) == 0
        assert WireBatch().encode() == EMPTY_FRAME

    def test_extend_and_take(self):
        a = [Row(0, 1, "hi", "req", i, i, i + 10, 64, i) for i in range(4)]
        b = [Row(2, 3, "lo", "reply", i, i, i + 10, 32, i) for i in range(3)]
        batch = to_batch(a)
        batch.extend(to_batch(b))
        assert to_rows(batch) == a + b
        assert to_rows(batch.take([5, 0, 6])) == [b[1], a[0], b[2]]

    def test_v1_frame_rejected_with_version_error(self):
        v1_frame = (1, 0, 7, "hi", "req", 0, 0, 50_000, 64, 0)
        with pytest.raises(ValueError, match="bad wire frame version: 1"):
            WireBatch.decode(v1_frame)
        with pytest.raises(ValueError, match="wire format v2"):
            WireBatch.decode(("bogus",))

    def test_corrupt_columns_rejected(self):
        frame = list(to_batch(
            [Row(0, 1, "hi", "req", 0, 0, 10, 64, 0)]).encode())
        frame[1] = 2  # length disagrees with the columns
        with pytest.raises(ValueError, match="column lengths"):
            WireBatch.decode(tuple(frame))
        # arrival before departure
        bad = WireBatch()
        bad.append(0, 1, 0, 1, 0, 100, 50, 64, 0)
        with pytest.raises(ValueError, match="before it"):
            WireBatch.decode(bad.encode())
        # self-routed
        bad = WireBatch()
        bad.append(3, 3, 0, 1, 0, 0, 50, 64, 0)
        with pytest.raises(ValueError, match="routed to itself"):
            WireBatch.decode(bad.encode())


class TestBatchSortEquivalence:
    # Narrow ranges force heavy key collisions, exercising tie-breaks
    # and the stable-sort emulation.
    colliding = st.builds(
        Row,
        src_host=st.integers(min_value=0, max_value=2),
        dst_host=st.integers(min_value=3, max_value=5),
        cls=st.sampled_from(CLS_NAMES),
        kind=st.sampled_from(KIND_NAMES),
        seq=st.integers(min_value=0, max_value=3),
        departure_ns=st.integers(min_value=0, max_value=4),
        arrival_ns=st.integers(min_value=5, max_value=9),
        payload_len=st.just(64),
        sent_at=st.integers(min_value=0, max_value=2),
    )

    @settings(max_examples=60, deadline=None)
    @given(st.lists(colliding, max_size=60))
    def test_sort_wire_matches_object_sort(self, packets):
        batch = to_batch(packets)
        batch.sort_wire()
        assert to_rows(batch) == sorted(packets, key=reference_sort_key)

    def test_code_order_equals_string_order(self):
        # sort_wire compares small-int codes where the reference sort
        # compares names; the tables must enumerate in lexicographic
        # order for the two sorts to agree.
        assert list(CLS_NAMES) == sorted(CLS_NAMES)
        assert list(KIND_NAMES) == sorted(KIND_NAMES)


class TestMinPathLatency:
    @pytest.mark.parametrize("spec", [
        Topology.mesh(2),
        Topology.mesh(5),
        Topology.fat_tree(4),
    ], ids=["two_host", "mesh", "fat_tree_k4"])
    def test_bfs_matches_brute_force_enumeration(self, spec):
        brute = None
        for i, a in enumerate(spec.hosts):
            for b in spec.hosts[i + 1:]:
                for path in equal_cost_paths(spec, a.name, b.name):
                    latency = sum(spec.links[index].latency_ns
                                  for index, _direction in path)
                    if brute is None or latency < brute:
                        brute = latency
        assert min_path_latency_ns(spec) == brute

    def test_paths_are_minimum_hop_and_deterministic(self):
        first = equal_cost_paths(FAT8, "h0", "h7")
        assert first == equal_cost_paths(FAT8, "h0", "h7")
        lengths = {len(path) for path in first}
        assert len(lengths) == 1  # all equal cost (hops)


class TestGoldenDigests:
    def test_digest_identical_at_shards_1_2_4(self):
        config = ClusterConfig(hosts=8, users=600, duration_ns=4 * MS,
                               warmup_ns=1 * MS, seed=3, topology=FAT8)
        one = run_cluster(config, shards=1)
        two = run_cluster(config, shards=2, processes=False)
        four = run_cluster(config, shards=4, processes=True)
        digests = {cluster_digest(r) for r in (one, two, four)}
        assert len(digests) == 1, digests
        assert one.fabric == two.fabric == four.fabric

    def test_digest_matches_committed_fabric_baseline(self):
        # The cross-PR fabric golden: a change to anything the cluster
        # measures (latency, per-class totals, conservation, fabric
        # paths) moves this measurement digest.
        config = priority_survival_config(
            StackMode.VANILLA, hosts=8, users=2_000,
            duration_ns=int(8 * MS))
        assert cluster_digest(run_cluster(config, shards=1)) == (
            "441f1accf3aa081a948c604420b507664d7a69edc0f2663115b884eb67fdd68e")

    def test_digest_matches_committed_mesh_baseline(self):
        # The cross-PR golden of the default fabric, Topology.mesh(4):
        # one direct link per host pair, one srv container per host.
        config = ClusterConfig(hosts=4, users=200, duration_ns=8 * MS,
                               warmup_ns=2 * MS, timeout_ns=5 * MS)
        assert cluster_digest(run_cluster(config, shards=1)) == (
            "8d7adad5ee4332c2462c146c0204019b45cf5688f17d379b7c081fb9226fe524")


class TestWorkerDeath:
    def _tiny_config(self):
        return ClusterConfig(hosts=2, users=20, duration_ns=2 * MS,
                             warmup_ns=1 * MS, timeout_ns=5 * MS)

    def test_killed_worker_raises_instead_of_hanging(self):
        worker = PipeShardWorker(self._tiny_config(), [0])
        try:
            os.kill(worker._proc.pid, signal.SIGKILL)
            worker._proc.join(timeout=5)
            worker.post_step(1 * MS, None)
            with pytest.raises(RuntimeError,
                               match=r"died without a reply.*exitcode"):
                worker.wait_step()
        finally:
            start = time.perf_counter()
            worker.close()
            # close() must take the already-dead fast path, not wait
            # out join(timeout=10).
            assert time.perf_counter() - start < 5

    def test_killed_worker_surfaces_in_finalize(self):
        worker = PipeShardWorker(self._tiny_config(), [0])
        try:
            worker.post_step(1 * MS, None)
            assert worker.wait_step() is None or True  # drain one window
            os.kill(worker._proc.pid, signal.SIGKILL)
            worker._proc.join(timeout=5)
            with pytest.raises(RuntimeError, match="died without a reply"):
                worker.finalize()
        finally:
            worker.close()

    def test_healthy_worker_still_round_trips(self):
        worker = PipeShardWorker(self._tiny_config(), [0])
        try:
            worker.post_step(1 * MS, None)
            out = worker.wait_step()
            assert out is None or isinstance(out, WireBatch)
            results = None
            worker.post_step(2 * MS, None)
            worker.wait_step()
            results = worker.finalize()
            assert set(results) == {0}
        finally:
            worker.close()
