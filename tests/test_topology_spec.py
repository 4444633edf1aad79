"""TopologySpec: the frozen single source of truth."""

import dataclasses
import pickle

import pytest

from repro.fabric import (
    ContainerSpec,
    HostSpec,
    LinkSpec,
    Topology,
    TopologySpec,
    equal_cost_paths,
    fat_tree_capacity,
    min_path_latency_ns,
)


class TestSpecValue:
    def test_frozen_and_hashable(self):
        spec = Topology.fat_tree(4, hosts=8)
        assert spec == Topology.fat_tree(4, hosts=8)
        assert hash(spec) == hash(Topology.fat_tree(4, hosts=8))
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.kind = "other"

    def test_round_trip(self):
        """Specs ride inside cluster configs to shard subprocesses."""
        for spec in (Topology.mesh(2), Topology.mesh(4),
                     Topology.fat_tree(4, hosts=8)):
            assert pickle.loads(pickle.dumps(spec)) == spec

    def test_validation(self):
        with pytest.raises(ValueError, match="at least 2"):
            TopologySpec(kind="x", hosts=(HostSpec(0, "a"),))
        with pytest.raises(ValueError, match="dense"):
            TopologySpec(kind="x",
                         hosts=(HostSpec(0, "a"), HostSpec(2, "b")))
        with pytest.raises(ValueError, match="unknown"):
            TopologySpec(kind="x",
                         hosts=(HostSpec(0, "a"), HostSpec(1, "b")),
                         links=(LinkSpec("a", "ghost"),))
        with pytest.raises(ValueError, match="self-link"):
            TopologySpec(kind="x",
                         hosts=(HostSpec(0, "a"), HostSpec(1, "b")),
                         links=(LinkSpec("a", "a"),))
        with pytest.raises(ValueError, match="duplicate container"):
            TopologySpec(
                kind="x",
                hosts=(HostSpec(0, "a", containers=(
                            ContainerSpec("c1", "10.0.0.1"),
                            ContainerSpec("c2", "10.0.0.1"))),
                       HostSpec(1, "b")),
                links=(LinkSpec("a", "b"),))


class TestFatTree:
    def test_capacity(self):
        assert fat_tree_capacity(4) == 16
        assert fat_tree_capacity(8) == 128

    def test_k4_structure(self):
        spec = Topology.fat_tree(4)
        assert spec.host_count == 16
        assert len(spec.switches) == 20  # 4 pods x (2 tor + 2 agg) + 4 core
        tiers = [s.tier for s in spec.switches]
        assert tiers.count("tor") == 8
        assert tiers.count("agg") == 8
        assert tiers.count("core") == 4
        # 16 tor-agg + 16 agg-core + 16 host uplinks
        assert len(spec.links) == 48
        for host in spec.hosts:
            assert host.attach.startswith("t")
            assert len(host.containers) == 2

    def test_truncated_host_count(self):
        spec = Topology.fat_tree(4, hosts=8)
        assert spec.host_count == 8
        assert len(spec.switches) == 20  # full switch fabric kept

    def test_equal_cost_path_counts(self):
        spec = Topology.fat_tree(4)
        # Hosts 0 and 1 share a ToR: one path, two hops.
        assert len(equal_cost_paths(spec, "h0", "h1")) == 1
        # Hosts 0 and 2 share a pod, not a ToR: one path per agg.
        assert len(equal_cost_paths(spec, "h0", "h2")) == 2
        # Inter-pod: one path per core.
        assert len(equal_cost_paths(spec, "h0", "h15")) == 4

    def test_min_path_latency_is_cheapest_pair(self):
        spec = Topology.fat_tree(4, link_latency_ns=25_000)
        assert min_path_latency_ns(spec) == 50_000  # same-ToR, 2 hops

    def test_build_errors(self):
        with pytest.raises(ValueError, match="even"):
            Topology.fat_tree(3)
        with pytest.raises(ValueError, match="holds 2..16"):
            Topology.fat_tree(4, hosts=17)
        with pytest.raises(ValueError, match="holds 2..16"):
            Topology.fat_tree(4, hosts=1)

    def test_containers_per_host(self):
        spec = Topology.fat_tree(4, hosts=4, containers_per_host=3)
        for host in spec.hosts:
            assert len(host.containers) == 3
            assert len({c.ip for c in host.containers}) == 3

    def test_small_trees_keep_historical_container_ips(self):
        # The second-octet spread (10.<i//250>.<i%250>.x) must be a
        # no-op below 250 hosts: every k<=12 placement — and therefore
        # every pinned digest built on one — stays byte-identical.
        spec = Topology.fat_tree(4)
        for host in spec.hosts:
            assert host.containers[0].ip == f"10.0.{host.id}.10"
            assert host.containers[1].ip == f"10.0.{host.id}.11"

    def test_host_250_rolls_into_the_second_octet(self):
        spec = Topology.fat_tree(14, hosts=252)  # k=14 holds 686
        by_index = {h.id: h for h in spec.hosts}
        assert by_index[249].containers[0].ip == "10.0.249.10"
        assert by_index[250].containers[0].ip == "10.1.0.10"
        assert by_index[251].containers[0].ip == "10.1.1.10"
        # No collisions anywhere.
        ips = [c.ip for h in spec.hosts for c in h.containers]
        assert len(ips) == len(set(ips))

    def test_ip_scheme_cap_is_62500(self):
        with pytest.raises(ValueError, match="62500"):
            Topology.fat_tree(64, hosts=62_501)
