"""Scenario.on / Topology: the two-host pair has one encoding."""

import warnings

import pytest

from repro.bench.experiment import ExperimentConfig
from repro.bench.runner import config_key
from repro.fabric.spec import Topology
from repro.scenario import ClusterScenario, Scenario


class TestTwoHostAdapter:
    def test_cache_key_identical_to_legacy_overlay(self):
        legacy = Scenario(network="overlay").build()
        via_spec = Scenario.on(Topology.two_host()).build()
        assert via_spec == legacy
        assert config_key(via_spec) == config_key(legacy)

    def test_cache_key_identical_to_legacy_host(self):
        legacy = Scenario(network="host").build()
        via_spec = Scenario.on(Topology.two_host("host")).build()
        assert config_key(via_spec) == config_key(legacy)

    def test_custom_link_maps_onto_the_cost_model(self):
        spec = Topology.two_host(latency_ns=5_000, bytes_per_ns=25.0)
        config = Scenario.on(spec).build()
        assert config.costs.wire_latency_ns == 5_000
        assert config.costs.wire_bytes_per_ns == 25.0

    def test_mode_and_seed_forward(self):
        config = Scenario.on(Topology.two_host(), mode="prism-sync",
                             seed=9).build()
        assert config.mode.value == "prism-sync"
        assert config.seed == 9

    def test_cluster_knobs_rejected(self):
        with pytest.raises(TypeError, match="no cluster knobs"):
            Scenario.on(Topology.two_host(), users=100)


class TestPositionalNetworkDeprecation:
    """The deprecated positional ``network`` argument is gone."""

    def test_keyword_form_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            Scenario(network="overlay")
            Scenario.on(Topology.two_host())

    def test_conflicting_forms_rejected(self):
        with pytest.raises(TypeError, match="positional"):
            Scenario("vanilla", "host")
        with pytest.raises(TypeError, match="positional"):
            Scenario("vanilla", "host", network="overlay")


class TestClusterDispatch:
    def test_fat_tree_spec_becomes_a_cluster_scenario(self):
        spec = Topology.fat_tree(4, hosts=8)
        scenario = Scenario.on(spec, users=500)
        assert isinstance(scenario, ClusterScenario)
        config = scenario.build()
        assert config.hosts == 8
        assert config.topology == spec
        assert config.users == 500

    def test_mesh_spec_is_the_default_cluster_fabric(self):
        scenario = Scenario.on(Topology.mesh(4))
        assert isinstance(scenario, ClusterScenario)
        assert scenario.build() == ClusterScenario(4).build()
        custom = Scenario.on(Topology.mesh(4, latency_ns=60_000)).build()
        assert custom.topology == Topology.mesh(4, latency_ns=60_000)
        assert custom.lookahead_ns == 60_000

    def test_heterogeneous_mesh_keeps_its_spec(self):
        spec = Topology.mesh(3)
        links = list(spec.links)
        links[0] = links[0].__class__(links[0].a, links[0].b,
                                      latency_ns=1_000, bytes_per_ns=12.5)
        uneven = spec.__class__(kind=spec.kind, hosts=spec.hosts,
                                links=tuple(links))
        config = Scenario.on(uneven).build()
        assert config.topology == uneven
        assert config.lookahead_ns == 1_000

    def test_topology_method_follows_the_spec_host_count(self):
        spec = Topology.fat_tree(4, hosts=8)
        scenario = Scenario.cluster(4).topology(spec)
        assert scenario.build().hosts == 8
        assert scenario.topology(None).build().topology == Topology.mesh(8)


class TestExperimentConfigSerde:
    def test_topology_absent_when_none(self):
        # The pair is named by ``network`` alone: no topology field.
        assert "topology" not in ExperimentConfig().to_dict()
        assert not hasattr(ExperimentConfig(), "topology")

    def test_round_trip_with_topology(self):
        # A config built from a two-host spec round-trips as the
        # network string plus the cost model's wire fields.
        config = Scenario.on(Topology.two_host("host",
                                               latency_ns=9_000)).build()
        data = config.to_dict()
        assert data["network"] == "host"
        assert data["costs"]["wire_latency_ns"] == 9_000
        assert ExperimentConfig.from_dict(data) == config


class TestClusterCli:
    def test_shards_exceeding_hosts_is_an_upfront_error(self, capsys):
        from repro.__main__ import main
        with pytest.raises(SystemExit) as exc:
            main(["--cluster", "4", "--shards", "8"])
        assert exc.value.code == 2
        assert "exceeds --cluster" in capsys.readouterr().err

    def test_zero_shards_rejected(self, capsys):
        from repro.__main__ import main
        with pytest.raises(SystemExit):
            main(["--cluster", "4", "--shards", "0"])
        assert "--shards must be >= 1" in capsys.readouterr().err
