"""Scenario / Topology: the two-host pair is ``network`` plus the cost
model's wire fields; a cluster runs on a ``TopologySpec``."""

import pickle
import warnings

import pytest

from repro.bench.digest import jsonable
from repro.bench.experiment import ExperimentConfig
from repro.fabric.spec import Topology
from repro.scenario import ClusterScenario, Scenario


class TestPositionalNetworkDeprecation:
    """The deprecated positional ``network`` argument is gone."""

    def test_keyword_form_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            Scenario(network="overlay")

    def test_conflicting_forms_rejected(self):
        with pytest.raises(TypeError, match="positional"):
            Scenario("vanilla", "host")
        with pytest.raises(TypeError, match="positional"):
            Scenario("vanilla", "host", network="overlay")


class TestClusterDispatch:
    def test_fat_tree_spec_becomes_a_cluster_scenario(self):
        spec = Topology.fat_tree(4, hosts=8)
        scenario = Scenario.cluster(users=500).topology(spec)
        assert isinstance(scenario, ClusterScenario)
        config = scenario.build()
        assert config.hosts == 8
        assert config.topology == spec
        assert config.users == 500

    def test_mesh_spec_is_the_default_cluster_fabric(self):
        scenario = Scenario.cluster(4).topology(Topology.mesh(4))
        assert isinstance(scenario, ClusterScenario)
        assert scenario.build() == ClusterScenario(4).build()
        custom = (Scenario.cluster(4)
                  .topology(Topology.mesh(4, latency_ns=60_000)).build())
        assert custom.topology == Topology.mesh(4, latency_ns=60_000)
        assert custom.lookahead_ns == 60_000

    def test_heterogeneous_mesh_keeps_its_spec(self):
        spec = Topology.mesh(3)
        links = list(spec.links)
        links[0] = links[0].__class__(links[0].a, links[0].b,
                                      latency_ns=1_000, bytes_per_ns=12.5)
        uneven = spec.__class__(kind=spec.kind, hosts=spec.hosts,
                                links=tuple(links))
        config = Scenario.cluster(3).topology(uneven).build()
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
        assert "topology" not in jsonable(ExperimentConfig())
        assert not hasattr(ExperimentConfig(), "topology")

    def test_round_trip_with_topology(self):
        # A two-host pair with a custom wire round-trips as the
        # network string plus the cost model's wire fields.
        config = (Scenario(network="host")
                  .costs(wire_latency_ns=9_000).build())
        data = jsonable(config)
        assert data["network"] == "host"
        assert data["costs"]["wire_latency_ns"] == 9_000
        assert pickle.loads(pickle.dumps(config)) == config


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
