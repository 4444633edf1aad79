"""Tests for the bench harness: experiment runner, app cells, report."""

import pytest

from repro.bench.experiment import ExperimentConfig, run_experiment
from repro.bench.figures import _app_line
from repro.bench.report import ReproRow, format_experiment_header, format_table
from repro.bench.testbed import build_testbed
from repro.prism.mode import StackMode
from repro.scenario import Scenario
from repro.sim.units import MS

FAST = dict(duration_ns=40 * MS, warmup_ns=10 * MS)


class TestExperimentRunner:
    def test_overlay_pingpong_produces_samples(self):
        result = run_experiment(ExperimentConfig(
            mode=StackMode.VANILLA, fg_rate_pps=2_000, **FAST))
        assert result.fg_latency is not None
        assert result.fg_latency.count > 50
        assert result.fg_replies > 50
        assert result.cpu_utilization < 0.2

    def test_overlay_with_background(self):
        result = run_experiment(ExperimentConfig(
            mode=StackMode.PRISM_SYNC, fg_rate_pps=2_000,
            bg_rate_pps=100_000, **FAST))
        assert result.bg_delivered_pps > 80_000
        assert result.cpu_utilization > 0.15

    def test_host_network_pingpong(self):
        result = run_experiment(ExperimentConfig(
            mode=StackMode.VANILLA, network="host", fg_rate_pps=2_000,
            bg_rate_pps=50_000, **FAST))
        assert result.fg_latency is not None
        assert result.bg_delivered_pps > 40_000

    def test_flood_measures_delivery(self):
        result = run_experiment(ExperimentConfig(
            mode=StackMode.VANILLA, fg_kind="flood", fg_rate_pps=100_000,
            **FAST))
        assert result.fg_latency is None or result.fg_latency.count == 0
        assert result.fg_delivered_pps == pytest.approx(100_000, rel=0.05)

    def test_unknown_network_rejected(self):
        with pytest.raises(ValueError):
            run_experiment(ExperimentConfig(network="quantum"))

    @pytest.mark.parametrize("network,kind,match", [
        ("overlay", "memcahced", "memcahced"),
        ("host", "memcahced", "memcahced"),
        ("host", "memcached", "overlay only"),
        ("host", "web", "overlay only"),
    ])
    def test_bad_fg_kind_rejected(self, network, kind, match):
        with pytest.raises(ValueError, match=match):
            run_experiment(ExperimentConfig(network=network, fg_kind=kind))

    def test_faults_on_host_network_rejected(self):
        """The host ping client has no retry tracker, so a fault plan's
        loss recovery would be silently ignored there: refused."""
        scenario = (Scenario(network="host")
                    .foreground("pingpong", rate_pps=2_000)
                    .timing(**FAST)
                    .with_faults("loss:eth:0.05; retries=3; timeout=2ms"))
        with pytest.raises(ValueError, match="loss recovery runs only on "
                                             "the overlay"):
            scenario.run()

    @pytest.mark.parametrize("kind,name,value", [
        ("memcached", "fg_rate_pps", 5_000.0),
        ("memcached", "fg_payload_len", 64),
        ("web", "fg_rate_pps", 5_000.0),
        ("web", "fg_payload_len", 64),
        ("web", "bg_burst", 8),
    ])
    def test_app_kind_refuses_unused_fields(self, kind, name, value):
        """An application cell ignores these fields, so a non-default
        value would only split the cache key: refused, naming it."""
        config = ExperimentConfig(fg_kind=kind, **{name: value}, **FAST)
        with pytest.raises(ValueError, match=name):
            run_experiment(config)

    def test_label(self):
        config = ExperimentConfig(mode=StackMode.PRISM_SYNC,
                                  bg_rate_pps=300_000)
        assert config.label() == "overlay/prism-sync+bg300k"

    def test_result_str_is_readable(self):
        result = run_experiment(ExperimentConfig(fg_rate_pps=2_000, **FAST))
        text = str(result)
        assert "fg:" in text and "cpu=" in text


class TestAppRunners:
    """The application foregrounds run as ordinary Scenario cells."""

    @staticmethod
    def _idle(kind):
        return (Scenario(mode=StackMode.VANILLA).foreground(kind)
                .timing(**FAST).run())

    def test_memcached_smoke(self):
        result = self._idle("memcached")
        assert result.fg_delivered_pps > 10_000
        assert result.fg_latency is not None

    def test_webserver_smoke(self):
        result = self._idle("web")
        assert result.fg_delivered_pps > 5_000
        completed = result.fg_delivered_pps * FAST["duration_ns"] / 1e9
        assert completed > 100

    def test_app_result_str(self):
        result = self._idle("memcached")
        assert "op/s" in _app_line(result)


class TestReport:
    def test_format_table_alignment(self):
        rows = [
            ReproRow("quantity a", "-50%", "-48%", True),
            ReproRow("much longer quantity name", "~2x", "1.9x", False),
        ]
        table = format_table(rows)
        lines = table.splitlines()
        assert lines[0].startswith("quantity")
        assert "ok" in table and "MISMATCH" in table

    def test_format_table_empty(self):
        assert format_table([]) == "(no rows)"

    def test_header(self):
        header = format_experiment_header("Fig. 9", "something")
        assert "Fig. 9: something" in header

    def test_verdict(self):
        assert ReproRow("q", "p", "m", True).verdict == "ok"
        assert ReproRow("q", "p", "m", False).verdict == "MISMATCH"


class TestTestbed:
    def test_default_layout(self):
        testbed = build_testbed()
        assert str(testbed.server.ip) == "192.168.1.1"
        assert str(testbed.client.ip) == "192.168.1.2"
        assert testbed.server.kernel.mode is StackMode.VANILLA
        assert len(testbed.server.kernel.cpus) == 3

    def test_mode_parameter(self):
        testbed = build_testbed(mode=StackMode.PRISM_SYNC)
        assert testbed.server.kernel.mode is StackMode.PRISM_SYNC

    def test_set_mode_helper(self):
        testbed = build_testbed()
        testbed.set_mode(StackMode.PRISM_BATCH)
        assert testbed.server.kernel.mode is StackMode.PRISM_BATCH

    def test_mark_high_priority_installs_rule(self):
        testbed = build_testbed()
        testbed.mark_high_priority("10.0.0.10", 5000)
        assert len(testbed.server.kernel.priority_db) == 1

    def test_containers_registered(self):
        testbed = build_testbed()
        server_cont = testbed.add_server_container("a", "10.0.0.10")
        client_cont = testbed.add_client_container("b", "10.0.0.100")
        assert testbed.server_containers["a"] is server_cont
        assert testbed.client_containers["b"] is client_cont
        assert len(testbed.overlay) == 2
