"""The kernel-bypass (poll-mode driver) datapath.

BYPASS dedicates the packet core to a user-space busy-poll loop: no
hardirq, no softirq, no per-stage queues, and the core never idles.
These tests pin the mode's semantics: parsing, delivery without any
interrupt machinery, run-to-completion latency beating vanilla's,
determinism, exact conservation under faults, the build-time-only
restriction, and serialization neutrality of the new cost knobs.
"""

import dataclasses
import pickle

import pytest

from repro.bench.digest import jsonable
from repro.bench.experiment import ExperimentConfig, run_experiment
from repro.bench.runner import config_key, result_digest
from repro.bench.testbed import build_testbed
from repro.faults.plan import FaultPlan
from repro.kernel.config import KernelConfig
from repro.kernel.costs import CostModel
from repro.kernel.cpu import CpuContext
from repro.prism.mode import StackMode
from repro.sim.units import MS
from repro.apps.remote import RemoteRequestSender


class TestStackModeParse:
    @pytest.mark.parametrize("text,expected", [
        ("bypass", StackMode.BYPASS),
        ("pmd", StackMode.BYPASS),
        ("busy-poll", StackMode.BYPASS),
        ("af-xdp", StackMode.BYPASS),
        ("AF_XDP", StackMode.BYPASS),
        ("sync", StackMode.PRISM_SYNC),
        ("prism", StackMode.PRISM_SYNC),
        ("batch", StackMode.PRISM_BATCH),
        ("vanilla", StackMode.VANILLA),
    ])
    def test_parse_values_and_aliases(self, text, expected):
        assert StackMode.parse(text) is expected

    def test_error_lists_values_and_aliases(self):
        with pytest.raises(ValueError) as exc:
            StackMode.parse("dpdk")
        message = str(exc.value)
        assert "'dpdk'" in message
        for value in ("vanilla", "prism-batch", "prism-sync", "bypass"):
            assert value in message
        for alias in ("pmd", "busy-poll", "af-xdp", "sync", "batch"):
            assert alias in message

    def test_predicates(self):
        assert StackMode.BYPASS.is_bypass
        assert not StackMode.BYPASS.is_prism
        assert not StackMode.VANILLA.is_bypass
        assert StackMode.PRISM_SYNC.is_prism


def _bypass_testbed():
    testbed = build_testbed(mode=StackMode.BYPASS)
    server = testbed.add_server_container("srv", "10.0.0.10")
    client = testbed.add_client_container("cli", "10.0.0.100")
    socket = server.udp_socket(5000, core_id=1)
    sender = RemoteRequestSender(testbed.client, testbed.overlay,
                                 client, "10.0.0.10")
    return testbed, socket, sender


class TestBypassDelivery:
    def test_burst_delivered_without_any_interrupt(self):
        testbed, socket, sender = _bypass_testbed()
        for _ in range(100):
            sender.send_udp(src_port=40000, dst_port=5000,
                            payload=None, payload_len=32)
        testbed.sim.run(until=20 * MS)
        assert socket.delivered == 100
        stats = testbed.server.kernel.cpu(0).stats
        assert stats.hardirqs == 0
        assert stats.ns[CpuContext.SOFTIRQ] == 0
        assert stats.softirq_invocations == 0

    def test_packet_core_never_idles(self):
        # The PMD spins in C0: no idle time, no C-state exits, ever.
        testbed, socket, sender = _bypass_testbed()
        for _ in range(10):
            sender.send_udp(src_port=40000, dst_port=5000,
                            payload=None, payload_len=32)
        testbed.sim.run(until=20 * MS)
        stats = testbed.server.kernel.cpu(0).stats
        assert stats.ns[CpuContext.IDLE] == 0
        assert stats.ns[CpuContext.CSTATE_EXIT] == 0
        assert stats.cstate_wakeups == 0

    def test_pmd_counters_account_every_packet(self):
        testbed, socket, sender = _bypass_testbed()
        for _ in range(50):
            sender.send_udp(src_port=40000, dst_port=5000,
                            payload=None, payload_len=32)
        testbed.sim.run(until=20 * MS)
        pmd = testbed.server.nic._pmd
        assert pmd is not None
        assert pmd.packets == 50
        assert 1 <= pmd.batches <= 50
        assert pmd.idle_spins >= 1

    def test_irq_machinery_stays_untouched(self):
        testbed, socket, sender = _bypass_testbed()
        sender.send_udp(src_port=40000, dst_port=5000,
                        payload=None, payload_len=32)
        testbed.sim.run(until=5 * MS)
        nic = testbed.server.nic
        assert nic.irq_enabled  # never masked
        assert nic._irq_timer is None


def _experiment(mode, **overrides):
    kwargs = dict(mode=mode, network="overlay", fg_rate_pps=1_000,
                  bg_rate_pps=300_000.0, duration_ns=10 * MS,
                  warmup_ns=2 * MS)
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


class TestBypassExperiment:
    def test_bypass_beats_vanilla_p99(self):
        bypass = run_experiment(_experiment(StackMode.BYPASS))
        vanilla = run_experiment(_experiment(StackMode.VANILLA))
        assert bypass.fg_latency.p99_ns < vanilla.fg_latency.p99_ns
        assert bypass.fg_latency.p50_ns < vanilla.fg_latency.p50_ns
        assert bypass.cpu_utilization > 0.99  # the burned core
        assert bypass.softirq_fraction == 0.0

    def test_rerun_digest_identical(self):
        config = _experiment(StackMode.BYPASS)
        assert (result_digest(run_experiment(config))
                == result_digest(run_experiment(config)))

    @pytest.mark.parametrize("spec", [
        "loss:eth:0.05; retries=3; timeout=2ms",
        "loss:wire:0.03; flap@3ms+1ms!; retries=3; timeout=2ms",
    ])
    def test_conservation_exact_under_faults(self, spec):
        config = _experiment(StackMode.BYPASS, faults=FaultPlan.parse(spec))
        result = run_experiment(config)
        assert result.conservation["balanced"]


class TestBuildTimeOnly:
    def test_runtime_switch_out_of_bypass_rejected(self):
        testbed = build_testbed(mode=StackMode.BYPASS)
        with pytest.raises(ValueError, match="build time"):
            testbed.set_mode(StackMode.VANILLA)

    def test_runtime_switch_into_bypass_rejected(self):
        testbed = build_testbed(mode=StackMode.VANILLA)
        with pytest.raises(ValueError, match="build time"):
            testbed.set_mode(StackMode.BYPASS)

    def test_same_mode_is_a_no_op(self):
        testbed = build_testbed(mode=StackMode.BYPASS)
        testbed.set_mode(StackMode.BYPASS)
        assert testbed.server.kernel.mode is StackMode.BYPASS


class TestSerializationNeutrality:
    """New knobs are encoded into the cache key and survive the trip to
    a pool worker, and a knob a mode ignores leaves that mode's
    measurements untouched."""

    def test_default_dict_writes_every_knob(self):
        wire = jsonable(ExperimentConfig(costs=CostModel(),
                                         kernel_config=KernelConfig()))
        for name in ("bypass_stage_overhead_ns", "bypass_stage_cost_scale",
                     "irq_mod_epoch_ns", "irq_mod_max_ns"):
            assert wire["costs"][name] == jsonable(getattr(CostModel(), name))
        assert wire["kernel_config"]["irq_moderation"] == (
            KernelConfig().irq_moderation)

    def test_non_default_values_round_trip(self):
        config = ExperimentConfig(
            costs=CostModel().replace(bypass_stage_cost_scale=0.25,
                                      irq_mod_max_ns=90_000),
            kernel_config=KernelConfig(irq_moderation="adaptive"))
        restored = pickle.loads(pickle.dumps(config))
        assert restored == config
        assert restored.costs.bypass_stage_cost_scale == 0.25
        assert restored.kernel_config.irq_moderation == "adaptive"
        default = ExperimentConfig(costs=CostModel(),
                                   kernel_config=KernelConfig())
        assert config_key(config) != config_key(default)

    def test_bypass_discount_scales_only_the_base(self):
        costs = CostModel()
        assert costs.bypass_stage_base(700) == 350
        # Per-byte component charged in full on top of the scaled base.
        full = costs.stage_packet_cost(costs.bypass_stage_base(1_100),
                                       1_000, is_copy_stage=True)
        assert full == int(550 + costs.copy_per_byte_ns * 1_000)

    def test_other_modes_unaffected_by_discount(self):
        # The discount knob must not leak into non-bypass schedules:
        # the measurements are identical whatever the scale is set to.
        base = _experiment(StackMode.VANILLA)
        scaled = dataclasses.replace(
            base, costs=CostModel().replace(bypass_stage_cost_scale=0.1))
        assert (result_digest(run_experiment(base))
                == result_digest(run_experiment(scaled)))
