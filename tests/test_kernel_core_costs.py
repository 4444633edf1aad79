"""Tests for the Kernel facade, CostModel, and KernelConfig."""

import dataclasses

import pytest

from repro.kernel.config import KernelConfig
from repro.kernel.core import Kernel
from repro.kernel.costs import CostModel
from repro.kernel.softnet import NapiStruct, hand_off
from repro.packet.packet import Packet
from repro.packet.skb import SKBuff
from repro.prism.mode import StackMode
from repro.sim import Simulator


class TestCostModel:
    def test_defaults_are_calibrated_to_fig8(self):
        costs = CostModel()
        # The three-stage sum is the ~2.5us/packet saturation anchor.
        stage_sum = costs.nic_pkt_ns + costs.bridge_pkt_ns + costs.veth_pkt_ns
        assert 2_000 <= stage_sum <= 2_600

    def test_replace_returns_modified_copy(self):
        costs = CostModel()
        faster = costs.replace(nic_pkt_ns=100)
        assert faster.nic_pkt_ns == 100
        assert costs.nic_pkt_ns != 100

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            CostModel().nic_pkt_ns = 1  # type: ignore[misc]

    def test_stage_packet_cost_per_byte(self):
        costs = CostModel()
        small = costs.stage_packet_cost(1_000, 100)
        large = costs.stage_packet_cost(1_000, 10_000)
        assert large > small
        copy_stage = costs.stage_packet_cost(1_000, 10_000, is_copy_stage=True)
        assert copy_stage > large  # copies cost more per byte

    def test_egress_cost_grows_with_size(self):
        costs = CostModel()
        assert costs.egress_cost(64_000) > costs.egress_cost(64)

    def test_wire_time_latency_plus_serialization(self):
        costs = CostModel()
        assert costs.wire_time(0) == costs.wire_latency_ns
        big = costs.wire_time(125_000)
        assert big == costs.wire_latency_ns + int(125_000 / costs.wire_bytes_per_ns)


class TestKernelConfig:
    def test_linux_defaults(self):
        config = KernelConfig()
        assert config.napi_weight == 64
        assert config.napi_budget == 300
        assert config.backlog_capacity == 1_000

    def test_replace(self):
        config = KernelConfig().replace(napi_weight=8)
        assert config.napi_weight == 8


class TestKernel:
    def _make(self, **kwargs):
        sim = Simulator()
        return Kernel(sim, **kwargs)

    def test_requires_cpu(self):
        with pytest.raises(ValueError):
            self._make(n_cpus=0)

    def test_initial_mode_from_config(self):
        kernel = self._make(config=KernelConfig(
            initial_mode=StackMode.PRISM_SYNC))
        assert kernel.mode is StackMode.PRISM_SYNC

    def test_set_mode(self):
        kernel = self._make()
        kernel.set_mode(StackMode.PRISM_BATCH)
        assert kernel.mode is StackMode.PRISM_BATCH

    def test_procfs_round_trip(self):
        kernel = self._make()
        kernel.procfs.write("/proc/prism/mode", "sync")
        assert kernel.mode is StackMode.PRISM_SYNC
        assert kernel.procfs.read("/proc/prism/mode") == "prism-sync"

    def _queue_for(self, level, **kwargs):
        """The input queue ``hand_off`` puts a PRISM-batch skb of
        priority *level* (None = unclassified) into."""
        kernel = self._make(**kwargs)
        kernel.set_mode(StackMode.PRISM_BATCH)
        napi = NapiStruct("n", kernel)
        napi.softnet = kernel.softnet_for(0)
        skb = SKBuff(Packet(headers=(), payload_len=1))
        if level is not None:
            skb.classify(level)
        for _ in hand_off(napi, skb, None, kernel.cpu(0).charge_softirq):
            pass
        assert len(napi.queue_high) + len(napi.queue_low) == 1
        return "high" if napi.queue_high else "low"

    def test_is_high_class_binary(self):
        assert self._queue_for(None) == "low"  # unclassified
        assert self._queue_for(0) == "high"
        assert self._queue_for(1) == "low"

    def test_is_high_class_multilevel(self):
        config = KernelConfig(high_priority_max_level=1)
        assert self._queue_for(1, config=config) == "high"
        assert self._queue_for(2, config=config) == "low"

    def test_drop_accounting(self):
        kernel = self._make()
        kernel.count_drop("q")
        kernel.count_drop("q")
        kernel.count_drop("r")
        assert kernel.drops == {"q": 2, "r": 1}
        assert kernel.total_drops == 3

    def test_per_cpu_softnets(self):
        kernel = self._make(n_cpus=3)
        assert len(kernel.softnets) == 3
        assert kernel.softnet_for(2).cpu is kernel.cpu(2)

    def test_repr(self):
        assert "vanilla" in repr(self._make())
