"""Behavioural tests for the two net_rx_action implementations:
budget handling, completion, priority preemption, and mode switching."""

import pytest

from repro.apps.remote import RemoteRequestSender
from repro.bench.testbed import build_testbed
from repro.kernel.config import KernelConfig
from repro.prism.mode import StackMode
from repro.sim.units import MS
from repro.obs import KernelObserver


def setup(mode=StackMode.VANILLA, config=None):
    testbed = build_testbed(mode=mode, config=config)
    server = testbed.add_server_container("srv", "10.0.0.10")
    client = testbed.add_client_container("cli", "10.0.0.100")
    socket = server.udp_socket(5000, core_id=1)
    sender = RemoteRequestSender(testbed.client, testbed.overlay,
                                 client, "10.0.0.10")
    return testbed, socket, sender


def send_burst(sender, n, dport=5000):
    for _ in range(n):
        sender.send_udp(src_port=40000, dst_port=dport,
                        payload=None, payload_len=32)


class TestBudget:
    @pytest.mark.parametrize("mode", [StackMode.VANILLA,
                                      StackMode.PRISM_BATCH])
    def test_budget_splits_softirq_invocations(self, mode):
        # Budget 100 with a 300-packet burst: several softirq rounds.
        config = KernelConfig(napi_budget=100)
        testbed, socket, sender = setup(mode, config)
        send_burst(sender, 300)
        testbed.sim.run(until=20 * MS)
        assert socket.delivered == 300
        stats = testbed.server.kernel.cpu(0).stats
        assert stats.softirq_invocations >= 3

    @pytest.mark.parametrize("mode", list(StackMode))
    def test_everything_delivered_with_tiny_budget(self, mode):
        config = KernelConfig(napi_budget=16, napi_weight=8)
        testbed, socket, sender = setup(mode, config)
        if mode.is_prism:
            testbed.mark_high_priority("10.0.0.10", 5000)
        send_burst(sender, 200)
        testbed.sim.run(until=50 * MS)
        assert socket.delivered == 200


class TestCompletionAndRequiescence:
    def test_poll_list_empties_after_burst(self):
        testbed, socket, sender = setup()
        send_burst(sender, 64)
        testbed.sim.run(until=20 * MS)
        assert not testbed.server.kernel.softnet_for(0).poll_list
        assert testbed.server.nic.irq_enabled
        assert socket.delivered == 64

    def test_second_burst_processed_after_quiescence(self):
        testbed, socket, sender = setup()
        send_burst(sender, 32)
        testbed.sim.run(until=10 * MS)
        send_burst(sender, 32)
        testbed.sim.run(until=20 * MS)
        assert socket.delivered == 64


def _high_packet_in_kernel_latency(mode, n_low):
    """In-kernel latency of one high-priority packet arriving right
    behind a burst of *n_low* low-priority packets."""
    testbed = build_testbed(mode=mode)
    high_server = testbed.add_server_container("hi", "10.0.0.10")
    low_server = testbed.add_server_container("lo", "10.0.0.11")
    high_client = testbed.add_client_container("hic", "10.0.0.100")
    low_client = testbed.add_client_container("loc", "10.0.0.101")
    high_sock = high_server.udp_socket(5000, core_id=1)
    low_server.udp_socket(6000, core_id=1)
    testbed.mark_high_priority("10.0.0.10", 5000)
    low_sender = RemoteRequestSender(testbed.client, testbed.overlay,
                                     low_client, "10.0.0.11")
    high_sender = RemoteRequestSender(testbed.client, testbed.overlay,
                                      high_client, "10.0.0.10")
    for _ in range(n_low):
        low_sender.send_udp(src_port=40001, dst_port=6000,
                            payload=None, payload_len=32)
    high_sender.send_udp(src_port=40000, dst_port=5000,
                         payload="urgent", payload_len=32)
    testbed.sim.run(until=30 * MS)
    skb = high_sock.try_recv()
    assert skb is not None
    return skb.marks["socket_enqueue"] - skb.marks["rx_ring"]


class TestBatchPreemption:
    """PRISM's preemption guarantees (paper §III-B).

    The ring itself is FCFS (§IV-D), so the high packet always pays the
    stage-1 drain of the burst ahead of it; what PRISM removes is the
    stages-2/3 queueing behind the low batches.
    """

    def test_one_batch_backlog_preempted(self):
        # One NAPI batch of low packets ahead: PRISM removes the
        # stages-2/3 wait, cutting the in-kernel time by ~40%.
        vanilla = _high_packet_in_kernel_latency(StackMode.VANILLA, 64)
        batch = _high_packet_in_kernel_latency(StackMode.PRISM_BATCH, 64)
        sync = _high_packet_in_kernel_latency(StackMode.PRISM_SYNC, 64)
        assert batch < vanilla * 0.7
        assert sync < vanilla * 0.7

    def test_large_backlog_gain_bounded_by_ring_drain(self):
        # With 3 batches of low packets ahead *in the FCFS ring*, the
        # high packet still pays the whole ring drain (stage-1
        # limitation, §IV-D); PRISM removes only the final stages-2/3
        # wait, so the gain is real but bounded.
        vanilla = _high_packet_in_kernel_latency(StackMode.VANILLA, 192)
        batch = _high_packet_in_kernel_latency(StackMode.PRISM_BATCH, 192)
        sync = _high_packet_in_kernel_latency(StackMode.PRISM_SYNC, 192)
        assert batch < vanilla * 0.95
        assert sync < vanilla * 0.95
        assert batch > vanilla * 0.5  # the ring drain is NOT jumped


class TestRuntimeModeSwitch:
    def test_mode_switch_mid_run_takes_effect(self):
        testbed, socket, sender = setup(StackMode.VANILLA)
        testbed.mark_high_priority("10.0.0.10", 5000)
        trace = KernelObserver(testbed.server.kernel)
        send_burst(sender, 200)
        testbed.sim.run(until=10 * MS)
        vanilla_order = trace.device_order()[:6]
        trace.polls.clear()
        # Operator switches to PRISM at runtime through procfs.
        testbed.server.kernel.procfs.write("/proc/prism/mode", "batch")
        send_burst(sender, 200)
        testbed.sim.run(until=20 * MS)
        prism_order = trace.device_order()[:6]
        assert vanilla_order == ["eth", "br", "eth", "veth", "br", "eth"]
        assert prism_order == ["eth", "br", "veth", "eth", "br", "veth"]
        assert socket.delivered == 400
