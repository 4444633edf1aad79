"""Poll-order fidelity tests: reproduce the paper's Fig. 6 exactly.

The paper traces which device NAPI polls on each iteration for a
container overlay flow under sustained load:

- Vanilla (Fig. 6a): ``eth, br, eth, veth, br, eth, ...`` — stage 3 of
  batch N is delayed behind stage 1 of batch N+1 (interleaving);
- PRISM (Fig. 6b): ``eth, br, veth, eth, br, veth, ...`` — streamlined,
  with poll-list snapshots [br, eth], [veth, eth], [eth] repeating.

The poll order is recorded by the kernel observer from the ``napi_poll``
tracepoint (the paper's eBPF methodology).
"""

import pytest

from repro.apps.remote import RemoteRequestSender
from repro.bench.testbed import build_testbed
from repro.obs import KernelObserver
from repro.prism.mode import StackMode
from repro.sim.units import MS
from repro.trace.tracer import TracePoint


def run_burst(mode, n_packets=200, mark_high=True):
    """Send a burst so the eth ring stays backlogged across NAPI rounds."""
    testbed = build_testbed(mode=mode)
    server_cont = testbed.add_server_container("srv", "10.0.0.10")
    client_cont = testbed.add_client_container("cli", "10.0.0.100")
    server_cont.udp_socket(5000, core_id=1)
    if mark_high:
        testbed.mark_high_priority("10.0.0.10", 5000)
    poll_trace = KernelObserver(testbed.server.kernel)
    sender = RemoteRequestSender(testbed.client, testbed.overlay,
                                 client_cont, "10.0.0.10")
    for _ in range(n_packets):
        sender.send_udp(src_port=40000, dst_port=5000,
                        payload=None, payload_len=32)
    testbed.sim.run(until=10 * MS)
    return poll_trace, testbed


class TestVanillaPollOrder:
    def test_interleaved_device_order_matches_fig6a(self):
        trace, _testbed = run_burst(StackMode.VANILLA)
        order = trace.device_order()
        # Paper Fig. 6a iterations 1-6.
        assert order[:6] == ["eth", "br", "eth", "veth", "br", "eth"]

    def test_steady_state_period_is_interleaved(self):
        trace, _testbed = run_burst(StackMode.VANILLA, n_packets=400)
        order = trace.device_order()
        # In steady state the repeating unit is (veth, br, eth): stage 3
        # of batch N only runs after stage 1 of batch N+1 was polled.
        steady = order[3:12]
        assert steady == ["veth", "br", "eth"] * 3

    def test_first_batch_delivery_delayed_behind_second_eth_poll(self):
        trace, _testbed = run_burst(StackMode.VANILLA)
        order = trace.device_order()
        first_veth = order.index("veth")
        eth_polls_before = order[:first_veth].count("eth")
        assert eth_polls_before >= 2  # batch 2 was fetched before delivery


class TestPrismPollOrder:
    def test_streamlined_device_order_matches_fig6b(self):
        trace, _testbed = run_burst(StackMode.PRISM_BATCH)
        order = trace.device_order()
        # Paper Fig. 6b iterations 1-6: strict stage order per batch.
        assert order[:6] == ["eth", "br", "veth", "eth", "br", "veth"]

    def test_poll_list_snapshots_match_fig6b(self):
        trace, _testbed = run_burst(StackMode.PRISM_BATCH)
        snapshots = [record.poll_list for record in trace.polls[:3]]
        assert snapshots == [("br", "eth"), ("veth", "eth"), ("eth",)]

    def test_low_priority_flow_in_prism_behaves_like_vanilla_order(self):
        # Without a priority rule, PRISM tail-schedules everything; the
        # single poll list still streamlines less aggressively but the
        # first batch is NOT preempted to the head.
        trace, _testbed = run_burst(StackMode.PRISM_BATCH, mark_high=False)
        order = trace.device_order()
        assert order[0] == "eth"
        assert "br" in order and "veth" in order

    def test_sync_mode_polls_only_eth(self):
        trace, _testbed = run_burst(StackMode.PRISM_SYNC)
        order = trace.device_order()
        # High-priority packets never enter stage queues: the only NAPI
        # device ever polled is the physical NIC (paper §III-B1).
        assert set(order) == {"eth"}

    def test_sync_mode_still_delivers_everything(self):
        trace, testbed = run_burst(StackMode.PRISM_SYNC, n_packets=150)
        container = testbed.server_containers["srv"]
        socket = container.netns.sockets.lookup_udp(container.ip, 5000)
        assert socket.delivered == 150


class TestPollOrderTracerApi:
    """The observer's poll-order surface: table render, detach, reset."""

    def test_as_table_renders(self):
        trace, _testbed = run_burst(StackMode.PRISM_BATCH)
        table = trace.poll_table(limit=3)
        assert "eth" in table and "br" in table
        assert table.count("\n") == 3  # header + 3 rows

    def test_stop_detaches(self):
        testbed = build_testbed()
        trace = KernelObserver(testbed.server.kernel)
        trace.detach()
        tracer = testbed.server.kernel.tracer
        assert not tracer.has_subscribers(TracePoint.NAPI_POLL)
        assert not tracer.active

    def test_clear(self):
        trace, _testbed = run_burst(StackMode.VANILLA)
        assert trace.polls
        trace.polls.clear()
        assert not trace.device_order()
