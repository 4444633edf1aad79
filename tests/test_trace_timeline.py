"""Per-packet stage timelines (the Fig. 5 machinery), from the observer."""

from repro.apps.remote import RemoteRequestSender
from repro.bench.testbed import build_testbed
from repro.obs import KernelObserver, render_gantt
from repro.prism.mode import StackMode
from repro.sim.units import MS


def run_with_timeline(mode, n_low=32, n_high=4):
    testbed = build_testbed(mode=mode)
    high_server = testbed.add_server_container("hi", "10.0.0.10")
    low_server = testbed.add_server_container("lo", "10.0.0.11")
    high_client = testbed.add_client_container("hic", "10.0.0.100")
    low_client = testbed.add_client_container("loc", "10.0.0.101")
    high_server.udp_socket(5000, core_id=1)
    low_server.udp_socket(6000, core_id=1)
    testbed.mark_high_priority("10.0.0.10", 5000)
    timeline = KernelObserver(testbed.server.kernel)
    low_sender = RemoteRequestSender(testbed.client, testbed.overlay,
                                     low_client, "10.0.0.11")
    high_sender = RemoteRequestSender(testbed.client, testbed.overlay,
                                      high_client, "10.0.0.10")
    for _ in range(n_low):
        low_sender.send_udp(src_port=40001, dst_port=6000,
                            payload=None, payload_len=32)
    for _ in range(n_high):
        high_sender.send_udp(src_port=40000, dst_port=5000,
                             payload=None, payload_len=32)
    testbed.sim.run(until=20 * MS)
    return timeline


class TestStageTimeline:
    def test_reconstructs_every_packet(self):
        timeline = run_with_timeline(StackMode.VANILLA)
        completed = timeline.completed_packets()
        assert len(completed) == 36
        assert all(entry.complete for entry in completed)

    def test_stage_order_within_each_packet(self):
        timeline = run_with_timeline(StackMode.VANILLA)
        for entry in timeline.completed_packets():
            assert entry.ring_at <= dict(entry.stages)["eth"]
            assert dict(entry.stages)["eth"] <= entry.socket_at

    def test_vanilla_records_all_three_stages(self):
        timeline = run_with_timeline(StackMode.VANILLA)
        entry = timeline.completed_packets()[0]
        assert entry.path_signature() == ("eth", "br", "veth")

    def test_sync_mode_high_packets_finish_inside_eth_context(self):
        timeline = run_with_timeline(StackMode.PRISM_SYNC)
        highs = [e for e in timeline.completed_packets() if e.high_priority]
        assert highs
        for entry in highs:
            # Inline stages still emit stage_done, but delivery happens
            # within the same softirq: socket time == eth stage time.
            assert entry.socket_at <= dict(entry.stages)["eth"]

    def test_kernel_times_positive(self):
        timeline = run_with_timeline(StackMode.PRISM_BATCH)
        times = [p.kernel_time_ns for p in timeline.completed_packets()]
        assert times and all(t > 0 for t in times)

    def test_high_priority_flag_tracked(self):
        timeline = run_with_timeline(StackMode.PRISM_BATCH)
        flags = {entry.high_priority
                 for entry in timeline.completed_packets()}
        assert flags == {True, False}

    def test_render_ascii_gantt(self):
        timeline = run_with_timeline(StackMode.PRISM_BATCH)
        art = render_gantt(timeline.packets.values(), limit=40)
        assert "#" in art and "=" in art
        assert "hi" in art and "lo" in art

    def test_render_empty(self):
        assert "no completed" in render_gantt([])

    def test_stop_detaches(self):
        timeline = run_with_timeline(StackMode.VANILLA, n_low=1, n_high=1)
        count = len(timeline.packets)
        timeline.detach()
        assert not timeline.tracer.active
        # New traffic after detach must not be recorded.
        assert len(timeline.packets) == count

    def test_max_packets_cap(self):
        testbed = build_testbed()
        server = testbed.add_server_container("srv", "10.0.0.10")
        client = testbed.add_client_container("cli", "10.0.0.100")
        server.udp_socket(5000, core_id=1)
        timeline = KernelObserver(testbed.server.kernel, max_packets=5)
        sender = RemoteRequestSender(testbed.client, testbed.overlay,
                                     client, "10.0.0.10")
        for _ in range(20):
            sender.send_udp(src_port=40000, dst_port=5000,
                            payload=None, payload_len=32)
        testbed.sim.run(until=10 * MS)
        assert len(timeline.packets) == 5
        assert timeline.packets_overflowed == 15
