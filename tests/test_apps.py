"""Tests for the application models: sockperf, memcached, nginx/wrk2."""

import pytest

from repro.apps.memcached import MemaslapClient, MemcachedServer
from repro.apps.sockperf import (
    SockperfTcpFlood,
    SockperfUdpClient,
    SockperfUdpFlood,
    SockperfUdpServer,
)
from repro.apps.webserver import NginxServer, Wrk2Client
from repro.bench.testbed import build_testbed
from repro.sim.units import MS, SEC


def make_pair(testbed, server_ip="10.0.0.10", client_ip="10.0.0.100"):
    server = testbed.add_server_container("srv", server_ip)
    client = testbed.add_client_container("cli", client_ip)
    return server, client


class TestSockperf:
    def test_pingpong_measures_all_replies(self):
        testbed = build_testbed()
        server_cont, client_cont = make_pair(testbed)
        SockperfUdpServer(server_cont, 5000, core_id=1)
        client = SockperfUdpClient(
            testbed.sim, testbed.client, testbed.overlay, client_cont,
            "10.0.0.10", 5000, rate_pps=2_000, src_port=30001)
        testbed.sim.run(until=50 * MS)
        assert client.sent == pytest.approx(100, abs=2)
        assert client.replies >= client.sent - 3
        assert len(client.recorder) == client.replies

    def test_pingpong_latency_is_positive_and_sane(self):
        testbed = build_testbed()
        server_cont, client_cont = make_pair(testbed)
        SockperfUdpServer(server_cont, 5000, core_id=1)
        client = SockperfUdpClient(
            testbed.sim, testbed.client, testbed.overlay, client_cont,
            "10.0.0.10", 5000, rate_pps=1_000, src_port=30001)
        testbed.sim.run(until=50 * MS)
        summary = client.recorder.summary()
        assert 1_000 < summary.min_ns < 100_000

    def test_client_stop(self):
        testbed = build_testbed()
        server_cont, client_cont = make_pair(testbed)
        SockperfUdpServer(server_cont, 5000, core_id=1)
        client = SockperfUdpClient(
            testbed.sim, testbed.client, testbed.overlay, client_cont,
            "10.0.0.10", 5000, rate_pps=1_000, src_port=30001)
        testbed.sim.run(until=10 * MS)
        sent_at_stop = client.sent
        client.stop()
        testbed.sim.run(until=30 * MS)
        assert client.sent == sent_at_stop

    def test_flood_rate_is_exact_long_run(self):
        testbed = build_testbed()
        server_cont, client_cont = make_pair(testbed)
        SockperfUdpServer(server_cont, 5000, core_id=1, reply=False)
        flood = SockperfUdpFlood(
            testbed.sim, testbed.client, testbed.overlay, client_cont,
            "10.0.0.10", 5000, rate_pps=100_000, src_port=30002, burst=16)
        testbed.sim.run(until=100 * MS)
        assert flood.sent == pytest.approx(10_000, rel=0.01)

    def test_flood_burst_validation(self):
        testbed = build_testbed()
        _server, client_cont = make_pair(testbed)
        with pytest.raises(ValueError):
            SockperfUdpFlood(testbed.sim, testbed.client, testbed.overlay,
                             client_cont, "10.0.0.10", 5000,
                             rate_pps=1_000, burst=0)
        with pytest.raises(ValueError):
            SockperfUdpFlood(testbed.sim, testbed.client, testbed.overlay,
                             client_cont, "10.0.0.10", 5000, rate_pps=0)

    def test_tcp_flood_segments_and_reassembles(self):
        testbed = build_testbed()
        server_cont, client_cont = make_pair(testbed)
        endpoint = server_cont.tcp_endpoint(6000, core_id=1)
        flood = SockperfTcpFlood(
            testbed.sim, testbed.client, testbed.overlay, client_cont,
            "10.0.0.10", 6000, rate_msgs_per_sec=500, message_len=10_000,
            src_port=30003)
        testbed.sim.run(until=50 * MS)
        assert flood.sent_messages == pytest.approx(25, abs=2)
        assert endpoint.messages_delivered >= flood.sent_messages - 2
        # Each message was carried by multiple MTU segments.
        assert endpoint.bytes_received >= 10_000 * (flood.sent_messages - 2)


class TestMemcached:
    def _setup(self, busy=False):
        testbed = build_testbed()
        server_cont, client_cont = make_pair(testbed)
        server = MemcachedServer(server_cont, core_id=1)
        client = MemaslapClient(
            testbed.sim, testbed.client, testbed.overlay, client_cont,
            "10.0.0.10", window=4, rng=testbed.rng.fork("m"))
        return testbed, server, client

    def test_closed_loop_keeps_window_full(self):
        testbed, server, client = self._setup()
        client.start()
        testbed.sim.run(until=50 * MS)
        assert client.inflight == 4
        assert client.completed.count > 100

    def test_get_set_mix(self):
        testbed, server, client = self._setup()
        client.start()
        testbed.sim.run(until=100 * MS)
        total = server.gets + server.sets
        assert total > 500
        assert 0.8 < server.gets / total < 0.97

    def test_sets_populate_store_and_gets_hit(self):
        testbed, server, client = self._setup()
        client.start()
        testbed.sim.run(until=200 * MS)
        assert server.store  # sets landed
        assert server.misses < server.gets  # zipf keys re-hit stored keys

    def test_start_twice_rejected(self):
        _testbed, _server, client = self._setup()
        client.start()
        with pytest.raises(RuntimeError):
            client.start()

    def test_window_validation(self):
        testbed = build_testbed()
        _server, client_cont = make_pair(testbed)
        with pytest.raises(ValueError):
            MemaslapClient(testbed.sim, testbed.client, testbed.overlay,
                           client_cont, "10.0.0.10", window=0)

    def test_latency_recorded_per_op(self):
        testbed, _server, client = self._setup()
        client.start()
        testbed.sim.run(until=50 * MS)
        assert len(client.recorder) == client.completed.count


class TestWebServer:
    def test_request_response_loop(self):
        testbed = build_testbed()
        server_cont, client_cont = make_pair(testbed)
        server = NginxServer(server_cont, core_id=1)
        client = Wrk2Client(
            testbed.sim, testbed.client, testbed.overlay, client_cont,
            "10.0.0.10", rate_rps=2_000)
        testbed.sim.run(until=50 * MS)
        assert server.requests_served == pytest.approx(100, abs=3)
        assert client.completed.count == server.requests_served

    def test_single_connection_serializes(self):
        testbed = build_testbed()
        server_cont, client_cont = make_pair(testbed)
        NginxServer(server_cont, core_id=1, parse_work_ns=100_000)
        # 100us of server work per request means a single connection
        # cannot exceed ~10K rps even at a 40K target.
        client = Wrk2Client(
            testbed.sim, testbed.client, testbed.overlay, client_cont,
            "10.0.0.10", rate_rps=40_000, latency_from="sent")
        testbed.sim.run(until=100 * MS)
        achieved = client.completed.count * SEC / (100 * MS)
        assert achieved < 11_000

    def test_coordinated_omission_correction(self):
        testbed = build_testbed()
        server_cont, client_cont = make_pair(testbed)
        NginxServer(server_cont, core_id=1, parse_work_ns=200_000)
        client = Wrk2Client(
            testbed.sim, testbed.client, testbed.overlay, client_cont,
            "10.0.0.10", rate_rps=20_000, latency_from="intended")
        testbed.sim.run(until=60 * MS)
        # With CO correction the reported latency reflects the backlog
        # (server can only do ~5K of the 20K offered): much larger than
        # a single round trip.
        assert client.recorder.summary().p99_ns > 1_000_000

    def test_latency_from_validation(self):
        testbed = build_testbed()
        _server, client_cont = make_pair(testbed)
        with pytest.raises(ValueError):
            Wrk2Client(testbed.sim, testbed.client, testbed.overlay,
                       client_cont, "10.0.0.10", rate_rps=1_000,
                       latency_from="bogus")
        with pytest.raises(ValueError):
            Wrk2Client(testbed.sim, testbed.client, testbed.overlay,
                       client_cont, "10.0.0.10", rate_rps=0)


class TestRepeatRunDeterminism:
    """Each client draws its op sequence from its own counter and its
    own rng fork, so two in-process runs of the same config are
    bit-identical — no hidden global state (itertools counters at module
    scope, shared rng streams) leaks between runs."""

    @pytest.mark.slow
    def test_memcached_benchmark_repeats_identically(self):
        self._repeats_identically("memcached")

    @pytest.mark.slow
    def test_webserver_benchmark_repeats_identically(self):
        self._repeats_identically("web")

    @staticmethod
    def _repeats_identically(kind):
        from repro.bench.digest import result_digest
        from repro.scenario import Scenario

        scenario = (Scenario().foreground(kind)
                    .timing(duration_ns=80 * MS, warmup_ns=20 * MS))
        first, second = scenario.run(), scenario.run()
        assert first.fg_delivered_pps > 0
        assert result_digest(first) == result_digest(second)
