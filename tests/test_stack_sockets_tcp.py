"""Tests for sockets, the socket table, and the TCP endpoint."""

import pytest

from repro.kernel.core import Kernel
from repro.packet.addr import Ipv4Address, MacAddress
from repro.packet.skb import SKBuff
from repro.sim import Simulator
from repro.stack.egress import build_tcp_segments, build_udp_packet
from repro.stack.netns import NetNamespace
from repro.stack.sockets import SocketTable, UdpSocket
from repro.stack.tcp import TcpEndpoint, TcpMessage

MAC_A = MacAddress(1)
MAC_B = MacAddress(2)
IP_CLIENT = Ipv4Address("10.0.0.100")
IP_SERVER = Ipv4Address("10.0.0.10")


def make_env(n_cpus=2):
    sim = Simulator()
    kernel = Kernel(sim, n_cpus=n_cpus)
    netns = NetNamespace("test")
    return sim, kernel, netns


def udp_skb(dport=5000, payload="x", payload_len=16):
    packet = build_udp_packet(
        src_mac=MAC_A, dst_mac=MAC_B, src_ip=IP_CLIENT, dst_ip=IP_SERVER,
        src_port=30001, dst_port=dport, payload=payload,
        payload_len=payload_len)
    return SKBuff(packet)


class TestUdpSocket:
    def test_deliver_and_try_recv(self):
        sim, kernel, netns = make_env()
        socket = UdpSocket(kernel, netns, None, 5000)
        assert socket.deliver(udp_skb(), kernel.cpu(0))
        skb = socket.try_recv()
        assert skb.packet.payload == "x"
        assert socket.try_recv() is None

    def test_deliver_marks_and_counts(self):
        sim, kernel, netns = make_env()
        socket = UdpSocket(kernel, netns, None, 5000)
        skb = udp_skb()
        socket.deliver(skb, kernel.cpu(0))
        assert "socket_enqueue" in skb.marks
        assert socket.delivered == 1
        assert socket.delivered_bytes == skb.wire_len

    def test_rcvbuf_overflow_drops(self):
        sim, kernel, netns = make_env()
        socket = UdpSocket(kernel, netns, None, 5000)
        capacity = kernel.config.socket_rcvbuf_packets
        for _ in range(capacity):
            assert socket.deliver(udp_skb(), kernel.cpu(0))
        assert not socket.deliver(udp_skb(), kernel.cpu(0))
        assert kernel.drops[socket.rcvbuf.name] == 1

    def test_recv_blocks_until_delivery(self):
        sim, kernel, netns = make_env()
        core = kernel.cpu(1)
        socket = UdpSocket(kernel, netns, None, 5000, owner_core=core)
        got = []

        def app():
            skb = yield from socket.recv()
            got.append((sim.now, skb.packet.payload))

        core.spawn(app())
        sim.schedule(10_000, lambda: socket.deliver(udp_skb(), kernel.cpu(0)))
        sim.run()
        assert len(got) == 1
        # Cross-core wakeup latency applies (deliverer cpu0, owner cpu1).
        assert got[0][0] >= 10_000 + kernel.costs.wakeup_cross_core_ns

    def test_same_core_wakeup_is_cheaper(self):
        sim, kernel, netns = make_env()
        core = kernel.cpu(0)
        socket = UdpSocket(kernel, netns, None, 5000, owner_core=core)
        got = []

        def app():
            skb = yield from socket.recv()
            got.append(sim.now)
            del skb

        core.spawn(app())
        sim.schedule(10_000, lambda: socket.deliver(udp_skb(), kernel.cpu(0)))
        sim.run()
        wake = got[0] - 10_000
        assert wake < kernel.costs.wakeup_cross_core_ns

    def test_recv_returns_immediately_when_buffered(self):
        sim, kernel, netns = make_env()
        core = kernel.cpu(0)
        socket = UdpSocket(kernel, netns, None, 5000, owner_core=core)
        socket.deliver(udp_skb(), kernel.cpu(0))
        got = []

        def app():
            skb = yield from socket.recv()
            got.append(skb)

        core.spawn(app())
        sim.run()
        assert len(got) == 1


class TestSocketTable:
    def test_bind_and_lookup(self):
        _sim, kernel, netns = make_env()
        socket = UdpSocket(kernel, netns, None, 5000)
        netns.sockets.bind_udp(socket)
        assert netns.sockets.lookup_udp(IP_SERVER, 5000) is socket

    def test_specific_bind_beats_wildcard(self):
        _sim, kernel, netns = make_env()
        wild = UdpSocket(kernel, netns, None, 5000)
        specific = UdpSocket(kernel, netns, IP_SERVER, 5000)
        netns.sockets.bind_udp(wild)
        netns.sockets.bind_udp(specific)
        assert netns.sockets.lookup_udp(IP_SERVER, 5000) is specific
        assert netns.sockets.lookup_udp(Ipv4Address("1.2.3.4"), 5000) is wild

    def test_double_bind_raises(self):
        _sim, kernel, netns = make_env()
        netns.sockets.bind_udp(UdpSocket(kernel, netns, None, 5000))
        with pytest.raises(ValueError):
            netns.sockets.bind_udp(UdpSocket(kernel, netns, None, 5000))

    def test_lookup_miss_counts(self):
        _sim, kernel, netns = make_env()
        assert netns.sockets.lookup_udp(IP_SERVER, 9999) is None
        assert netns.sockets.unmatched == 1

    def test_close_unbinds(self):
        _sim, kernel, netns = make_env()
        socket = UdpSocket(kernel, netns, None, 5000)
        netns.sockets.bind_udp(socket)
        socket.close()
        assert netns.sockets.lookup_udp(IP_SERVER, 5000) is None

    def test_invalid_bind_port_rejected(self):
        _sim, kernel, netns = make_env()
        with pytest.raises(ValueError):
            netns.sockets.bind_udp(UdpSocket(kernel, netns, None, 0))
        with pytest.raises(ValueError):
            netns.sockets.bind_udp(UdpSocket(kernel, netns, None, 70_000))


def tcp_skbs(message, dport=80, mss=100):
    segments = build_tcp_segments(
        src_mac=MAC_A, dst_mac=MAC_B, src_ip=IP_CLIENT, dst_ip=IP_SERVER,
        src_port=30001, dst_port=dport, message=message, mss=mss)
    return [SKBuff(segment) for segment in segments]


class TestTcpEndpoint:
    def test_single_segment_message_delivered(self):
        sim, kernel, netns = make_env()
        endpoint = TcpEndpoint(kernel, netns, None, 80)
        message = TcpMessage(payload="req", length=50)
        (skb,) = tcp_skbs(message)
        assert endpoint.receive_skb(skb, kernel.cpu(0))
        delivered, flow = endpoint.try_recv()
        assert delivered is message
        assert flow.src_ip == IP_CLIENT
        assert flow.src_port == 30001

    def test_multi_segment_reassembly(self):
        sim, kernel, netns = make_env()
        endpoint = TcpEndpoint(kernel, netns, None, 80)
        message = TcpMessage(payload="big", length=350)
        skbs = tcp_skbs(message, mss=100)
        assert len(skbs) == 4
        for skb in skbs[:-1]:
            assert not endpoint.receive_skb(skb, kernel.cpu(0))
        assert endpoint.receive_skb(skbs[-1], kernel.cpu(0))
        assert endpoint.messages_delivered == 1
        assert endpoint.bytes_received == 350

    def test_interleaved_flows_reassemble_independently(self):
        sim, kernel, netns = make_env()
        endpoint = TcpEndpoint(kernel, netns, None, 80)
        msg_a = TcpMessage(payload="a", length=250)
        msg_b = TcpMessage(payload="b", length=250)
        skbs_a = tcp_skbs(msg_a, mss=100)
        # Different client port = different flow.
        segments_b = build_tcp_segments(
            src_mac=MAC_A, dst_mac=MAC_B, src_ip=IP_CLIENT,
            dst_ip=IP_SERVER, src_port=30002, dst_port=80,
            message=msg_b, mss=100)
        skbs_b = [SKBuff(segment) for segment in segments_b]
        for pair in zip(skbs_a, skbs_b):
            for skb in pair:
                endpoint.receive_skb(skb, kernel.cpu(0))
        assert endpoint.messages_delivered == 2

    def test_gro_merged_skb_delivers_all_segments(self):
        sim, kernel, netns = make_env()
        endpoint = TcpEndpoint(kernel, netns, None, 80)
        message = TcpMessage(payload="merged", length=300)
        skbs = tcp_skbs(message, mss=100)
        # Fold segments 2..3 into the first skb, GRO style.
        head = skbs[0]
        for skb in skbs[1:]:
            head.gro_list.append(skb.packet)
            head.wire_len += skb.wire_len
            head.gro_segments += 1
        assert endpoint.receive_skb(head, kernel.cpu(0))
        assert endpoint.messages_delivered == 1

    def test_non_tcp_payload_ignored(self):
        sim, kernel, netns = make_env()
        endpoint = TcpEndpoint(kernel, netns, None, 80)
        skb = udp_skb()
        assert not endpoint.receive_skb(skb, kernel.cpu(0))

    def test_recv_blocks_and_wakes(self):
        sim, kernel, netns = make_env()
        core = kernel.cpu(1)
        endpoint = TcpEndpoint(kernel, netns, None, 80, owner_core=core)
        got = []

        def app():
            message, _flow = yield from endpoint.recv()
            got.append(message.payload)

        core.spawn(app())
        message = TcpMessage(payload="later", length=10)
        (skb,) = tcp_skbs(message)
        sim.schedule(5_000, lambda: endpoint.receive_skb(skb, kernel.cpu(0)))
        sim.run()
        assert got == ["later"]

    def test_rcvbuf_overflow_drops_messages(self):
        sim, kernel, netns = make_env()
        endpoint = TcpEndpoint(kernel, netns, None, 80)
        capacity = kernel.config.socket_rcvbuf_packets
        for index in range(capacity + 5):
            message = TcpMessage(payload=index, length=10)
            segments = build_tcp_segments(
                src_mac=MAC_A, dst_mac=MAC_B, src_ip=IP_CLIENT,
                dst_ip=IP_SERVER, src_port=30001, dst_port=80,
                message=message, mss=100)
            endpoint.receive_skb(SKBuff(segments[0]), kernel.cpu(0))
        assert len(endpoint.rcvbuf) == capacity
        assert kernel.drops[endpoint.rcvbuf.name] == 5

    def test_bind_tcp_lookup(self):
        _sim, kernel, netns = make_env()
        endpoint = TcpEndpoint(kernel, netns, None, 80)
        netns.sockets.bind_tcp(endpoint)
        assert netns.sockets.lookup_tcp(IP_SERVER, 80) is endpoint
        endpoint.close()
        assert netns.sockets.lookup_tcp(IP_SERVER, 80) is None
