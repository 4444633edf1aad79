"""Tests for protocol_rcv edge cases and network namespaces."""

import dataclasses

import pytest

from repro.kernel.core import Kernel
from repro.netdev.device import NetDevice
from repro.packet.addr import Ipv4Address, MacAddress
from repro.packet.headers import IPPROTO_TCP, EthernetHeader, IPv4Header
from repro.packet.packet import Packet
from repro.packet.skb import SKBuff
from repro.sim import Simulator
from repro.stack.egress import build_udp_packet
from repro.stack.netns import NetNamespace
from repro.stack.receive import protocol_rcv
from repro.stack.sockets import UdpSocket
from repro.stack.tcp import TcpEndpoint

MAC = MacAddress(1)
LOCAL_IP = Ipv4Address("10.0.0.10")
OTHER_IP = Ipv4Address("10.0.0.99")


def make_env(local_ip=LOCAL_IP):
    sim = Simulator()
    kernel = Kernel(sim, n_cpus=1)
    netns = NetNamespace("ns")
    device = NetDevice("veth0", mac=MAC, ip=local_ip)
    netns.add_device(device)
    return sim, kernel, netns


def udp_skb(dst=LOCAL_IP, dport=5000, ttl=64):
    packet = build_udp_packet(
        src_mac=MAC, dst_mac=MacAddress(2),
        src_ip=Ipv4Address("10.0.0.100"), dst_ip=dst,
        src_port=30001, dst_port=dport, payload=None, payload_len=16)
    if ttl != 64:
        headers = list(packet.headers)
        headers[1] = dataclasses.replace(headers[1], ttl=ttl)
        packet = Packet(tuple(headers), packet.payload, packet.payload_len,
                        packet.created_at)
    return SKBuff(packet)


class TestProtocolRcv:
    def test_delivers_to_bound_socket(self):
        _sim, kernel, netns = make_env()
        socket = UdpSocket(kernel, netns, None, 5000)
        netns.sockets.bind_udp(socket)
        assert protocol_rcv(kernel, netns, udp_skb(), kernel.cpu(0))
        assert socket.delivered == 1

    def test_non_ip_dropped(self):
        _sim, kernel, netns = make_env()
        skb = SKBuff(Packet(headers=(
            EthernetHeader(MAC, MacAddress(2)),), payload_len=10))
        assert not protocol_rcv(kernel, netns, skb, kernel.cpu(0))
        assert any("non-ip" in name for name in kernel.drops)

    def test_ttl_expired_dropped(self):
        _sim, kernel, netns = make_env()
        socket = UdpSocket(kernel, netns, None, 5000)
        netns.sockets.bind_udp(socket)
        assert not protocol_rcv(kernel, netns, udp_skb(ttl=0), kernel.cpu(0))
        assert any("ttl" in name for name in kernel.drops)
        assert socket.delivered == 0

    def test_not_local_ip_dropped(self):
        _sim, kernel, netns = make_env()
        socket = UdpSocket(kernel, netns, None, 5000)
        netns.sockets.bind_udp(socket)
        assert not protocol_rcv(kernel, netns, udp_skb(dst=OTHER_IP),
                                kernel.cpu(0))
        assert any("not-local" in name for name in kernel.drops)

    def test_namespace_without_ips_accepts_everything(self):
        # A namespace with no addressed devices (e.g. a test harness
        # root) does not enforce the local-IP check.
        sim = Simulator()
        kernel = Kernel(sim, n_cpus=1)
        netns = NetNamespace("bare")
        socket = UdpSocket(kernel, netns, None, 5000)
        netns.sockets.bind_udp(socket)
        assert protocol_rcv(kernel, netns, udp_skb(dst=OTHER_IP),
                            kernel.cpu(0))

    def test_unknown_transport_dropped(self):
        _sim, kernel, netns = make_env()
        skb = SKBuff(Packet(headers=(
            EthernetHeader(MAC, MacAddress(2)),
            IPv4Header(Ipv4Address("10.0.0.100"), LOCAL_IP, protocol=47)),
            payload_len=10))
        assert not protocol_rcv(kernel, netns, skb, kernel.cpu(0))
        assert any("proto-unknown" in name for name in kernel.drops)

    def test_tcp_demux_to_endpoint(self):
        from repro.stack.egress import build_tcp_segments
        from repro.stack.tcp import TcpMessage
        _sim, kernel, netns = make_env()
        endpoint = TcpEndpoint(kernel, netns, None, 80)
        netns.sockets.bind_tcp(endpoint)
        message = TcpMessage(payload="m", length=10)
        (segment,) = build_tcp_segments(
            src_mac=MAC, dst_mac=MacAddress(2),
            src_ip=Ipv4Address("10.0.0.100"), dst_ip=LOCAL_IP,
            src_port=30001, dst_port=80, message=message, mss=1_448)
        assert protocol_rcv(kernel, netns, SKBuff(segment), kernel.cpu(0))
        assert endpoint.messages_delivered == 1

    def test_tcp_unmatched_dropped(self):
        from repro.stack.egress import build_tcp_segments
        from repro.stack.tcp import TcpMessage
        _sim, kernel, netns = make_env()
        message = TcpMessage(payload="m", length=10)
        (segment,) = build_tcp_segments(
            src_mac=MAC, dst_mac=MacAddress(2),
            src_ip=Ipv4Address("10.0.0.100"), dst_ip=LOCAL_IP,
            src_port=30001, dst_port=81, message=message, mss=1_448)
        assert not protocol_rcv(kernel, netns, SKBuff(segment), kernel.cpu(0))
        assert any("tcp-unmatched" in name for name in kernel.drops)


class TestNetNamespace:
    def test_add_device_registers_ip(self):
        _sim, _kernel, netns = make_env()
        assert netns.is_local_ip(LOCAL_IP)
        assert not netns.is_local_ip(OTHER_IP)

    def test_device_by_name(self):
        _sim, _kernel, netns = make_env()
        assert netns.device_by_name("veth0") is not None
        assert netns.device_by_name("eth9") is None

    def test_device_netns_backref(self):
        _sim, _kernel, netns = make_env()
        assert netns.device_by_name("veth0").netns is netns

    def test_isolated_port_spaces(self):
        sim = Simulator()
        kernel = Kernel(sim, n_cpus=1)
        ns_a = NetNamespace("a")
        ns_b = NetNamespace("b")
        ns_a.sockets.bind_udp(UdpSocket(kernel, ns_a, None, 5000))
        # Same port binds fine in another namespace.
        ns_b.sockets.bind_udp(UdpSocket(kernel, ns_b, None, 5000))
