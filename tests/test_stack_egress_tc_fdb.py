"""Tests for the egress path (builders, TSO, encap) and the FDB."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.kernel.core import Kernel
from repro.packet.addr import Ipv4Address, MacAddress
from repro.packet.headers import IPPROTO_TCP
from repro.packet.packet import Packet
from repro.sim import Simulator
from repro.stack.egress import (
    EgressPath,
    EncapInfo,
    apply_encap,
    build_tcp_segments,
    build_udp_packet,
)
from repro.stack.fdb import Fdb
from repro.stack.tcp import TcpMessage, TcpSegment

MAC_A = MacAddress(1)
MAC_B = MacAddress(2)
IP_A = Ipv4Address("10.0.0.1")
IP_B = Ipv4Address("10.0.0.2")

ENCAP = EncapInfo(vni=42, outer_src_mac=MacAddress(3),
                  outer_dst_mac=MacAddress(4),
                  outer_src_ip=Ipv4Address("192.168.1.1"),
                  outer_dst_ip=Ipv4Address("192.168.1.2"))


def kwargs(**extra):
    base = dict(src_mac=MAC_A, dst_mac=MAC_B, src_ip=IP_A, dst_ip=IP_B,
                src_port=1000, dst_port=2000)
    base.update(extra)
    return base


class TestBuilders:
    def test_udp_packet_lengths(self):
        packet = build_udp_packet(payload="p", payload_len=100, **kwargs())
        assert packet.wire_len == 14 + 20 + 8 + 100
        assert packet.ip.total_length == 20 + 8 + 100
        assert packet.l4.total_length == 8 + 100

    def test_tcp_segmentation_respects_mss(self):
        message = TcpMessage(payload="m", length=3_000)
        segments = build_tcp_segments(message=message, mss=1_448, **kwargs())
        assert len(segments) == 3
        assert [s.payload_len for s in segments] == [1_448, 1_448, 104]
        assert all(s.ip.protocol == IPPROTO_TCP for s in segments)

    def test_tcp_segment_payload_records_offsets(self):
        message = TcpMessage(payload="m", length=250)
        segments = build_tcp_segments(message=message, mss=100, **kwargs())
        payloads = [s.payload for s in segments]
        assert all(isinstance(p, TcpSegment) for p in payloads)
        assert [p.offset for p in payloads] == [0, 100, 200]
        assert payloads[-1].is_last and not payloads[0].is_last

    def test_tcp_seq_numbers_are_byte_offsets(self):
        message = TcpMessage(payload="m", length=250)
        segments = build_tcp_segments(message=message, mss=100,
                                      seq_start=500, **kwargs())
        assert [s.l4.seq for s in segments] == [500, 600, 700]

    def test_empty_message_still_sends_one_segment(self):
        message = TcpMessage(payload="m", length=0)
        segments = build_tcp_segments(message=message, mss=100, **kwargs())
        assert len(segments) == 1

    def test_invalid_mss(self):
        message = TcpMessage(payload="m", length=10)
        with pytest.raises(ValueError):
            build_tcp_segments(message=message, mss=0, **kwargs())

    @given(st.integers(1, 70_000), st.integers(64, 9_000))
    def test_segmentation_conserves_bytes(self, length, mss):
        message = TcpMessage(payload="m", length=length)
        segments = build_tcp_segments(message=message, mss=mss, **kwargs())
        assert sum(s.payload_len for s in segments) == length
        assert all(s.payload_len <= mss for s in segments)

    def test_apply_encap_wraps(self):
        inner = build_udp_packet(payload=None, payload_len=10, **kwargs())
        outer = apply_encap(inner, ENCAP)
        assert outer.is_vxlan
        assert outer.vxlan.vni == 42
        assert outer.ip.dst == ENCAP.outer_dst_ip


class TestEgressPath:
    def _make(self):
        sim = Simulator()
        kernel = Kernel(sim, n_cpus=1)
        sent = []
        egress = EgressPath(kernel, transmit=sent.append)
        return sim, kernel, egress, sent

    def _drive(self, sim, kernel, generator):
        kernel.cpu(0).spawn(generator)
        sim.run()

    def test_udp_send_transmits_and_charges(self):
        sim, kernel, egress, sent = self._make()
        self._drive(sim, kernel, egress.udp_send(
            payload="x", payload_len=64, **kwargs()))
        assert len(sent) == 1
        expected = kernel.costs.egress_cost(sent[0].wire_len)
        assert sim.now == expected

    def test_udp_send_with_encap(self):
        sim, kernel, egress, sent = self._make()
        self._drive(sim, kernel, egress.udp_send(
            payload=None, payload_len=64, encap=ENCAP, **kwargs()))
        assert sent[0].is_vxlan

    def test_tcp_send_tso_one_charge_many_segments(self):
        sim, kernel, egress, sent = self._make()
        message = TcpMessage(payload="m", length=10_000)
        self._drive(sim, kernel, egress.tcp_send_message(
            message=message, **kwargs()))
        assert len(sent) == 7  # ceil(10000/1448)
        # TSO: one egress_pkt charge + per-segment + per-byte.
        total_bytes = sum(p.wire_len for p in sent)
        expected = (kernel.costs.egress_pkt_ns
                    + kernel.costs.tso_segment_ns * len(sent)
                    + int(kernel.costs.egress_per_byte_ns * total_bytes))
        assert sim.now == expected

    def test_counters(self):
        sim, kernel, egress, sent = self._make()
        self._drive(sim, kernel, egress.udp_send(
            payload=None, payload_len=64, **kwargs()))
        assert egress.packets_sent == 1
        assert egress.bytes_sent == sent[0].wire_len


class TestFdb:
    class Port:
        def __init__(self, name):
            self.name = name

    def test_learn_and_lookup(self):
        fdb = Fdb()
        port = self.Port("p1")
        fdb.learn(MAC_A, port)
        assert fdb.lookup(MAC_A) is port
        assert fdb.learned == 1

    def test_relearn_moves_port(self):
        fdb = Fdb()
        p1, p2 = self.Port("p1"), self.Port("p2")
        fdb.learn(MAC_A, p1)
        fdb.learn(MAC_A, p2)
        assert fdb.lookup(MAC_A) is p2
        assert fdb.learned == 2

    def test_relearn_same_port_not_counted(self):
        fdb = Fdb()
        port = self.Port("p1")
        fdb.learn(MAC_A, port)
        fdb.learn(MAC_A, port)
        assert fdb.learned == 1

    def test_broadcast_never_learned_or_found(self):
        fdb = Fdb()
        fdb.learn(MacAddress.broadcast(), self.Port("p1"))
        assert len(fdb) == 0
        assert fdb.lookup(MacAddress.broadcast()) is None

    def test_miss_counts(self):
        fdb = Fdb()
        assert fdb.lookup(MAC_B) is None
        assert fdb.misses == 1

    def test_forget(self):
        fdb = Fdb()
        fdb.learn(MAC_A, self.Port("p1"))
        assert fdb.forget(MAC_A)
        assert not fdb.forget(MAC_A)
        assert fdb.lookup(MAC_A) is None

    def test_entries(self):
        fdb = Fdb()
        fdb.learn(MAC_A, self.Port("p1"))
        fdb.learn(MAC_B, self.Port("p2"))
        assert set(fdb.entries()) == {MAC_A, MAC_B}
