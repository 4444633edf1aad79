"""Tests for the wire Packet, VXLAN encap/decap, and SKBuff."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.kernel.gro import GroEngine
from repro.packet import (
    EthernetHeader,
    IPPROTO_UDP,
    IPv4Header,
    Ipv4Address,
    MacAddress,
    Packet,
    SKBuff,
    UdpHeader,
    VXLAN_PORT,
    VxlanHeader,
    vxlan_decapsulate,
    vxlan_encapsulate,
)
from repro.packet.packet import NotVxlanError
from repro.packet.skb import PRIORITY_HIGH, PRIORITY_LOW

HOST_MAC_A = MacAddress("52:54:00:00:00:01")
HOST_MAC_B = MacAddress("52:54:00:00:00:02")
HOST_IP_A = Ipv4Address("192.168.1.1")
HOST_IP_B = Ipv4Address("192.168.1.2")
CONT_MAC_A = MacAddress("02:42:0a:00:00:02")
CONT_MAC_B = MacAddress("02:42:0a:00:00:03")
CONT_IP_A = Ipv4Address("10.0.0.2")
CONT_IP_B = Ipv4Address("10.0.0.3")


def make_inner(payload_len=64, src_port=40000, dst_port=11111):
    udp = UdpHeader(src_port, dst_port, payload_length=payload_len)
    ip = IPv4Header(CONT_IP_A, CONT_IP_B, IPPROTO_UDP,
                    total_length=IPv4Header.LENGTH + udp.total_length)
    eth = EthernetHeader(CONT_MAC_A, CONT_MAC_B)
    return Packet(headers=(eth, ip, udp), payload="request", payload_len=payload_len)


def encapsulate(inner, vni=100):
    return vxlan_encapsulate(
        inner, vni,
        outer_src_mac=HOST_MAC_A, outer_dst_mac=HOST_MAC_B,
        outer_src_ip=HOST_IP_A, outer_dst_ip=HOST_IP_B)


class TestPacket:
    def test_wire_len_sums_headers_and_payload(self):
        packet = make_inner(payload_len=100)
        assert packet.wire_len == 14 + 20 + 8 + 100

    def test_negative_payload_len_rejected(self):
        with pytest.raises(ValueError):
            Packet(headers=(), payload_len=-1)

    def test_layer_accessors_find_outermost(self):
        packet = make_inner()
        assert packet.eth.src == CONT_MAC_A
        assert packet.ip.dst == CONT_IP_B
        assert packet.l4.dst_port == 11111

    def test_layer_accessors_none_when_absent(self):
        packet = Packet(headers=(), payload_len=0)
        assert packet.eth is None
        assert packet.ip is None
        assert packet.l4 is None
        assert packet.flow_key() is None

    def test_flow_key_from_outer_layers(self):
        key = make_inner().flow_key()
        assert key.src_ip == CONT_IP_A
        assert key.dst_port == 11111
        assert key.protocol == IPPROTO_UDP

    def test_packet_ids_unique(self):
        assert make_inner().packet_id != make_inner().packet_id

    def test_repr_lists_layers(self):
        assert "Ethernet/IPv4/Udp" in repr(make_inner())


class TestVxlanEncapsulation:
    def test_encap_prepends_four_headers(self):
        inner = make_inner()
        outer = encapsulate(inner)
        assert len(outer.headers) == len(inner.headers) + 4
        assert outer.is_vxlan

    def test_encap_overhead_is_50_bytes(self):
        inner = make_inner()
        outer = encapsulate(inner)
        assert outer.wire_len - inner.wire_len == 14 + 20 + 8 + 8

    def test_outer_udp_targets_vxlan_port(self):
        outer = encapsulate(make_inner())
        assert outer.l4.dst_port == VXLAN_PORT

    def test_outer_udp_length_covers_inner(self):
        inner = make_inner()
        outer = encapsulate(inner)
        assert outer.l4.total_length == 8 + inner.wire_len + VxlanHeader.LENGTH

    def test_outer_flow_key_uses_host_ips(self):
        outer = encapsulate(make_inner())
        key = outer.flow_key()
        assert key.src_ip == HOST_IP_A
        assert key.dst_ip == HOST_IP_B

    def test_entropy_source_port_stable_per_flow(self):
        a = encapsulate(make_inner(src_port=1000))
        b = encapsulate(make_inner(src_port=1000))
        assert a.l4.src_port == b.l4.src_port

    def test_decap_round_trip(self):
        inner = make_inner(payload_len=200)
        vxlan, recovered = vxlan_decapsulate(encapsulate(inner, vni=77))
        assert vxlan.vni == 77
        assert recovered.headers == inner.headers
        assert recovered.payload == inner.payload
        assert recovered.payload_len == inner.payload_len
        assert recovered.packet_id == inner.packet_id

    def test_decap_non_vxlan_raises(self):
        with pytest.raises(NotVxlanError):
            vxlan_decapsulate(make_inner())

    def test_created_at_preserved(self):
        inner = make_inner()
        inner.created_at = 12345
        outer = encapsulate(inner)
        _vxlan, recovered = vxlan_decapsulate(outer)
        assert outer.created_at == 12345
        assert recovered.created_at == 12345

    @given(st.integers(0, 1400), st.integers(0, (1 << 24) - 1))
    def test_round_trip_property(self, payload_len, vni):
        inner = make_inner(payload_len=payload_len)
        _vxlan, recovered = vxlan_decapsulate(encapsulate(inner, vni=vni))
        assert recovered.wire_len == inner.wire_len


class TestSKBuff:
    def test_starts_unclassified_and_low(self):
        skb = SKBuff(make_inner())
        assert not skb.classified
        assert not skb.is_high_priority

    def test_classify_high(self):
        skb = SKBuff(make_inner())
        skb.classify(PRIORITY_HIGH)
        assert skb.classified
        assert skb.is_high_priority

    def test_classify_low(self):
        skb = SKBuff(make_inner())
        skb.classify(PRIORITY_LOW)
        assert skb.classified
        assert not skb.is_high_priority

    def test_classify_negative_rejected(self):
        skb = SKBuff(make_inner())
        with pytest.raises(ValueError):
            skb.classify(-1)

    def test_wire_len_includes_gro_merged_bytes(self):
        skb = SKBuff(make_inner(payload_len=100))
        base = skb.wire_len
        GroEngine(kernel=None).merge(skb, SKBuff(make_inner(payload_len=1358)))
        assert skb.gro_segments == 2
        assert skb.wire_len == base + 1400

    def test_mark_first_hit_wins(self):
        skb = SKBuff(make_inner())
        skb.mark("rx", 100)
        skb.mark("rx", 200)
        assert skb.marks["rx"] == 100

    def test_skb_ids_unique(self):
        assert SKBuff(make_inner()).skb_id != SKBuff(make_inner()).skb_id

    def test_repr_shows_priority(self):
        skb = SKBuff(make_inner())
        assert "prio=?" in repr(skb)
        skb.classify(PRIORITY_HIGH)
        assert "prio=0" in repr(skb)
