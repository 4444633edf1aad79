"""Tests for the tracer, kernel-time probing, wire, remote host, topology."""

import pytest

from repro.bench.testbed import build_testbed
from repro.kernel.core import Kernel
from repro.kernel.costs import CostModel
from repro.obs import KernelObserver
from repro.overlay.container import docker_mac_for
from repro.overlay.network import RemoteHost, Wire
from repro.overlay.topology import OverlayEndpoint, OverlayNetwork
from repro.packet.addr import Ipv4Address, MacAddress
from repro.packet.packet import Packet
from repro.sim import Simulator
from repro.stack.egress import build_udp_packet
from repro.trace.tracer import TracePoint, Tracer


class TestTracer:
    def test_emit_without_subscribers_is_noop(self):
        tracer = Tracer()
        tracer.emit("nothing", x=1)  # must not raise

    def test_attach_and_emit(self):
        tracer = Tracer()
        got = []
        tracer.attach("point", lambda **kw: got.append(kw))
        tracer.emit("point", a=1, b="two")
        assert got == [{"a": 1, "b": "two"}]

    def test_multiple_subscribers(self):
        tracer = Tracer()
        got = []
        tracer.attach("p", lambda **kw: got.append("first"))
        tracer.attach("p", lambda **kw: got.append("second"))
        tracer.emit("p")
        assert got == ["first", "second"]

    def test_detach(self):
        tracer = Tracer()
        callback = tracer.attach("p", lambda **kw: None)
        assert tracer.subscribers("p") == (callback,)
        assert tracer.detach("p", callback)
        assert not tracer.detach("p", callback)
        assert not tracer.has_subscribers("p")
        assert tracer.subscribers("p") == ()
        assert not tracer.active

    def test_detach_unknown_point(self):
        tracer = Tracer()
        assert not tracer.detach("nope", lambda: None)

    def test_subscriber_can_detach_during_emit(self):
        tracer = Tracer()
        got = []

        def once(**kw):
            got.append(1)
            tracer.detach("p", once)

        tracer.attach("p", once)
        tracer.emit("p")
        tracer.emit("p")
        assert got == [1]


class TestKernelLatencyProbe:
    """Ring-to-socket kernel time, as the observer measures it (Fig. 5)."""

    def _observer(self, until=0):
        kernel = Kernel(Simulator())
        kernel.sim.run(until=until)
        return kernel, KernelObserver(kernel)

    def _emit(self, kernel, socket_name="s", high=False, start=100,
              alloc=True):
        skb = kernel.skb_pool.alloc(Packet(headers=(), payload_len=1))
        skb.mark("rx_ring", start)
        skb.classify(0 if high else 1)
        if alloc:
            kernel.tracer.emit(TracePoint.SKB_ALLOC, device="eth", skb=skb)
        kernel.tracer.emit(TracePoint.SOCKET_ENQUEUE, socket=socket_name,
                           skb=skb)

    def test_records_ring_to_socket_time(self):
        kernel, observer = self._observer(until=500)
        self._emit(kernel, start=100)
        assert [p.kernel_time_ns
                for p in observer.completed_packets()] == [400]

    def test_priority_filter(self):
        kernel, observer = self._observer()
        self._emit(kernel, high=False)
        self._emit(kernel, high=True)
        highs = [p for p in observer.completed_packets() if p.high_priority]
        assert len(highs) == 1

    def test_socket_filter(self):
        kernel, observer = self._observer()
        self._emit(kernel, socket_name="a")
        self._emit(kernel, socket_name="b")
        done = observer.completed_packets()
        assert [p.socket for p in done] == ["a", "b"]

    def test_skb_without_mark_ignored(self):
        # An skb the observer never saw allocated has no ring milestone.
        kernel, observer = self._observer()
        self._emit(kernel, alloc=False)
        assert observer.completed_packets() == []

    def test_stop_and_clear(self):
        kernel, observer = self._observer()
        self._emit(kernel)
        observer.packets.clear()
        assert observer.completed_packets() == []
        observer.detach()
        self._emit(kernel)
        assert observer.completed_packets() == []


class Endpoint:
    """Minimal wire endpoint for tests."""

    def __init__(self):
        self.received = []

    def receive(self, packet):
        self.received.append(packet)


def make_packet(payload_len=100):
    return build_udp_packet(
        src_mac=MacAddress(1), dst_mac=MacAddress(2),
        src_ip=Ipv4Address("1.1.1.1"), dst_ip=Ipv4Address("2.2.2.2"),
        src_port=1, dst_port=2, payload=None, payload_len=payload_len)


class TestWire:
    def test_delivers_to_opposite_endpoint(self):
        sim = Simulator()
        wire = Wire(sim, CostModel())
        a, b = Endpoint(), Endpoint()
        wire.attach(a, b)
        wire.transmit(make_packet(), sender=a)
        sim.run()
        assert len(b.received) == 1
        assert not a.received

    def test_latency_plus_serialization(self):
        sim = Simulator()
        costs = CostModel()
        wire = Wire(sim, costs)
        a, b = Endpoint(), Endpoint()
        wire.attach(a, b)
        packet = make_packet()
        wire.transmit(packet, sender=a)
        sim.run()
        expected = costs.wire_time(packet.wire_len)
        assert sim.now == expected

    def test_back_to_back_serialization_spacing(self):
        sim = Simulator()
        costs = CostModel()
        wire = Wire(sim, costs)
        a, b = Endpoint(), Endpoint()
        wire.attach(a, b)
        arrivals = []
        b.receive = lambda p: arrivals.append(sim.now)
        packet = make_packet(payload_len=1_400)
        wire.transmit(packet, sender=a)
        wire.transmit(make_packet(payload_len=1_400), sender=a)
        sim.run()
        serialization = int(packet.wire_len / costs.wire_bytes_per_ns)
        assert arrivals[1] - arrivals[0] == serialization

    def test_directions_are_independent(self):
        sim = Simulator()
        wire = Wire(sim, CostModel())
        a, b = Endpoint(), Endpoint()
        wire.attach(a, b)
        wire.transmit(make_packet(), sender=a)
        wire.transmit(make_packet(), sender=b)
        sim.run()
        assert len(a.received) == 1 and len(b.received) == 1

    def test_unattached_sender_rejected(self):
        sim = Simulator()
        wire = Wire(sim, CostModel())
        wire.attach(Endpoint(), Endpoint())
        with pytest.raises(ValueError):
            wire.transmit(make_packet(), sender=Endpoint())

    def test_endpoint_without_receive_rejected(self):
        sim = Simulator()
        wire = Wire(sim, CostModel())
        with pytest.raises(TypeError):
            wire.attach(object(), Endpoint())


class TestRemoteHost:
    def _make(self):
        sim = Simulator()
        remote = RemoteHost(sim, CostModel(), ip=Ipv4Address("192.168.1.2"),
                            mac=MacAddress(9))
        return sim, remote

    def test_port_demux_with_client_overhead(self):
        sim, remote = self._make()
        got = []
        remote.on_port(2, lambda packet: got.append(sim.now))
        remote.receive(make_packet())
        sim.run()
        assert got == [CostModel().client_overhead_ns]

    def test_vxlan_packets_are_decapsulated_for_demux(self):
        from repro.stack.egress import EncapInfo, apply_encap
        sim, remote = self._make()
        got = []
        remote.on_port(2, lambda packet: got.append(packet))
        encap = EncapInfo(vni=1, outer_src_mac=MacAddress(3),
                          outer_dst_mac=MacAddress(4),
                          outer_src_ip=Ipv4Address("10.9.9.9"),
                          outer_dst_ip=Ipv4Address("10.9.9.8"))
        remote.receive(apply_encap(make_packet(), encap))
        sim.run()
        assert len(got) == 1
        assert not got[0].is_vxlan  # handler sees the inner packet

    def test_unhandled_counted(self):
        _sim, remote = self._make()
        remote.receive(make_packet())
        assert remote.unhandled == 1

    def test_duplicate_port_handler_rejected(self):
        _sim, remote = self._make()
        remote.on_port(2, lambda p: None)
        with pytest.raises(ValueError):
            remote.on_port(2, lambda p: None)


class TestOverlayTopology:
    def test_docker_mac_prefix(self):
        mac = docker_mac_for(Ipv4Address("10.0.0.2"))
        assert str(mac).startswith("02:42:")

    def test_endpoint_registry(self):
        overlay = OverlayNetwork(vni=7)
        endpoint = OverlayEndpoint(
            ip=Ipv4Address("10.0.0.2"), mac=MacAddress(5),
            host_ip=Ipv4Address("192.168.1.1"), host_mac=MacAddress(6))
        overlay.register(endpoint)
        assert overlay.endpoint(Ipv4Address("10.0.0.2")) is endpoint
        with pytest.raises(KeyError):
            overlay.endpoint(Ipv4Address("10.0.0.3"))
        overlay.register(endpoint)  # the same endpoint again is a no-op
        moved = OverlayEndpoint(
            ip=Ipv4Address("10.0.0.2"), mac=MacAddress(5),
            host_ip=Ipv4Address("192.168.1.9"), host_mac=MacAddress(7))
        with pytest.raises(ValueError, match="already registered"):
            overlay.register(moved)
        assert overlay.endpoint(Ipv4Address("10.0.0.2")) is endpoint

    def test_encap_info_targets_remote_host(self):
        testbed = build_testbed()
        testbed.add_server_container("srv", "10.0.0.10")
        remote = testbed.add_client_container("cli", "10.0.0.100")
        encap = testbed.server_overlay.encap_to("10.0.0.100")
        assert encap.vni == testbed.overlay.vni
        assert encap.outer_dst_ip == testbed.client.ip
        assert encap.outer_src_ip == testbed.server.ip
        # One frozen EncapInfo per destination, however it is spelled.
        assert testbed.server_overlay.encap_to(remote.ip) is encap

    def test_container_bookkeeping(self):
        testbed = build_testbed()
        container = testbed.add_server_container("srv", "10.0.0.10")
        assert container.mac == docker_mac_for(container.ip)
        # Static FDB entry points at the veth host end.
        bridge = testbed.server_overlay.bridge
        assert bridge.fdb.lookup(container.mac) is container.veth.host_end
        # Veth container end lives in the container's namespace.
        assert container.veth.container_end.netns is container.netns

    def test_duplicate_container_name_rejected(self):
        testbed = build_testbed()
        testbed.add_server_container("srv", "10.0.0.10")
        with pytest.raises(ValueError):
            testbed.add_server_container("srv", "10.0.0.11")

    def test_send_helpers_require_overlay(self):
        from repro.overlay.container import Container
        testbed = build_testbed()
        orphan = Container(testbed.server, "orphan",
                           ip=Ipv4Address("10.0.0.50"))
        with pytest.raises(RuntimeError):
            next(orphan.send_udp(dst_ip="10.0.0.100", dst_port=1,
                                 src_port=2, payload=None, payload_len=1))
