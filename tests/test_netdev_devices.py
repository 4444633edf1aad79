"""Tests for the device drivers: NIC (irq/moderation/rings), bridge,
veth, vxlan gro_cells, and the GRO engine."""

from repro.bench.testbed import build_testbed
from repro.kernel.config import KernelConfig
from repro.kernel.core import Kernel
from repro.kernel.gro import GroEngine
from repro.netdev.bridge import Bridge
from repro.netdev.queues import PacketQueue
from repro.packet.addr import Ipv4Address, MacAddress
from repro.packet.skb import SKBuff
from repro.prism.mode import StackMode
from repro.sim import Simulator
from repro.sim.units import MS, US
from repro.stack.egress import build_tcp_segments, build_udp_packet
from repro.stack.tcp import TcpMessage
from repro.apps.remote import RemoteRequestSender

MAC_A = MacAddress(0x10)
MAC_B = MacAddress(0x20)
MAC_C = MacAddress(0x30)


def plain_packet(payload_len=64, dport=7000):
    return build_udp_packet(
        src_mac=MAC_A, dst_mac=MAC_B,
        src_ip=Ipv4Address("192.168.1.2"), dst_ip=Ipv4Address("192.168.1.1"),
        src_port=30001, dst_port=dport, payload=None, payload_len=payload_len)


class TestNicInterrupts:
    def test_first_packet_raises_irq_immediately(self):
        testbed = build_testbed()
        testbed.server.udp_socket(7000, core_id=1)
        testbed.server.nic.receive(plain_packet())
        assert testbed.server.kernel.cpu(0).stats.hardirqs == 1
        assert not testbed.server.nic.irq_enabled

    def test_irq_masked_while_scheduled(self):
        testbed = build_testbed()
        testbed.server.udp_socket(7000, core_id=1)
        testbed.server.nic.receive(plain_packet())
        testbed.server.nic.receive(plain_packet())
        # Second packet must not raise a second interrupt.
        assert testbed.server.kernel.cpu(0).stats.hardirqs == 1

    def test_irq_rearmed_after_napi_complete(self):
        testbed = build_testbed()
        testbed.server.udp_socket(7000, core_id=1)
        testbed.server.nic.receive(plain_packet())
        testbed.sim.run(until=1 * MS)
        assert testbed.server.nic.irq_enabled
        # Well past the moderation window: next packet interrupts again.
        testbed.server.nic.receive(plain_packet())
        assert testbed.server.kernel.cpu(0).stats.hardirqs == 2

    def test_interrupt_moderation_defers_within_window(self):
        testbed = build_testbed()
        testbed.server.udp_socket(7000, core_id=1)
        window = testbed.server.kernel.costs.irq_rate_limit_ns
        testbed.server.nic.receive(plain_packet())
        testbed.sim.run(until=window // 4)  # processed, napi complete
        assert testbed.server.nic.irq_enabled
        hardirqs_before = testbed.server.kernel.cpu(0).stats.hardirqs
        testbed.server.nic.receive(plain_packet())
        # Within the window: no immediate irq, a timer is armed instead.
        assert testbed.server.kernel.cpu(0).stats.hardirqs == hardirqs_before
        testbed.sim.run(until=2 * window)
        assert testbed.server.kernel.cpu(0).stats.hardirqs == hardirqs_before + 1

    def test_ring_overflow_drops(self):
        testbed = build_testbed()
        capacity = testbed.server.kernel.config.rx_ring_capacity
        # No socket; just flood the ring without running the sim.
        for _ in range(capacity + 10):
            testbed.server.nic.receive(plain_packet())
        drops = testbed.server.kernel.drops
        assert drops.get("eth:ring") == 10


class TestNicPriorityRings:
    def test_hardware_steers_high_priority_flow(self):
        testbed = build_testbed(
            config=KernelConfig(nic_priority_rings=True),
            mode=StackMode.PRISM_SYNC)
        testbed.mark_high_priority("192.168.1.1", 7000)
        testbed.server.nic.receive(plain_packet(dport=7000))
        testbed.server.nic.receive(plain_packet(dport=9999))
        assert len(testbed.server.nic.ring_high) == 1
        assert len(testbed.server.nic.ring) == 1

    def test_high_ring_polled_first(self):
        testbed = build_testbed(
            config=KernelConfig(nic_priority_rings=True),
            mode=StackMode.PRISM_SYNC)
        testbed.mark_high_priority("192.168.1.1", 7000)
        high_sock = testbed.server.udp_socket(7000, core_id=1)
        low_sock = testbed.server.udp_socket(9999, core_id=1)
        # Enqueue low first, then high; high must be delivered first.
        testbed.server.nic.receive(plain_packet(dport=9999))
        testbed.server.nic.receive(plain_packet(dport=7000))
        testbed.sim.run(until=1 * MS)
        high_skb = high_sock.try_recv()
        low_skb = low_sock.try_recv()
        assert high_skb.marks["socket_enqueue"] < low_skb.marks["socket_enqueue"]


class TestBridge:
    def _make(self):
        sim = Simulator()
        kernel = Kernel(sim, n_cpus=1)
        return Bridge(kernel, "br0")

    class Port:
        def __init__(self, name):
            self.name = name
            self.peer = object()

    def _skb(self, src=MAC_A, dst=MAC_B):
        packet = build_udp_packet(
            src_mac=src, dst_mac=dst,
            src_ip=Ipv4Address("10.0.0.1"), dst_ip=Ipv4Address("10.0.0.2"),
            src_port=1, dst_port=2, payload=None, payload_len=10)
        return SKBuff(packet)

    def test_forward_to_known_mac(self):
        bridge = self._make()
        ingress = self.Port("in")
        egress = self.Port("out")
        bridge.fdb.learn(MAC_B, egress)
        assert bridge.forward(self._skb(), ingress) is egress
        assert bridge.forwarded == 1

    def test_forward_learns_source(self):
        bridge = self._make()
        ingress = self.Port("in")
        bridge.fdb.learn(MAC_B, self.Port("out"))
        bridge.forward(self._skb(src=MAC_C), ingress)
        assert bridge.fdb.lookup(MAC_C) is ingress

    def test_unknown_destination_dropped_and_counted(self):
        bridge = self._make()
        assert bridge.forward(self._skb(), self.Port("in")) is None
        assert bridge.flood_drops == 1

    def test_hairpin_to_ingress_rejected(self):
        bridge = self._make()
        port = self.Port("in")
        bridge.fdb.learn(MAC_B, port)
        assert bridge.forward(self._skb(), port) is None

    def test_add_port_idempotent(self):
        bridge = self._make()
        port = self.Port("p")
        bridge.add_port(port)
        bridge.add_port(port)
        assert bridge.ports == [port]


class TestGroEngine:
    def _make(self, **config):
        sim = Simulator()
        kernel = Kernel(sim, n_cpus=1,
                        config=KernelConfig(**config) if config else None)
        return kernel, GroEngine(kernel)

    def _tcp_skbs(self, n=2, dport=80, sport=30001, mss=1_000):
        message = TcpMessage(payload="m", length=mss * n)
        segments = build_tcp_segments(
            src_mac=MAC_A, dst_mac=MAC_B,
            src_ip=Ipv4Address("10.0.0.1"), dst_ip=Ipv4Address("10.0.0.2"),
            src_port=sport, dst_port=dport, message=message, mss=mss)
        return [SKBuff(segment) for segment in segments]

    def test_merge_same_flow_tcp(self):
        _kernel, gro = self._make()
        a, b = self._tcp_skbs(2)
        a_len = a.wire_len
        assert gro.can_merge(a, b)
        gro.merge(a, b)
        assert a.gro_segments == 2
        assert a.wire_len == a_len + b.wire_len
        assert b.packet in a.gro_list

    def test_no_merge_across_flows(self):
        _kernel, gro = self._make()
        a = self._tcp_skbs(1, sport=30001)[0]
        b = self._tcp_skbs(1, sport=30002)[0]
        assert not gro.can_merge(a, b)

    def test_no_merge_udp(self):
        _kernel, gro = self._make()
        udp = SKBuff(plain_packet())
        other = SKBuff(plain_packet())
        assert not gro.can_merge(udp, other)

    def test_no_merge_past_byte_limit(self):
        kernel, gro = self._make(gro_max_bytes=2_500)
        a, b, c = self._tcp_skbs(3)
        assert gro.can_merge(a, b)
        gro.merge(a, b)
        assert not gro.can_merge(a, c)

    def test_no_merge_past_segment_limit(self):
        kernel, gro = self._make(gro_max_segs=2)
        a, b, c = self._tcp_skbs(3)
        gro.merge(a, b)
        assert not gro.can_merge(a, c)

    def test_no_merge_across_priorities(self):
        _kernel, gro = self._make()
        a, b = self._tcp_skbs(2)
        a.classify(0)
        b.classify(1)
        assert not gro.can_merge(a, b)

    def test_try_merge_into_queue(self):
        _kernel, gro = self._make()
        queue = PacketQueue(10, "q")
        a, b = self._tcp_skbs(2)
        queue.enqueue(a)
        assert gro.try_merge_into_queue(queue, b)
        assert len(queue) == 1
        assert gro.merged_segments == 1

    def test_try_merge_empty_queue_fails(self):
        _kernel, gro = self._make()
        queue = PacketQueue(10, "q")
        (a,) = self._tcp_skbs(1)
        assert not gro.try_merge_into_queue(queue, a)

    def test_try_merge_disabled_by_config(self):
        _kernel, gro = self._make(gro_enabled=False)
        queue = PacketQueue(10, "q")
        a, b = self._tcp_skbs(2)
        queue.enqueue(a)
        assert not gro.try_merge_into_queue(queue, b)


class TestGroEndToEnd:
    def test_overlay_tcp_coalesced_at_gro_cells(self):
        testbed = build_testbed()
        server = testbed.add_server_container("srv", "10.0.0.10")
        client = testbed.add_client_container("cli", "10.0.0.100")
        endpoint = server.tcp_endpoint(80, core_id=1)
        sender = RemoteRequestSender(testbed.client, testbed.overlay,
                                     client, "10.0.0.10")
        message = TcpMessage(payload="big", length=20_000)
        sender.send_tcp_message(src_port=30001, dst_port=80, message=message)
        testbed.sim.run(until=5 * MS)
        # All 14 segments arrived; GRO merged some of them, so the vxlan
        # device saw every wire packet but the backlog saw fewer skbs.
        vxlan = testbed.server_overlay.vxlan
        assert vxlan.rx_packets == 14
        assert vxlan.gro.merged_segments > 0
        assert endpoint.messages_delivered == 1
