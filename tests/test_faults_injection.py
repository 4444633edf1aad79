"""Fault-injection mechanics: each fault family fires, is accounted at a
``fault:``-prefixed site, and never breaks packet conservation.

Also covers the two small hardening changes that ride along with the
subsystem: ``PacketQueue.clear()`` accounting and the bounded LRU decap
memo in :class:`NicStage`.
"""

import math

import pytest

from repro.apps.sockperf import SockperfUdpClient, SockperfUdpServer
from repro.bench.testbed import build_testbed
from repro.faults import FaultPlan
from repro.faults.injector import FaultInjector
from repro.faults.conservation import PacketLedger
from repro.netdev.nic import NicStage
from repro.netdev.queues import PacketQueue
from repro.packet.packet import vxlan_decapsulate
from repro.sim.units import MS

from tests.test_packet_packet import encapsulate, make_inner

pytestmark = pytest.mark.faults


def _pingpong_testbed(spec, rate_pps=1_000):
    testbed = build_testbed()
    plan = FaultPlan.parse(spec)
    injector = FaultInjector(plan, testbed).install()
    srv = testbed.add_server_container("srv", "10.0.0.10")
    cli = testbed.add_client_container("cli", "10.0.0.100")
    SockperfUdpServer(srv, 5000, core_id=1)
    client = SockperfUdpClient(testbed.sim, testbed.client, testbed.overlay,
                               cli, "10.0.0.10", 5000, rate_pps=rate_pps,
                               src_port=30001)
    return testbed, injector, client


class TestRingBurst:
    def test_burst_is_fully_accounted(self):
        testbed = build_testbed()
        plan = FaultPlan.parse("burst@1ms x2")
        injector = FaultInjector(plan, testbed).install()
        testbed.sim.run(until=10 * MS)
        ring = testbed.server.nic.ring
        expected = math.ceil(2 * ring.capacity)
        assert injector.bursts_fired == 1
        assert injector.burst_packets == expected
        assert injector.stats["fault:burst"] == expected
        report = injector.conservation_report()
        assert report["balanced"]
        assert report["injected"] == expected
        # Most of the burst overflows the ring; survivors climb the stack
        # and die at the unmatched-UDP terminal.  Nothing leaks.
        drops = report["dropped_by_site"]
        assert drops.get("eth:ring", 0) > 0
        assert drops.get("server/root:rcv:udp-unmatched", 0) > 0

    def test_burst_does_not_wedge_a_live_workload(self):
        testbed, injector, client = _pingpong_testbed("burst@5ms x2")
        testbed.sim.run(until=30 * MS)
        assert injector.bursts_fired == 1
        assert client.replies > 0
        assert injector.ledger.balanced


class TestQueueLoss:
    def test_site_loss_counts_at_prefixed_site(self):
        testbed, injector, client = _pingpong_testbed(
            "loss:eth:0.5", rate_pps=5_000)
        testbed.sim.run(until=30 * MS)
        forced = {site: n for site, n in injector.stats.items()
                  if site.startswith("fault:eth")}
        assert sum(forced.values()) > 0
        assert injector.ledger.balanced
        # Pingpong with no retry: every forced rx drop is a lost reply.
        assert client.replies < client.sent

    def test_wire_loss_window(self):
        testbed, injector, client = _pingpong_testbed(
            "loss:wire:1.0@5ms-6ms", rate_pps=2_000)
        testbed.sim.run(until=30 * MS)
        assert injector.stats.get("fault:wire", 0) > 0
        report = injector.conservation_report()
        assert report["balanced"]
        # Wire drops are injected-then-dropped so the ledger reconciles.
        assert report["dropped_by_site"]["fault:wire"] == \
            report["injected_by_site"]["wire"]


class TestSkbAllocFailure:
    def test_alloc_failures_drop_and_balance(self):
        testbed, injector, client = _pingpong_testbed(
            "skbfail:0.2", rate_pps=5_000)
        testbed.sim.run(until=30 * MS)
        assert injector.stats.get("fault:skb-alloc", 0) > 0
        report = injector.conservation_report()
        assert report["balanced"]
        assert report["dropped_by_site"].get("fault:skb-alloc", 0) > 0
        assert client.replies > 0   # non-dropped pings still complete


class TestIrqLoss:
    def test_lost_irqs_delay_but_do_not_lose_packets(self):
        testbed, injector, client = _pingpong_testbed(
            "irqloss:0.3", rate_pps=2_000)
        testbed.sim.run(until=40 * MS)
        assert injector.irqs_lost > 0
        assert injector.stats["fault:irq"] == injector.irqs_lost
        # An unserviced ring stalls packets, it does not drop them: the
        # next delivered interrupt drains everything, so the run stays
        # balanced and the workload keeps completing after the window.
        assert injector.ledger.balanced
        assert client.replies > 0


class TestLinkFlap:
    def test_flap_with_flush_accounts_ring_contents(self):
        # The burst and the flap fire at the same instant; bursts are
        # scheduled first at install time, so the flush sees a full ring.
        testbed = build_testbed()
        plan = FaultPlan.parse("burst@5ms x2; flap@5ms+1ms!")
        injector = FaultInjector(plan, testbed).install()
        testbed.sim.run(until=20 * MS)
        assert injector.flaps == 1
        ring = testbed.server.nic.ring
        assert ring.cleared > 0
        assert injector.stats["fault:flush:eth:ring"] == ring.cleared
        report = injector.conservation_report()
        assert report["balanced"]
        assert report["dropped_by_site"]["fault:flush:eth:ring"] == \
            ring.cleared
        assert testbed.server.kernel.drops["fault:flush:eth:ring"] == \
            ring.cleared

    def test_flap_drops_wire_traffic_while_down(self):
        testbed, injector, client = _pingpong_testbed(
            "flap@5ms+5ms", rate_pps=2_000)
        testbed.sim.run(until=30 * MS)
        assert injector.flaps == 1
        assert injector.stats.get("fault:wire:flap", 0) > 0
        assert injector.ledger.balanced
        assert client.replies > 0   # traffic resumes after the flap


class TestInstall:
    def test_double_install_raises(self):
        testbed = build_testbed()
        injector = FaultInjector(FaultPlan.parse("burst@1ms"), testbed)
        injector.install()
        with pytest.raises(RuntimeError):
            injector.install()


class TestPacketLedgerUnit:
    def test_terminal_buckets_balance(self):
        ledger = PacketLedger()
        ledger.inject("eth", 10)
        ledger.deliver("sock", 4)
        ledger.drop("fault:x", 3)
        ledger.enter(5)
        ledger.leave(2)
        queue = [object()] * 0
        ledger.add_queue_provider(lambda: len(queue))
        totals = ledger.totals()
        assert totals == {"injected": 10, "delivered": 4, "dropped": 3,
                          "in_processing": 3, "queued": 0, "residual": 0}
        assert ledger.balanced
        ledger.check()   # does not raise

    def test_queue_providers_count_toward_in_flight(self):
        ledger = PacketLedger()
        ledger.inject("eth", 2)
        depth = [2]
        ledger.add_queue_provider(lambda: depth[0])
        assert ledger.balanced
        depth[0] = 0
        assert ledger.totals()["residual"] == 2

    def test_check_reports_sites_on_leak(self):
        ledger = PacketLedger()
        ledger.inject("eth", 5)
        ledger.deliver("sock", 1)
        with pytest.raises(AssertionError, match="residual=4") as err:
            ledger.check()
        assert "eth" in str(err.value) and "sock" in str(err.value)


class TestPacketQueueClear:
    def test_clear_counts_separately_from_drops(self):
        queue = PacketQueue(capacity=2, name="q")
        assert queue.enqueue("a") and queue.enqueue("b")
        assert not queue.enqueue("c")        # tail drop
        queue.clear()
        assert queue.cleared == 2
        assert queue.dropped == 1
        assert len(queue) == 0
        queue.clear()                         # idempotent on empty
        assert queue.cleared == 2
        assert queue.stats() == {"depth": 0, "max_depth": 2,
                                 "enqueued": 2, "dropped": 1, "cleared": 2}


class TestDecapMemoLru:
    def _packets(self, n):
        # Distinct header stacks => distinct memo keys.
        return [encapsulate(make_inner(src_port=40000 + i)) for i in range(n)]

    def test_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(NicStage, "DECAP_MEMO_CAP", 4)
        stage = NicStage(nic=None)
        for packet in self._packets(100):
            stage._decap(packet)
        assert len(stage._decap_memo) == 4

    def test_hot_entry_survives_churn(self, monkeypatch):
        monkeypatch.setattr(NicStage, "DECAP_MEMO_CAP", 4)
        stage = NicStage(nic=None)
        hot = encapsulate(make_inner(src_port=39999))
        stage._decap(hot)
        for packet in self._packets(3):
            stage._decap(packet)
        # Touch the hot entry, then churn enough to evict all cold ones.
        stage._decap(hot)
        for packet in self._packets(3):
            stage._decap(packet)
        assert id(hot.headers) in stage._decap_memo

    def test_memoized_decap_matches_fresh_decap(self, monkeypatch):
        monkeypatch.setattr(NicStage, "DECAP_MEMO_CAP", 2)
        stage = NicStage(nic=None)
        outer = encapsulate(make_inner(payload_len=80, src_port=41000))
        first = stage._decap(outer)
        second = stage._decap(outer)          # memo hit
        _header, reference = vxlan_decapsulate(outer)
        for inner in (first, second):
            assert inner.headers == reference.headers
            assert inner.payload_len == reference.payload_len
            assert inner.l4.src_port == 41000
