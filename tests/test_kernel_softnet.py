"""Unit tests for NapiStruct and SoftnetData (poll lists, dual queues)."""

import pytest

from repro.kernel.core import Kernel
from repro.kernel.softnet import NET_RX_SOFTIRQ, NapiStruct, hand_off
from repro.netdev.device import PacketStage
from repro.packet.packet import Packet
from repro.packet.skb import SKBuff
from repro.prism.mode import StackMode
from repro.sim import Simulator


class CountingStage(PacketStage):
    """A stage that charges a fixed cost and records processed skbs."""

    name = "test"

    def __init__(self, ns=100):
        self.ns = ns
        self.processed = []

    def cost(self, skb):
        return self.ns

    def run(self, skb, softnet):
        self.processed.append(skb)
        return None


def make_kernel():
    sim = Simulator()
    return sim, Kernel(sim, n_cpus=1)


def make_skb():
    return SKBuff(Packet(headers=(), payload_len=10))


class TestNapiStruct:
    def test_enqueue_low_and_high_separate(self):
        _sim, kernel = make_kernel()
        napi = NapiStruct("n", kernel, stage=CountingStage())
        napi.enqueue(make_skb(), high=False)
        napi.enqueue(make_skb(), high=True)
        assert len(napi.queue_low) == 1
        assert len(napi.queue_high) == 1
        assert napi.has_packets() and napi.has_high() and napi.has_low()

    def test_enqueue_overflow_drops_and_counts(self):
        _sim, kernel = make_kernel()
        napi = NapiStruct("n", kernel, stage=CountingStage(),
                          queue_capacity=2)
        assert napi.enqueue(make_skb(), high=False)
        assert napi.enqueue(make_skb(), high=False)
        assert not napi.enqueue(make_skb(), high=False)
        assert kernel.drops["n:low"] == 1

    def test_poll_prefers_high_queue_exclusively(self):
        sim, kernel = make_kernel()
        stage = CountingStage()
        napi = NapiStruct("n", kernel, stage=stage)
        napi.softnet = kernel.softnet_for(0)
        low = make_skb()
        high = make_skb()
        napi.enqueue(low, high=False)
        napi.enqueue(high, high=True)

        def driver():
            count = yield from napi.poll(64, kernel.cpu(0).charge_softirq)
            results.append(count)

        results = []
        sim.process(driver())
        sim.run()
        # Fig. 7: when the high queue is non-empty, ONLY it is drained.
        assert results == [1]
        assert stage.processed == [high]
        assert napi.has_low()

    def test_poll_batch_limit(self):
        sim, kernel = make_kernel()
        stage = CountingStage()
        napi = NapiStruct("n", kernel, stage=stage)
        napi.softnet = kernel.softnet_for(0)
        for _ in range(10):
            napi.enqueue(make_skb(), high=False)

        def driver():
            count = yield from napi.poll(4, kernel.cpu(0).charge_softirq)
            results.append(count)

        results = []
        sim.process(driver())
        sim.run()
        assert results == [4]
        assert len(napi.queue_low) == 6

    def test_poll_charges_device_overhead_and_stage_costs(self):
        sim, kernel = make_kernel()
        stage = CountingStage(ns=100)
        napi = NapiStruct("n", kernel, stage=stage)
        napi.softnet = kernel.softnet_for(0)
        for _ in range(3):
            napi.enqueue(make_skb(), high=False)

        def driver():
            yield from napi.poll(64, kernel.cpu(0).charge_softirq)

        start = sim.now
        sim.process(driver())
        sim.run()
        expected = kernel.costs.device_poll_overhead_ns + 3 * 100
        assert sim.now - start == expected

    def _hand_off(self, mode, level):
        """Hand one skb to napi "n", whose stage charges 50 ns."""
        sim, kernel = make_kernel()
        kernel.set_mode(mode)
        stage = CountingStage(ns=50)
        napi = NapiStruct("n", kernel, stage=stage)
        napi.softnet = kernel.softnet_for(0)
        skb = make_skb()
        skb.classify(level)
        done = []

        def driver():
            yield from hand_off(napi, skb, None,
                                kernel.cpu(0).charge_softirq)
            done.append(sim.now)

        sim.process(driver())
        sim.run()
        return done[0], kernel, napi, stage, skb

    def test_inline_hand_off_runs_stage_without_queueing(self):
        done, kernel, napi, stage, skb = self._hand_off(
            StackMode.PRISM_SYNC, level=0)
        assert stage.processed == [skb]
        assert not napi.has_packets() and napi.polls == 0
        assert napi.packets_processed == 1
        assert done == kernel.costs.sync_stage_overhead_ns + 50

    def test_hand_off_enqueues_low_class_and_schedules(self):
        done, kernel, napi, stage, skb = self._hand_off(
            StackMode.PRISM_SYNC, level=1)
        assert done == kernel.costs.softirq_raise_ns
        # The softirq it raised polled "n" and ran its stage.
        assert stage.processed == [skb]
        assert napi.polls == 1
        assert kernel.cpu(0).stats.softirq_invocations == 1

    def test_hand_off_enqueues_high_class_to_high_queue_in_batch_mode(self):
        sim, kernel = make_kernel()
        kernel.set_mode(StackMode.PRISM_BATCH)
        softnet = kernel.softnet_for(0)
        napi = NapiStruct("n", kernel, stage=CountingStage())
        napi.softnet = softnet
        other = NapiStruct("other", kernel, stage=CountingStage())
        softnet.napi_schedule(other)
        skb = make_skb()
        skb.classify(0)
        step = hand_off(napi, skb, None, kernel.cpu(0).charge_softirq)
        assert next(step) == kernel.costs.softirq_raise_ns
        assert napi.queue_high.peek() is skb and len(napi.queue_high) == 1
        assert not napi.queue_low
        assert softnet.poll_list_names() == ["other"]
        with pytest.raises(StopIteration):
            next(step)
        # Head insertion for a high-priority device (§III-A).
        assert softnet.poll_list_names() == ["n", "other"]

    def test_backlog_dispatches_by_skb_device(self):
        sim, kernel = make_kernel()
        softnet = kernel.softnet_for(0)
        stage_a = CountingStage()
        stage_b = CountingStage()

        class Dev:
            def __init__(self, stage):
                self.rx_stage = stage

        skb_a = make_skb()
        skb_a.dev = Dev(stage_a)
        skb_b = make_skb()
        skb_b.dev = Dev(stage_b)
        softnet.backlog.enqueue(skb_a, high=False)
        softnet.backlog.enqueue(skb_b, high=False)

        def driver():
            yield from softnet.backlog.poll(64, softnet.cpu.charge_softirq)

        sim.process(driver())
        sim.run()
        assert stage_a.processed == [skb_a]
        assert stage_b.processed == [skb_b]

    def test_backlog_without_device_stage_raises(self):
        sim, kernel = make_kernel()
        softnet = kernel.softnet_for(0)
        skb = make_skb()  # no dev
        softnet.backlog.enqueue(skb, high=False)

        def driver():
            yield from softnet.backlog.poll(64, softnet.cpu.charge_softirq)

        sim.process(driver())
        with pytest.raises(RuntimeError):
            sim.run()


class TestSoftnetScheduling:
    def test_napi_schedule_appends_once(self):
        _sim, kernel = make_kernel()
        softnet = kernel.softnet_for(0)
        napi = NapiStruct("n", kernel, stage=CountingStage())
        softnet.napi_schedule(napi)
        softnet.napi_schedule(napi)
        assert list(softnet.poll_list) == [napi]
        assert napi.scheduled

    def test_napi_schedule_head_inserts_at_front(self):
        _sim, kernel = make_kernel()
        softnet = kernel.softnet_for(0)
        first = NapiStruct("a", kernel, stage=CountingStage())
        second = NapiStruct("b", kernel, stage=CountingStage())
        softnet.napi_schedule(first)
        softnet.napi_schedule_head(second)
        assert softnet.poll_list_names() == ["b", "a"]

    def test_napi_schedule_head_moves_queued_device(self):
        _sim, kernel = make_kernel()
        softnet = kernel.softnet_for(0)
        first = NapiStruct("a", kernel, stage=CountingStage())
        second = NapiStruct("b", kernel, stage=CountingStage())
        softnet.napi_schedule(first)
        softnet.napi_schedule(second)
        softnet.napi_schedule_head(second)
        assert softnet.poll_list_names() == ["b", "a"]

    def test_napi_schedule_head_leaves_in_flight_device_alone(self):
        _sim, kernel = make_kernel()
        softnet = kernel.softnet_for(0)
        napi = NapiStruct("a", kernel, stage=CountingStage())
        # Simulate "being polled": scheduled but not on the list.
        napi.scheduled = True
        softnet.napi_schedule_head(napi)
        assert softnet.poll_list_names() == []

    def test_napi_complete_clears_sched_and_calls_hook(self):
        _sim, kernel = make_kernel()
        softnet = kernel.softnet_for(0)
        napi = NapiStruct("a", kernel, stage=CountingStage())
        called = []
        napi.on_complete = lambda: called.append(True)
        softnet.napi_schedule(napi)
        softnet.poll_list.clear()
        softnet.napi_complete(napi)
        assert not napi.scheduled
        assert called == [True]

    def test_schedule_raises_net_rx_softirq(self):
        sim, kernel = make_kernel()
        softnet = kernel.softnet_for(0)
        napi = NapiStruct("a", kernel, stage=CountingStage())
        softnet.napi_schedule(napi)
        assert NET_RX_SOFTIRQ in kernel.cpu(0)._pending_softirqs
        sim.run()  # drains (empty poll run is fine)
