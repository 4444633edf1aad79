"""Unit tests for the CPU core model: contexts, preemption, C-states."""

import pytest

from repro.kernel.costs import CostModel
from repro.kernel.cpu import Block, CpuContext, CpuCore, CpuStats, Work
from repro.sim import Simulator
from repro.sim.units import MS, US


NO_CSTATES = CostModel().replace(cstate_levels=())


def softirq_work(core, ns):
    """A softirq handler's CPU time: charged, yielded only when told to."""
    if core.charge_softirq(ns):
        yield ns


def make_core(costs=None, core_id=0):
    sim = Simulator()
    core = CpuCore(sim, core_id, costs or NO_CSTATES)
    return sim, core


class TestWorkAndBlock:
    def test_work_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            Work(-1)

    def test_work_repr(self):
        assert repr(Work(100)) == "Work(100)"


class TestUserThreads:
    def test_thread_work_consumes_time(self):
        sim, core = make_core()
        log = []

        def thread():
            yield Work(5_000)
            log.append(sim.now)

        core.spawn(thread())
        sim.run()
        assert log == [5_000]
        assert core.stats.ns[CpuContext.USER] == 5_000

    def test_bare_int_yield_treated_as_work(self):
        sim, core = make_core()
        log = []

        def thread():
            yield 3_000
            log.append(sim.now)

        core.spawn(thread())
        sim.run()
        assert log == [3_000]

    def test_two_threads_serialize_on_one_core(self):
        sim, core = make_core()
        log = []

        def thread(name):
            yield Work(1_000)
            log.append((sim.now, name))

        core.spawn(thread("a"))
        core.spawn(thread("b"))
        sim.run()
        # One core: total busy time is the sum, not the max.
        assert log == [(1_000, "a"), (2_000, "b")]

    def test_round_robin_with_cooperative_yield(self):
        sim, core = make_core()
        log = []

        def thread(name):
            for _ in range(2):
                yield Work(100)
                log.append(name)
                yield None

        core.spawn(thread("a"))
        core.spawn(thread("b"))
        sim.run()
        assert log == ["a", "b", "a", "b"]

    def test_blocked_thread_releases_core(self):
        sim, core = make_core()
        event = sim.event()
        log = []

        def waiter():
            value = yield Block(event)
            log.append((sim.now, value))

        def worker():
            yield Work(2_000)
            log.append((sim.now, "worked"))

        core.spawn(waiter())
        core.spawn(worker())
        sim.schedule(10_000, lambda: event.succeed("data"))
        sim.run()
        assert log == [(2_000, "worked"), (10_000, "data")]

    def test_thread_done_event_carries_return_value(self):
        sim, core = make_core()

        def thread():
            yield Work(100)
            return 42

        handle = core.spawn(thread())
        sim.run()
        assert not handle.alive
        assert handle.done_event.value == 42

    def test_bare_int_yield_is_accounted_as_user_time(self):
        sim, core = make_core()

        def thread():
            yield 3_000
            yield Work(2_000)
            yield 0

        core.spawn(thread())
        sim.run()
        assert core.stats.ns[CpuContext.USER] == 5_000

    def test_negative_int_yield_raises(self):
        """A negative bare int is rejected as ``Work(-1)`` is."""
        sim, core = make_core()

        def thread():
            yield -1

        core.spawn(thread())
        with pytest.raises(ValueError):
            sim.run()

    def test_bad_yield_type_raises(self):
        sim, core = make_core()

        def thread():
            yield "garbage"

        core.spawn(thread())
        with pytest.raises(TypeError):
            sim.run()


class TestSoftirqPriority:
    def test_softirq_runs_before_threads(self):
        sim, core = make_core()
        log = []

        def handler():
            log.append("softirq")
            yield from softirq_work(core, 1_000)

        def thread():
            yield Work(1_000)
            log.append("user")

        core.register_softirq(3, handler)
        core.spawn(thread())
        core.raise_softirq(3)
        sim.run()
        assert log == ["softirq", "user"]

    def test_softirq_preempts_thread_between_work_items(self):
        sim, core = make_core()
        log = []

        def handler():
            log.append(("softirq", sim.now))
            yield from softirq_work(core, 500)

        def thread():
            yield Work(1_000)
            log.append(("work1", sim.now))
            yield Work(1_000)
            log.append(("work2", sim.now))

        core.register_softirq(3, handler)
        core.spawn(thread())
        sim.schedule(500, lambda: core.raise_softirq(3))
        sim.run()
        # The softirq raised at t=500 does NOT interrupt the running work
        # item; it runs right after it completes (t=1000), and the thread
        # resumes afterwards (t=1500) before its second work item.
        assert log == [("softirq", 1_000), ("work1", 1_500), ("work2", 2_500)]

    def test_raise_unregistered_softirq_raises(self):
        _sim, core = make_core()
        with pytest.raises(KeyError):
            core.raise_softirq(99)

    def test_softirq_raise_is_idempotent(self):
        sim, core = make_core()
        runs = []

        def handler():
            runs.append(sim.now)
            yield from softirq_work(core, 100)

        core.register_softirq(3, handler)
        core.raise_softirq(3)
        core.raise_softirq(3)
        sim.run()
        assert len(runs) == 1

    def test_softirq_reraise_during_handler_runs_again(self):
        sim, core = make_core()
        runs = []

        def handler():
            runs.append(sim.now)
            if len(runs) < 3:
                core.raise_softirq(3)
            yield from softirq_work(core, 100)

        core.register_softirq(3, handler)
        core.raise_softirq(3)
        sim.run()
        assert len(runs) == 3

    def test_softirq_time_accounted_as_softirq(self):
        sim, core = make_core()

        def handler():
            yield from softirq_work(core, 2_000)

        core.register_softirq(3, handler)
        core.raise_softirq(3)
        sim.run()
        assert core.stats.ns[CpuContext.SOFTIRQ] == 2_000
        assert core.stats.softirq_invocations == 1

    @pytest.mark.parametrize("fairness,expected_finish", [
        # With ksoftirqd fairness the thread's 500ns slice runs between
        # the two softirq rounds: round1 (0-1000), slice (1000-1500),
        # round2 (1500-2500), thread resumes and finishes at 2500.
        (True, 2_500),
        # Without fairness both rounds run back-to-back first:
        # rounds (0-2000), slice (2000-2500), finish at 2500... the
        # difference shows in when the USER time was consumed (below).
        (False, 2_500),
    ])
    def test_ksoftirqd_yield_lets_thread_run(self, fairness, expected_finish):
        sim = Simulator()
        core = CpuCore(sim, 0, NO_CSTATES, ksoftirqd_fairness=fairness)
        rounds = []

        def handler():
            rounds.append(sim.now)
            yield from softirq_work(core, 1_000)
            if len(rounds) < 2:
                core.raise_softirq(3)
                core.request_softirq_yield()

        def thread():
            yield Work(500)

        core.register_softirq(3, handler)
        handle = core.spawn(thread())
        core.raise_softirq(3)
        sim.run()
        assert len(rounds) == 2
        if fairness:
            # Thread slice ran between rounds: round 2 starts at 1500.
            assert rounds == [0, 1_500]
        else:
            # Rounds back-to-back; thread only ran afterwards.
            assert rounds == [0, 1_000]
        assert not handle.alive


class TestHardirq:
    def test_hardirq_accounted_and_handler_runs(self):
        sim, core = make_core()
        fired = []
        core.hardirq(lambda: fired.append(sim.now))
        sim.run()
        assert fired == [0]
        assert core.stats.hardirqs == 1
        assert core.stats.ns[CpuContext.HARDIRQ] == NO_CSTATES.hardirq_ns


class TestCStates:
    def test_long_idle_pays_exit_latency(self):
        costs = CostModel().replace(cstate_levels=((20 * US, 3 * US),))
        sim, core = make_core(costs)
        log = []

        def thread():
            yield Work(100)
            log.append(sim.now)

        # Spawn the thread after a long idle period.
        sim.schedule(1 * MS, lambda: core.spawn(thread()))
        sim.run()
        assert core.stats.cstate_wakeups == 1
        assert log == [1 * MS + 3 * US + 100]

    def test_short_idle_has_no_penalty(self):
        costs = CostModel().replace(cstate_levels=((20 * US, 3 * US),))
        sim, core = make_core(costs)
        log = []

        def thread():
            yield Work(100)
            log.append(sim.now)

        sim.schedule(5 * US, lambda: core.spawn(thread()))
        sim.run()
        assert core.stats.cstate_wakeups == 0
        assert log == [5 * US + 100]

    def test_deep_state_engages_after_longer_idle(self):
        costs = CostModel().replace(
            cstate_levels=((20 * US, 3 * US), (150 * US, 16 * US)))
        sim, core = make_core(costs)
        log = []

        def thread():
            yield Work(100)
            log.append(sim.now)

        sim.schedule(1 * MS, lambda: core.spawn(thread()))
        sim.run()
        assert log == [1 * MS + 16 * US + 100]

    def test_idle_time_accounted(self):
        sim, core = make_core()

        def thread():
            yield Work(100)

        sim.schedule(50_000, lambda: core.spawn(thread()))
        sim.run()
        assert core.stats.ns[CpuContext.IDLE] == 50_000


class TestCpuStats:
    def test_utilization_between_snapshots(self):
        sim, core = make_core()

        def thread():
            yield Work(30_000)

        before = core.stats.snapshot()
        core.spawn(thread())
        sim.run(until=100_000)
        after = core.stats.snapshot()
        util = CpuStats.utilization(before, after, 100_000)
        assert util == pytest.approx(0.3)

    def test_utilization_zero_elapsed(self):
        stats = CpuStats()
        snap = stats.snapshot()
        assert CpuStats.utilization(snap, snap, 0) == 0.0

    def test_busy_ns_excludes_idle(self):
        stats = CpuStats()
        stats.add(CpuContext.IDLE, 1_000)
        stats.add(CpuContext.USER, 500)
        stats.add(CpuContext.SOFTIRQ, 300)
        assert stats.busy_ns == 800
