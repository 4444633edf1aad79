"""Event-queue and fast-lane main-loop tests for the simulator core.

The engine keeps every pending occurrence in one binary heap ordered by
``(time, seq)``.  These tests pin short, long and mixed delays, the
cancellation bookkeeping (eager reap at the head, lazy compaction), and
— most importantly — that the global (time, seq) execution order is
bit-identical to a sorted reference, because the PRISM poll-order
experiments and the experiment result cache both depend on that
determinism contract.
"""

import random

import pytest

import repro.sim.engine as engine_mod
from repro.sim import Simulator
from repro.sim.engine import SimulationError

EDGE = 4_096           # ns; an arbitrary boundary for the edge-order test
LONG = 16_777_216      # ns (~16.8 ms); "long" delays in the mixed tests


class TestSlotRouting:
    def test_zero_delay_runs_at_now(self):
        sim = Simulator()
        fired = []
        sim.schedule(0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [0]

    def test_zero_delay_mid_run_is_immediate(self):
        sim = Simulator()
        fired = []

        def rearm():
            sim.schedule(0, lambda: fired.append(sim.now))

        sim.schedule(7_000, rearm)
        sim.run()
        assert fired == [7_000]

    def test_slot_edge_times_fire_in_order(self):
        """Delays straddling a 4096 ns boundary keep exact order."""
        sim = Simulator()
        fired = []
        edge = EDGE
        for delay in (edge - 1, edge, edge + 1, 2 * edge - 1, 2 * edge):
            sim.schedule(delay, lambda d=delay: fired.append((sim.now, d)))
        sim.run()
        assert fired == sorted(fired)
        assert [t for t, _ in fired] == [
            edge - 1, edge, edge + 1, 2 * edge - 1, 2 * edge]

    def test_level1_window_delay(self):
        """A delay of a few hundred microseconds fires exactly on time."""
        sim = Simulator()
        delay = 282_747  # ~283 us
        fired = []
        sim.schedule(delay, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [delay]

    def test_beyond_horizon_falls_back_to_heap(self):
        """A delay of tens of milliseconds fires exactly on time."""
        sim = Simulator()
        delay = 17_777_216  # ~17.8 ms
        fired = []
        sim.schedule(delay, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [delay]

    def test_long_and_short_delays_interleave(self):
        """Long and short delays pop in global time order."""
        sim = Simulator()
        fired = []
        delays = [LONG + 5_000, 100, LONG + 4_000,
                  50 * 1000 * 1000, 2_000_000, 3]
        for delay in delays:
            sim.schedule(delay, lambda d=delay: fired.append((sim.now, d)))
        sim.run()
        assert [t for t, _ in fired] == sorted(delays)

    def test_wheel_reanchors_after_quiet_gap(self):
        """After a 100 ms idle gap, a short delay fires relative to now."""
        sim = Simulator()
        fired = []
        sim.schedule(100 * 1000 * 1000, lambda: None)  # 100 ms
        sim.run()
        assert sim.now == 100 * 1000 * 1000
        sim.schedule(500, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [100 * 1000 * 1000 + 500]


class TestDeterministicOrder:
    def test_fifo_tie_break_at_equal_time(self):
        sim = Simulator()
        order = []
        sim.schedule(1_000, lambda: order.append("first"))
        sim.schedule(1_000, lambda: order.append("second"))
        sim.schedule(1_000, lambda: order.append("third"))
        sim.run()
        assert order == ["first", "second", "third"]

    def test_randomized_schedule_matches_sorted_reference(self):
        """Execution order == sort by (time, seq), i.e. a pure heap."""
        rng = random.Random(1234)
        sim = Simulator()
        executed = []
        reference = []
        for seq in range(2_000):
            # Mix nanosecond, microsecond and millisecond delays, with
            # heavy timestamp collisions.
            delay = rng.choice((
                rng.randrange(0, 64),
                rng.randrange(0, 4 * EDGE),
                rng.randrange(0, 64 * EDGE),
                rng.randrange(0, 2 * LONG),
            ))
            reference.append((delay, seq))
            sim.schedule(delay, lambda d=delay, s=seq:
                         executed.append((d, s)))
        sim.run()
        assert executed == sorted(reference)

    def test_randomized_rearms_during_run_match_reference(self):
        """Entries pushed from inside callbacks keep global order too."""
        rng = random.Random(99)
        sim = Simulator()
        executed = []

        def fire(tag):
            executed.append((sim.now, tag))
            if tag < 500:
                delay = rng.randrange(0, 3 * EDGE)
                sim.schedule(delay, fire, tag + 1000)

        for tag in range(500):
            sim.schedule(rng.randrange(0, LONG // 4), fire, tag)
        sim.run()
        assert executed == sorted(executed, key=lambda e: e[0])
        # All rearms fired exactly once.
        assert len(executed) == 1_000


class TestCancellation:
    def test_cancel_prevents_execution(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1_000, lambda: fired.append(1))
        handle.cancel()
        sim.run()
        assert fired == []
        assert handle.cancelled

    def test_cancel_is_idempotent_and_safe_after_run(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(10, lambda: fired.append(1))
        sim.run()
        assert fired == [1]
        before = sim._n_cancelled
        handle.cancel()   # entry already executed: must not corrupt counts
        handle.cancel()
        assert sim._n_cancelled == before

    def test_cancelling_the_earliest_entry_reaps_it_at_once(self):
        """The head of the heap is popped on cancel, not left as a
        tombstone: the pending set shrinks and no cancel is counted."""
        sim = Simulator()
        head = sim.schedule(1_000, lambda: None)
        sim.schedule(2_000, lambda: None)
        sim.schedule(3_000, lambda: None)
        pending = sim.pending_count
        cancelled = sim._n_cancelled
        head.cancel()
        assert sim.pending_count == pending - 1
        assert sim._n_cancelled == cancelled

    def test_compaction_reaps_cancelled_entries(self):
        """Mass cancellation shrinks the pending set without a run()."""
        sim = Simulator()
        keep = [sim.schedule(5_000 + i, lambda: None) for i in range(8)]
        doomed = [sim.schedule(10 * 1000 * 1000 + i, lambda: None)
                  for i in range(2_000)]
        assert sim.pending_count == 2_008
        for handle in doomed:
            handle.cancel()
        # Lazy compaction triggered: most dead entries are gone already
        # (a sub-threshold remainder may await the next trigger).
        assert sim.pending_count < 600
        assert all(not h.cancelled for h in keep)
        sim.run()

    def test_single_heap_touch_per_live_occurrence(self):
        """The run() loop pops each entry at most once (no peek+pop).

        K live + M cancelled entries must cost at most K + M heap pops
        (plus a tiny constant), versus 2K for the old peek()/step() pair.
        """
        pops = 0
        real_heappop = engine_mod.heappop

        def counting_heappop(heap):
            nonlocal pops
            pops += 1
            return real_heappop(heap)

        sim = Simulator()
        live, cancelled = 200, 50
        fired = []
        for i in range(live):
            sim.schedule(100 + i, lambda: fired.append(1))
        handles = [sim.schedule(50_000 + i, lambda: None)
                   for i in range(cancelled)]
        for handle in handles:
            handle.cancel()
        engine_mod.heappop = counting_heappop
        try:
            sim.run()
        finally:
            engine_mod.heappop = real_heappop
        assert len(fired) == live
        assert pops <= live + cancelled + 2


class TestRunSemantics:
    def test_until_leaves_future_work_pending(self):
        sim = Simulator()
        fired = []
        sim.schedule(100, lambda: fired.append("early"))
        sim.schedule(10_000, lambda: fired.append("late"))
        sim.run(until=5_000)
        assert fired == ["early"]
        assert sim.now == 5_000
        sim.run()
        assert fired == ["early", "late"]

    def test_run_is_not_reentrant(self):
        sim = Simulator()

        def recurse():
            sim.run()

        sim.schedule(10, recurse)
        with pytest.raises(SimulationError):
            sim.run()

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(1_000, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(10, lambda: None)

    def test_process_integer_sleep_fast_path(self):
        """`yield <int>` from a process uses the direct-resume fast path
        and stays bit-compatible with the Timeout-based ordering."""
        sim = Simulator()
        order = []

        def sleeper(tag, delay):
            yield delay
            order.append((sim.now, tag))
            yield delay
            order.append((sim.now, tag))

        sim.process(sleeper("a", 300))
        sim.process(sleeper("b", 300))
        sim.run()
        # Equal wake times resolve in spawn order, every round.
        assert order == [(300, "a"), (300, "b"), (600, "a"), (600, "b")]
