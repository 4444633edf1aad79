"""Run-ahead resumes must never change the event schedule.

Inside :meth:`Simulator.run`, a process whose integer sleep would wake it
strictly before everything queued (and within the horizon) resumes in
place instead of taking a round trip through the event queue.  The
property test below draws random process mixes and checks that the
execution trace is identical to the engine with run-ahead disabled, and
that ``run_window`` still reports 0 exactly for windows in which nothing
ran.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bench.cell import ExperimentCell
from repro.bench.experiment import ExperimentConfig
from repro.kernel.costs import CostModel
from repro.kernel.cpu import CpuCore
from repro.prism.mode import StackMode
from repro.sim import Simulator
from repro.sim.engine import SimulationError
from repro.sim.units import MS

NO_CSTATES = CostModel().replace(cstate_levels=())

N_EVENTS = 2
N_CORES = 2


class NoRunAhead(Simulator):
    """The reference engine: every sleep goes through the event queue."""

    _RUN_AHEAD = False


# Delays cover zero, equal-time ties, level-0/level-1 slot edges
# (4096 ns, 262144 ns) and the overflow heap (> 16.8 ms).
DELAYS = st.sampled_from([0, 1, 5, 10, 10, 100, 4095, 4096, 5000, 262_144,
                          300_000, 20_000_000])

# Sleeps and shared-event waits are drawn most often: several processes
# woken by one event is where an in-place resume could overtake the
# event's later callbacks.
WAIT = st.tuples(st.just("wait"), st.integers(0, N_EVENTS - 1))
SLEEP = st.tuples(st.just("sleep"), DELAYS)
ACTIONS = st.one_of(
    SLEEP, SLEEP, WAIT, WAIT,
    st.tuples(st.just("timeout"), DELAYS),
    st.tuples(st.just("yield"), st.just(0)),
    st.tuples(st.just("fire"), st.integers(0, N_EVENTS - 1)),
    st.tuples(st.just("schedule"), DELAYS),
    st.tuples(st.just("cancel"), st.integers(0, 3)),
    st.tuples(st.just("every"), st.integers(1, 5_000), st.integers(1, 4)),
    st.tuples(st.just("softirq"), st.integers(0, N_CORES - 1)),
)

# Window lengths one short of common delays put horizons right before
# wake-ups: a resume at the horizon runs, one past it must wait.
WINDOWS = st.lists(
    st.tuples(st.sampled_from(["run", "window"]),
              st.sampled_from([0, 1, 4, 9, 10, 99, 4095, 50_000, 299_999,
                               1_000_000])),
    max_size=8)

SPECS = st.fixed_dictionaries({
    "processes": st.lists(st.lists(ACTIONS, max_size=12), min_size=1,
                          max_size=4),
    "softirqs": st.lists(st.lists(DELAYS, max_size=5), min_size=N_CORES,
                         max_size=N_CORES),
    "windows": WINDOWS,
})


def execute(sim_cls, spec):
    """Run one drawn mix; return its trace and per-window accounting.

    Every queue occurrence appends to the trace, so a window that popped
    anything also grew the trace.
    """
    sim = sim_cls()
    trace = []

    def log(label):
        trace.append((sim.now, label))

    events = [sim.event(f"e{i}") for i in range(N_EVENTS)]
    for i, event in enumerate(events):
        event.add_callback(lambda e, i=i: log(f"e{i}"))
    handles = []

    cores = []
    for c, durations in enumerate(spec["softirqs"]):
        core = CpuCore(sim, c, NO_CSTATES)

        def handler(c=c, durations=durations, charge=core.charge_softirq):
            # The softirq protocol: charge, yield only when told to.
            log(f"irq{c}")
            for step, duration in enumerate(durations):
                if charge(duration):
                    yield duration
                log(f"irq{c}.{step}")
        core.register_softirq(0, handler)
        cores.append(core)

    def periodic(name, interval, count):
        fired = [0]

        def tick():
            fired[0] += 1
            log(f"{name}#{fired[0]}")
            if fired[0] == count:
                handle.cancel()
        handle = sim.every(interval, tick)

    def program(p, actions):
        log(f"p{p}")
        for step, action in enumerate(actions):
            name = f"p{p}.{step}"
            kind = action[0]
            if kind == "sleep":
                yield action[1]
            elif kind == "timeout":
                yield sim.timeout(action[1])
            elif kind == "yield":
                yield None
            elif kind == "wait":
                yield events[action[1]]
            elif kind == "fire":
                if not events[action[1]].triggered:
                    events[action[1]].succeed()
            elif kind == "schedule":
                handles.append(sim.schedule(action[1], log, f"{name}!"))
            elif kind == "cancel":
                if handles:
                    handles[action[1] % len(handles)].cancel()
            elif kind == "every":
                periodic(name, action[1], action[2])
            elif kind == "softirq":
                cores[action[1]].raise_softirq(0)
            log(name)

    for p, actions in enumerate(spec["processes"]):
        proc = sim.process(program(p, actions))
        proc.add_callback(lambda e, p=p: log(f"p{p}:done"))

    windows = []
    for kind, delta in spec["windows"]:
        before = len(trace)
        horizon = sim.now + delta
        if kind == "window":
            ran = sim.run_window(horizon)
            windows.append((ran, len(trace) - before))
        else:
            sim.run(until=horizon)
        assert sim.now == horizon
    sim.run()
    return trace, windows, sim.now


@settings(max_examples=500, deadline=None)
@given(SPECS)
@example({"processes": [[("wait", 0), ("sleep", 0)], [("fire", 0), ("wait", 0)]],
          "softirqs": [[], []], "windows": []})
def test_trace_matches_engine_without_run_ahead(spec):
    trace, windows, end = execute(Simulator, spec)
    ref_trace, ref_windows, ref_end = execute(NoRunAhead, spec)
    assert trace == ref_trace
    assert end == ref_end
    for ran, grew in windows + ref_windows:
        assert (ran == 0) == (grew == 0), (ran, grew)


def test_sleeps_resumed_in_place_are_not_counted():
    sim = Simulator()
    log = []

    def sleeper():
        for _ in range(5):
            yield 10
            log.append(sim.now)

    sim.process(sleeper())
    # Two pops: the process start and its exit event.  The five sleeps
    # resume in place.
    assert sim.run_window(100) == 2
    assert log == [10, 20, 30, 40, 50]
    assert sim.run_window(200) == 0


def test_run_ahead_stops_at_the_horizon():
    sim = Simulator()
    log = []

    def sleeper():
        yield 10
        log.append(sim.now)
        yield 10
        log.append(sim.now)

    sim.process(sleeper())
    sim.run(until=10)  # a wake-up at the horizon runs ...
    assert (log, sim.now) == ([10], 10)
    sim.run(until=19)  # ... one just past it waits for the next window
    assert (log, sim.now) == ([10], 19)
    sim.run(until=20)
    assert (log, sim.now) == ([10, 20], 20)


def test_fan_out_wakes_keep_callback_order():
    """A process woken by an event must not run ahead of the event's
    later callbacks, even when nothing is queued."""
    for sim_cls in (Simulator, NoRunAhead):
        sim = sim_cls()
        log = []
        wake = sim.event()

        def waiter(name):
            yield wake
            log.append(name)
            yield 0
            log.append(name + "'")

        sim.process(waiter("a"))
        sim.process(waiter("b"))
        sim.schedule(5, wake.succeed)
        sim.run()
        assert log == ["a", "b", "a'", "b'"], sim_cls.__name__


@pytest.mark.parametrize("mode", ["vanilla", "prism-sync"])
def test_stale_run_ahead_bound_fails_loudly(mode, monkeypatch):
    """A ``_push`` that forgets to lower the run-ahead bound lets a
    sleeper resume past an entry still queued.  The measurement digests
    of the overlay cells do not move with that fault, so the engine
    must catch it: the overtaken entry pops behind the clock."""
    original = Simulator._push

    def push_keeping_bound(self, time, fn, args):
        bound = self._ra_bound
        entry = original(self, time, fn, args)
        self._ra_bound = bound
        return entry

    monkeypatch.setattr(Simulator, "_push", push_keeping_bound)
    config = ExperimentConfig(mode=StackMode.parse(mode), fg_rate_pps=1_000,
                              bg_rate_pps=300_000.0, bg_burst=96,
                              duration_ns=1 * MS, warmup_ns=1 * MS)
    cell = ExperimentCell(config)
    with pytest.raises(SimulationError, match="time ran backwards"):
        cell.run_to(cell.end_ns)


def test_step_refuses_an_entry_behind_the_clock():
    sim = Simulator()
    log = []
    sim.schedule(10, log.append, "late")
    sim.now = 20  # what an overtaking resume leaves behind
    with pytest.raises(SimulationError, match="time ran backwards"):
        sim.step()
    assert log == []
