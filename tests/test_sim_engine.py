"""Unit tests for the discrete-event simulator core."""

import pytest

from repro.sim import Simulator
from repro.sim.engine import SimulationError


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0


def test_schedule_runs_callback_at_delay():
    sim = Simulator()
    fired = []
    sim.schedule(100, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [100]


def test_schedule_zero_delay_runs_at_current_time():
    sim = Simulator()
    fired = []
    sim.schedule(0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [0]


def test_schedule_order_is_time_sorted():
    sim = Simulator()
    order = []
    sim.schedule(300, lambda: order.append("c"))
    sim.schedule(100, lambda: order.append("a"))
    sim.schedule(200, lambda: order.append("b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_same_time_fifo_ordering():
    sim = Simulator()
    order = []
    for i in range(10):
        sim.schedule(50, lambda i=i: order.append(i))
    sim.run()
    assert order == list(range(10))


def test_schedule_with_args():
    sim = Simulator()
    got = []
    sim.schedule(10, got.append, 42)
    sim.run()
    assert got == [42]


def test_schedule_at_absolute_time():
    sim = Simulator()
    fired = []
    sim.schedule_at(500, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [500]


def test_schedule_in_past_raises():
    sim = Simulator()
    sim.schedule(100, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(50, lambda: None)


def test_cancel_prevents_callback():
    sim = Simulator()
    fired = []
    handle = sim.schedule(100, lambda: fired.append(1))
    handle.cancel()
    sim.run()
    assert fired == []


def test_cancel_is_idempotent():
    sim = Simulator()
    handle = sim.schedule(100, lambda: None)
    handle.cancel()
    handle.cancel()
    sim.run()


def test_run_until_stops_clock_at_until():
    sim = Simulator()
    sim.schedule(100, lambda: None)
    sim.schedule(900, lambda: None)
    sim.run(until=500)
    assert sim.now == 500
    # The 900 event is still pending.
    assert sim.peek() == 900


def test_run_until_advances_clock_even_with_empty_queue():
    sim = Simulator()
    sim.run(until=1000)
    assert sim.now == 1000


def test_nested_scheduling_from_callback():
    sim = Simulator()
    fired = []

    def outer():
        fired.append(("outer", sim.now))
        sim.schedule(50, lambda: fired.append(("inner", sim.now)))

    sim.schedule(100, outer)
    sim.run()
    assert fired == [("outer", 100), ("inner", 150)]


def test_peek_skips_cancelled_entries():
    sim = Simulator()
    handle = sim.schedule(100, lambda: None)
    sim.schedule(200, lambda: None)
    handle.cancel()
    assert sim.peek() == 200


def test_step_returns_false_on_empty_queue():
    sim = Simulator()
    assert sim.step() is False


def test_step_processes_single_occurrence():
    sim = Simulator()
    fired = []
    sim.schedule(10, lambda: fired.append("a"))
    sim.schedule(20, lambda: fired.append("b"))
    assert sim.step() is True
    assert fired == ["a"]
    assert sim.now == 10


def test_periodic_cancelled_in_its_callback_does_not_fire_again():
    sim = Simulator()
    fired = []

    def tick():
        fired.append(sim.now)
        if len(fired) == 2:
            handle.cancel()

    handle = sim.every(100, tick)
    sim.run()
    assert fired == [100, 200]
    assert sim.now == 200
    assert sim.pending_count == 0


@pytest.mark.parametrize("method", ["step", "peek"])
def test_step_and_peek_are_rejected_inside_run(method):
    sim = Simulator()
    errors = []

    def nested():
        try:
            getattr(sim, method)()
        except SimulationError as exc:
            errors.append(exc)

    sim.schedule(10, nested)
    sim.schedule(20, lambda: None)
    sim.run()
    assert len(errors) == 1
    assert sim.now == 20
