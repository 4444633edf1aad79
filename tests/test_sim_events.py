"""Unit tests for simulator events."""

import pytest

from repro.sim import Event, Simulator, Timeout
from repro.sim.events import EventAlreadyTriggered


def test_event_starts_untriggered():
    sim = Simulator()
    event = sim.event()
    assert not event.triggered
    assert not event.processed


def test_succeed_delivers_value():
    sim = Simulator()
    event = sim.event()
    got = []
    event.add_callback(lambda e: got.append(e.value))
    event.succeed(7)
    sim.run()
    assert got == [7]
    assert event.processed
    assert event.ok


def test_succeed_twice_raises():
    sim = Simulator()
    event = sim.event()
    event.succeed()
    with pytest.raises(EventAlreadyTriggered):
        event.succeed()


def test_fail_delivers_exception():
    sim = Simulator()
    event = sim.event()
    boom = ValueError("boom")
    got = []
    event.add_callback(lambda e: got.append(e.exception))
    event.fail(boom)
    sim.run()
    assert got == [boom]
    assert not event.ok


def test_fail_requires_exception_instance():
    sim = Simulator()
    event = sim.event()
    with pytest.raises(TypeError):
        event.fail("not an exception")  # type: ignore[arg-type]


def test_value_before_trigger_raises():
    sim = Simulator()
    event = sim.event()
    with pytest.raises(AttributeError):
        _ = event.value


def test_callback_added_after_processing_runs_immediately():
    sim = Simulator()
    event = sim.event()
    event.succeed(1)
    sim.run()
    got = []
    event.add_callback(lambda e: got.append(e.value))
    assert got == [1]


def test_timeout_fires_after_delay():
    sim = Simulator()
    timeout = sim.timeout(250, value="done")
    got = []
    timeout.add_callback(lambda e: got.append((sim.now, e.value)))
    sim.run()
    assert got == [(250, "done")]


def test_timeout_negative_delay_raises():
    sim = Simulator()
    with pytest.raises(ValueError):
        Timeout(sim, -1)


def test_event_repr_shows_state():
    sim = Simulator()
    event = Event(sim, name="rx")
    assert "pending" in repr(event)
    event.succeed()
    assert "triggered" in repr(event)
    sim.run()
    assert "processed" in repr(event)
