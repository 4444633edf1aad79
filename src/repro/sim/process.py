"""Generator-based simulation processes.

A :class:`Process` drives a Python generator.  The generator models an
activity (a softirq handler, an application thread, a traffic source) and
yields one of:

- an ``int`` — sleep for that many nanoseconds;
- an :class:`~repro.sim.events.Event` — resume when the event fires, with
  ``yield`` evaluating to the event's value (or raising its exception);
- another :class:`Process` — wait for it to finish (a Process *is* an
  Event);
- ``None`` — reschedule immediately (cooperative yield point).

A process is itself an Event that succeeds with the generator's return
value, so processes can be joined.

Sleeps are the hot path: kernel models yield integer delays at packet
rate.  A plain delay needs no observable Event — nothing can wait on it —
so :meth:`Process._dispatch` pushes the resume occurrence straight onto
the simulator queue instead of building a Timeout.  The push consumes the
same sequence number a Timeout's would, so event ordering is bit-identical
to the allocating path.  When the resume would be the very next
occurrence anyway (inside ``run()``, within the horizon, strictly before
everything queued), the process skips the queue altogether: it advances
the clock and sends the generator on in a loop
(:meth:`Process._sleep_resume`), for as long as the generator keeps
yielding such delays.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.sim.events import Event

__all__ = ["Process", "ProcessKilled"]


class ProcessKilled(Exception):
    """Thrown into a generator when its process is killed."""


class Process(Event):
    """An event that drives a generator coroutine to completion."""

    __slots__ = ("_generator", "_waiting_on", "_alive")

    def __init__(self, sim: "Simulator", generator: Generator,  # noqa: F821
                 name: str = "") -> None:
        super().__init__(sim, name=name or getattr(generator, "__name__", ""))
        if not hasattr(generator, "send"):
            raise TypeError(
                f"Process requires a generator, got {type(generator).__name__}; "
                "did you forget to call the generator function?")
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        self._alive = True
        # Kick off on the next event-loop iteration at the current time.
        sim._push(sim.now, self._sleep_resume, ())

    @property
    def alive(self) -> bool:
        """True while the generator has not finished or been killed."""
        return self._alive

    def kill(self) -> None:
        """Terminate the process by throwing :class:`ProcessKilled` into it."""
        if not self._alive:
            return
        self._alive = False
        self._waiting_on = None
        try:
            self._generator.throw(ProcessKilled())
        except (ProcessKilled, StopIteration):
            pass
        finally:
            self._generator.close()
        if not self.triggered:
            self.succeed(None)

    # ------------------------------------------------------------------
    # Generator driving
    # ------------------------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Resume after *event* fired (attached as its callback)."""
        if not self._alive:
            return
        self._waiting_on = None
        try:
            if event.ok:
                target = self._generator.send(event.value)
            else:
                target = self._generator.throw(event.exception)  # type: ignore[arg-type]
        except StopIteration as stop:
            self._finish(getattr(stop, "value", None))
            return
        except ProcessKilled:
            self._finish(None)
            return
        self._dispatch(target)

    def _sleep_resume(self) -> None:
        """Resume after a plain delay (pushed directly, no Event).

        The hot path: while the generator yields plain integer delays,
        each one either runs ahead in place (the resume is the next
        occurrence anyway, see :meth:`Simulator._ra_refresh
        <repro.sim.engine.Simulator._ra_refresh>`) or is pushed straight
        onto the queue, without a call into :meth:`_dispatch`.
        """
        if not self._alive:
            return
        send = self._generator.send
        sim = self.sim
        try:
            target = send(None)
            while target.__class__ is int:
                if target < 0:
                    raise ValueError(
                        f"process {self.name!r} yielded a negative delay "
                        f"{target}")
                time = sim.now + target
                if time >= sim._ra_bound:
                    sim._push(time, self._sleep_resume, ())
                    return
                sim.now = time
                target = send(None)
        except StopIteration as stop:
            self._finish(getattr(stop, "value", None))
            return
        except ProcessKilled:
            self._finish(None)
            return
        self._dispatch(target)

    def _dispatch(self, target: Any) -> None:
        """Arrange to resume once *target* is due."""
        if target.__class__ is int:
            if target < 0:
                raise ValueError(
                    f"process {self.name!r} yielded a negative delay "
                    f"{target}")
            sim = self.sim
            time = sim.now + target
            if time >= sim._ra_bound:
                sim._push(time, self._sleep_resume, ())
            else:
                # Run-ahead: this resume is the next occurrence anyway,
                # so take it in place.
                sim.now = time
                self._sleep_resume()
            return
        if target is None:
            sim = self.sim
            sim._push(sim.now, self._sleep_resume, ())
            return
        if isinstance(target, Event):
            self._waiting_on = target
            target.add_callback(self._resume)
            return
        if isinstance(target, float):
            self._dispatch(int(round(target)))
            return
        if isinstance(target, int):  # bool / int subclass, off the hot path
            self._dispatch(int(target))
            return
        raise TypeError(
            f"process {self.name!r} yielded unsupported value {target!r}; "
            "yield an int delay, an Event, a Process, or None")

    def _finish(self, value: Any) -> None:
        self._alive = False
        if not self.triggered:
            self.succeed(value)

    def __repr__(self) -> str:
        state = "alive" if self._alive else "done"
        return f"<Process {self.name!r} {state}>"
