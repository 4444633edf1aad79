"""One-shot events for the discrete-event simulator.

An :class:`Event` is something that happens at most once.  Processes wait on
events by yielding them; arbitrary callbacks may also be attached.  Events
carry a value (delivered to waiters) or an exception (raised in waiters).

The separation between *triggered* (scheduled to fire) and *processed*
(callbacks have run) mirrors SimPy and lets an event be succeeded "now"
while its waiters still resume in deterministic FIFO order through the main
event queue.

All event classes are slotted: experiment runs allocate events at packet
rate (every timeout, every wakeup), so avoiding a per-instance ``__dict__``
measurably cuts both allocation time and memory.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

__all__ = ["Event", "Timeout", "EventAlreadyTriggered"]


class EventAlreadyTriggered(RuntimeError):
    """Raised when succeed()/fail() is called on an already-triggered event."""


class Event:
    """A one-shot occurrence that processes can wait on.

    Parameters
    ----------
    sim:
        The owning :class:`~repro.sim.engine.Simulator`.
    name:
        Optional label used in ``repr`` for debugging.
    """

    __slots__ = ("sim", "name", "callbacks", "_value", "_exception",
                 "_triggered")

    def __init__(self, sim: "Simulator", name: str = "") -> None:  # noqa: F821
        self.sim = sim
        self.name = name
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._triggered = False

    # ------------------------------------------------------------------
    # State inspection
    # ------------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once succeed()/fail() has been called."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._triggered and self._exception is None

    @property
    def value(self) -> Any:
        """The value delivered by :meth:`succeed`."""
        if not self._triggered:
            raise AttributeError(f"value of {self!r} is not yet available")
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        """The exception delivered by :meth:`fail`, or None."""
        return self._exception

    # ------------------------------------------------------------------
    # Triggering
    # ------------------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully, delivering *value* to waiters."""
        if self._triggered:
            raise EventAlreadyTriggered(f"{self!r} has already been triggered")
        self._triggered = True
        self._value = value
        self.sim._schedule_event(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception, raised in each waiter."""
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        if self._triggered:
            raise EventAlreadyTriggered(f"{self!r} has already been triggered")
        self._triggered = True
        self._exception = exception
        self.sim._schedule_event(self)
        return self

    # ------------------------------------------------------------------
    # Waiting
    # ------------------------------------------------------------------
    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Attach *callback*; runs when the event is processed.

        If the event has already been processed the callback runs
        immediately (synchronously).
        """
        if self.callbacks is None:
            callback(self)
        else:
            self.callbacks.append(callback)

    def _process(self) -> None:
        """Run callbacks.  Called by the simulator's event loop."""
        callbacks, self.callbacks = self.callbacks, None
        if not callbacks:
            return
        if len(callbacks) > 1:
            # The callbacks after the first run before anything queued, so
            # a process resumed by an earlier one must not run ahead of
            # them (see Simulator._ra_refresh).
            sim = self.sim
            sim._ra_bound = 0
            for callback in callbacks[:-1]:
                callback(self)
            sim._ra_refresh()
        callbacks[-1](self)

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        state = "processed" if self.processed else (
            "triggered" if self._triggered else "pending")
        return f"<{type(self).__name__}{label} {state}>"


class Timeout(Event):
    """An event that fires automatically after a delay.

    Created triggered: it is placed on the simulator queue at construction
    time and fires at ``sim.now + delay``.
    """

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: int, value: Any = None,  # noqa: F821
                 name: str = "") -> None:
        if delay < 0:
            raise ValueError(f"Timeout delay must be >= 0, got {delay}")
        super().__init__(sim, name=name)
        self.delay = int(delay)
        self._triggered = True
        self._value = value
        sim._schedule_event(self, delay=self.delay)
