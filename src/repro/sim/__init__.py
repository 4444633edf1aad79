"""Discrete-event simulation engine.

This package provides the deterministic, integer-nanosecond discrete-event
simulator that the kernel, device, and application models run on.  It is a
small, self-contained engine in the style of SimPy:

- :class:`~repro.sim.engine.Simulator` owns the virtual clock and the event
  queue.
- :class:`~repro.sim.events.Event` is a one-shot occurrence processes can
  wait on.
- :class:`~repro.sim.process.Process` drives a generator coroutine; the
  generator yields delays (integers, in nanoseconds), :class:`Event`
  instances, or other processes.

Example
-------
>>> from repro.sim import Simulator
>>> sim = Simulator()
>>> log = []
>>> def worker(name, delay):
...     yield delay
...     log.append((sim.now, name))
>>> _ = sim.process(worker("a", 30))
>>> _ = sim.process(worker("b", 10))
>>> sim.run()
>>> log
[(10, 'b'), (30, 'a')]
"""

from repro.sim.engine import Simulator
from repro.sim.events import Event, Timeout
from repro.sim.process import Process
from repro.sim.rng import SeededRng
from repro.sim.units import MS, SEC, US

__all__ = [
    "Event",
    "MS",
    "Process",
    "SEC",
    "SeededRng",
    "Simulator",
    "Timeout",
    "US",
]
