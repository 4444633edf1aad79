"""The discrete-event simulator core — fast lane.

:class:`Simulator` owns an integer-nanosecond virtual clock and a pending
set of *occurrences*.  Every occurrence — a plain callback registered with
:meth:`Simulator.schedule` or a triggered
:class:`~repro.sim.events.Event` — is stored as one uniform entry
``[time, seq, fn, args]``, so the hot loop dispatches through a single
indirect call with no per-occurrence ``isinstance``.

Storage is one binary heap (``heapq``) ordered by ``(time, seq)``, so
the hot loop pops the globally earliest occurrence, and FIFO tie-breaking
at equal timestamps falls out of the sequence number.

Cancellation is O(1) (``entry[fn] = None``); dead entries are skipped when
popped.  Because flood workloads can cancel far-future timers that would
otherwise bloat the pending set for their full delay, the simulator
compacts lazily: when cancelled entries outnumber live ones (beyond a
minimum threshold) the heap is filtered in place.

Run-ahead: inside :meth:`Simulator.run`, a process sleeping until a time
that is within the horizon and strictly earlier than every queued entry
resumes in place instead of being pushed and popped (see
:meth:`Simulator._ra_refresh`).  That entry would have been the next pop,
so the schedule is unchanged; :meth:`Simulator.run_window` counts queue
pops only.  The bound is kept current as the queue changes (set after
every pop, lowered by every push), so checking it is one comparison.
A popped occurrence earlier than ``now`` — the trace of a resume that
overtook a queued entry — raises :class:`SimulationError`.

Determinism: occurrences at the same timestamp run in the order they were
scheduled (a monotonically increasing sequence number breaks ties).  Given
the same seed and the same sequence of API calls, a simulation is exactly
reproducible — a property the PRISM poll-order experiments and the
experiment result cache both depend on.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, Generator, List, Optional

from repro.sim.events import Event, Timeout
from repro.sim.process import Process

__all__ = ["Simulator", "ScheduledCall", "PeriodicCall", "SimulationError"]

# Uniform entry layout: [time, seq, fn, args].  seq is unique, so list
# comparison never reaches the (uncomparable) fn/args fields.
_TIME = 0
_SEQ = 1
_FN = 2
_ARGS = 3

# Compaction trigger: at least this many cancelled entries *and* more
# cancelled than live.
_COMPACT_MIN = 512

# Run-ahead horizon of an unbounded run().
_NO_HORIZON = float("inf")


class SimulationError(RuntimeError):
    """Raised for invalid simulator operations (e.g. scheduling in the past)."""


def _backwards(time: int, now: int) -> SimulationError:
    """The error for an occurrence that surfaces behind the clock — a
    run-ahead resume moved ``now`` past an entry still queued."""
    return SimulationError(
        f"time ran backwards: occurrence at t={time} popped at now={now}")


class ScheduledCall:
    """Handle for a callback registered via :meth:`Simulator.schedule`.

    Supports O(1) cancellation: the underlying entry is marked dead in
    place and skipped when it surfaces.
    """

    __slots__ = ("_entry", "_sim", "_cancelled")

    def __init__(self, entry: list, sim: "Simulator") -> None:
        self._entry = entry
        self._sim = sim
        self._cancelled = False

    @property
    def time(self) -> int:
        return self._entry[_TIME]

    @property
    def fn(self) -> Optional[Callable[..., Any]]:
        return self._entry[_FN]

    @property
    def args(self) -> tuple:
        return self._entry[_ARGS]

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def cancel(self) -> None:
        """Prevent the callback from running.  Idempotent."""
        if self._cancelled:
            return
        self._cancelled = True
        entry = self._entry
        if entry[_FN] is None:  # already executed (or reaped)
            return
        entry[_FN] = None
        entry[_ARGS] = ()
        sim = self._sim
        # Eager reap when the entry heads the heap: pop it now instead of
        # leaving a tombstone for the hot loop to skip.  Matters for the
        # per-op retry timers of the loss-recovery layer, which are
        # scheduled and cancelled once per completed request.
        if sim._heap and sim._heap[0] is entry:
            heappop(sim._heap)
        else:
            sim._note_cancel()

    def __repr__(self) -> str:
        fn = self._entry[_FN]
        state = ("cancelled" if self._cancelled else
                 "done" if fn is None else "pending")
        label = f" {getattr(fn, '__name__', fn)}" if fn is not None else ""
        return f"<ScheduledCall t={self._entry[_TIME]}{label} {state}>"


class PeriodicCall:
    """Handle for a repeating callback registered via :meth:`Simulator.every`.

    Re-schedules itself after each firing; :meth:`cancel` stops the
    cycle (and cancels the in-flight timer, so the pending set does not
    retain it).  A live PeriodicCall keeps the simulation queue
    non-empty forever — drive such simulations with ``run(until=...)``.
    """

    __slots__ = ("_sim", "_interval", "_fn", "_args", "_handle", "_cancelled")

    def __init__(self, sim: "Simulator", interval: int,
                 fn: Callable[..., Any], args: tuple) -> None:
        self._sim = sim
        self._interval = interval
        self._fn = fn
        self._args = args
        self._cancelled = False
        self._handle = sim.schedule(interval, self._fire)

    @property
    def interval(self) -> int:
        return self._interval

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def _fire(self) -> None:
        if self._cancelled:
            return
        self._fn(*self._args)
        # The callback may have cancelled the cycle: do not re-arm.
        if not self._cancelled:
            self._handle = self._sim.schedule(self._interval, self._fire)

    def cancel(self) -> None:
        """Stop the cycle.  Idempotent."""
        if self._cancelled:
            return
        self._cancelled = True
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def __repr__(self) -> str:
        state = "cancelled" if self._cancelled else "active"
        return f"<PeriodicCall every={self._interval}ns {state}>"


class Simulator:
    """A deterministic discrete-event simulator with an integer-ns clock."""

    #: Resume sleeps in place when they are next anyway (see
    #: :meth:`_ra_refresh`).  The schedule is identical either way; a
    #: subclass turns it off to get the reference engine.
    _RUN_AHEAD = True

    def __init__(self) -> None:
        self.now: int = 0
        self._seq = 0
        self._running = False
        self._processes: List[Process] = []
        # Occurrence storage: one heap of [time, seq, fn, args] entries.
        self._heap: List[list] = []
        self._n_cancelled = 0
        self._n_processed = 0
        # Run-ahead bound and horizon (see _ra_refresh).
        self._ra_bound: float = 0
        self._ra_horizon: float = 0

    # ------------------------------------------------------------------
    # Scheduling primitives
    # ------------------------------------------------------------------
    def schedule(self, delay: int, fn: Callable[..., Any],
                 *args: Any) -> ScheduledCall:
        """Run ``fn(*args)`` after *delay* nanoseconds.  Returns a handle."""
        time = self.now + int(delay)
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self.now}")
        return ScheduledCall(self._push(time, fn, args), self)

    def schedule_at(self, time: int, fn: Callable[..., Any],
                    *args: Any) -> ScheduledCall:
        """Run ``fn(*args)`` at absolute virtual time *time*."""
        time = int(time)
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self.now}")
        return ScheduledCall(self._push(time, fn, args), self)

    def every(self, interval: int, fn: Callable[..., Any],
              *args: Any) -> PeriodicCall:
        """Run ``fn(*args)`` every *interval* nanoseconds (first firing
        one interval from now) until the returned handle is cancelled.

        The periodic-gauge clock of the observability layer: samplers
        tick on it without owning a process.  Note a live periodic keeps
        the queue non-empty — use ``run(until=...)``.
        """
        interval = int(interval)
        if interval <= 0:
            raise SimulationError(
                f"periodic interval must be positive, got {interval}")
        return PeriodicCall(self, interval, fn, args)

    def _schedule_event(self, event: Event, delay: int = 0) -> None:
        """Queue a triggered event for processing (internal API)."""
        self._push(self.now + delay, event._process, ())

    def _push(self, time: int, fn: Callable[..., Any], args: tuple) -> list:
        self._seq += 1
        entry = [time, self._seq, fn, args]
        if time < self._ra_bound:
            self._ra_bound = time
        heappush(self._heap, entry)
        return entry

    # ------------------------------------------------------------------
    # Event / process construction helpers
    # ------------------------------------------------------------------
    def event(self, name: str = "") -> Event:
        """Create a fresh (untriggered) :class:`Event`."""
        return Event(self, name=name)

    def timeout(self, delay: int, value: Any = None, name: str = "") -> Timeout:
        """Create an event that fires after *delay* nanoseconds."""
        return Timeout(self, delay, value=value, name=name)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start driving *generator* as a simulation process."""
        proc = Process(self, generator, name=name)
        self._processes.append(proc)
        return proc

    # ------------------------------------------------------------------
    # Run-ahead
    # ------------------------------------------------------------------
    def _ra_refresh(self) -> None:
        """Recompute the run-ahead bound ``_ra_bound`` from the queue.

        A process about to sleep until ``t`` may resume in place (set
        ``now = t`` and continue, no push, no pop) iff ``t < _ra_bound``:
        ``t`` is within the run horizon and strictly earlier than every
        queued entry, so the entry it would have pushed is exactly the
        one the loop would pop next.  Two things make the bound 0, which
        no resume time is below: being outside :meth:`run` (so
        ``step()`` keeps its one-occurrence meaning), and
        :meth:`Event._process` holding it there while further callbacks
        of the same event still have to run.  Cancelled entries only make
        the bound conservative.

        The bound is kept current rather than recomputed on demand:
        :meth:`run` sets it after every pop (this computation, inlined),
        :meth:`_push` lowers it, and nothing else can lower the earliest
        queued time.
        """
        bound = self._ra_horizon
        if bound:  # inside run(): the horizon is until + 1 >= 1
            heap = self._heap
            if heap and heap[0][_TIME] < bound:
                bound = heap[0][_TIME]
        self._ra_bound = bound

    # ------------------------------------------------------------------
    # Cancellation bookkeeping
    # ------------------------------------------------------------------
    @property
    def pending_count(self) -> int:
        """Entries awaiting processing (including not-yet-reaped cancels)."""
        return len(self._heap)

    def _note_cancel(self) -> None:
        self._n_cancelled += 1
        if (self._n_cancelled >= _COMPACT_MIN
                and self._n_cancelled * 2 >= self.pending_count):
            self._compact()

    def _compact(self) -> None:
        """Drop every cancelled entry from the heap."""
        # In place: run() holds its own reference to the list.
        self._heap[:] = [e for e in self._heap if e[_FN] is not None]
        heapify(self._heap)
        self._n_cancelled = 0

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def peek(self) -> Optional[int]:
        """Virtual time of the next live occurrence, or None if empty."""
        if self._running:
            raise SimulationError("peek() is not allowed inside run()")
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry[_FN] is not None:
                return entry[_TIME]
            heappop(heap)
            self._n_cancelled -= 1
        return None

    def step(self) -> bool:
        """Process one occurrence.  Returns False when the queue is empty."""
        if self._running:
            raise SimulationError("step() is not allowed inside run()")
        heap = self._heap
        while heap:
            entry = heappop(heap)
            fn = entry[_FN]
            if fn is None:
                self._n_cancelled -= 1
                continue
            if entry[_TIME] < self.now:
                raise _backwards(entry[_TIME], self.now)
            entry[_FN] = None
            self.now = entry[_TIME]
            self._n_processed += 1
            fn(*entry[_ARGS])
            return True
        return False

    def run_window(self, horizon: int) -> int:
        """Advance to exactly *horizon* (ns) and count occurrences run.

        The space-parallel executor drives each partition's simulator in
        conservative-lookahead windows: ``run_window(t_k)`` processes
        every occurrence with ``time <= t_k`` and leaves the clock at
        ``t_k``, so cross-partition arrivals scheduled at the following
        barrier (all strictly later than ``t_k`` by the lookahead
        argument) land in the future.  Back-to-back windows are
        equivalent to one ``run(until=...)`` over their union — the
        stop condition never reorders or drops occurrences — which is
        what makes a single-shard windowed run byte-identical to the
        monolithic engine.

        Returns the number of occurrences popped from the queue, so
        callers can detect quiet partitions (idle windows cost one clock
        update).  Run-ahead resumes are not pops and are not counted; a
        window returns 0 exactly when nothing ran in it.
        """
        if horizon < self.now:
            raise SimulationError(
                f"cannot run window to t={horizon} before now={self.now}")
        processed = self._n_processed
        self.run(until=horizon)
        return self._n_processed - processed

    def run(self, until: Optional[int] = None) -> None:
        """Run until the queue drains or the clock passes *until* (ns).

        When *until* is given, the clock is advanced to exactly *until*
        even if the last occurrence is earlier, so back-to-back ``run``
        calls observe a monotonic clock.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        limit = _NO_HORIZON if until is None else until
        horizon = self._ra_horizon = (
            limit + 1 if self._RUN_AHEAD else 0)
        # The heap list object is stable (compaction filters in place),
        # so hoist the attribute load out of the hot loop.
        heap = self._heap
        popped = 0
        try:
            while heap:
                entry = heap[0]
                fn = entry[2]  # _FN
                if fn is None:
                    heappop(heap)
                    self._n_cancelled -= 1
                    continue
                time = entry[0]  # _TIME
                if time > limit:
                    break
                if time < self.now:
                    raise _backwards(time, self.now)
                heappop(heap)
                entry[2] = None
                self.now = time
                popped += 1
                # The pop raised the run-ahead bound: _ra_refresh, inlined.
                bound = heap[0][0] if heap else horizon
                self._ra_bound = bound if bound < horizon else horizon
                fn(*entry[3])  # _ARGS
            if until is not None and until > self.now:
                self.now = until
        finally:
            self._n_processed += popped
            self._running = False
            self._ra_horizon = 0
            self._ra_bound = 0

    def __repr__(self) -> str:
        return f"<Simulator now={self.now} pending={self.pending_count}>"
