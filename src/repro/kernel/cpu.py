"""CPU core model: contexts, softirq priority, preemption, C-states.

Each :class:`CpuCore` owns an exclusive timeline driven by a dispatcher
process.  Three execution contexts exist, in strict priority order (the
same order the Linux kernel enforces):

1. **hardirq** — device interrupts; modelled as instantaneous top-half
   handlers that cost :attr:`~repro.kernel.costs.CostModel.hardirq_ns`;
2. **softirq** — deferred bottom halves (NAPI packet processing runs
   here); runs to completion, preempting user threads;
3. **user** — application threads, scheduled round-robin.

This strict ordering is what makes the paper's head-of-line-blocking and
starvation observations (§VII-4) emerge naturally: while there are packets
to process, user threads on that core do not run.

Activities express CPU consumption by yielding:

- a bare ``int`` (or :class:`Work`) — consume CPU time; user threads are
  preemptible *between* Work items, never inside one;
- :class:`Block` — go off-CPU until an event fires (user threads only);
- ``None`` — cooperative round-robin yield.

Softirq handlers are generators that yield only durations: a softirq never
blocks (as in the real kernel).  A handler books its CPU time through the
core's :attr:`CpuCore.charge_softirq` and yields only the waits that call
says it must suspend for (see :meth:`CpuCore._charger`).

C-states: when the core has been idle longer than the cost model's entry
threshold, the next wake-up pays the C-state exit latency.  This is the
mechanism behind the low-load latency hike in the paper's Fig. 11.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Any, Callable, Dict, Generator, List, Optional

from repro.kernel.costs import CostModel
from repro.sim.engine import Simulator
from repro.sim.events import Event

__all__ = ["CpuContext", "CpuCore", "CpuStats", "UserThread", "Work", "Block"]


class CpuContext(enum.Enum):
    """Execution context categories for time accounting."""

    IDLE = "idle"
    HARDIRQ = "hardirq"
    SOFTIRQ = "softirq"
    USER = "user"
    CSTATE_EXIT = "cstate_exit"

    # Enum's default __hash__ re-hashes the member *name* string through
    # a Python-level call on every dict operation; members are singletons
    # compared by identity, so the C-level id hash is equivalent and much
    # cheaper — and CpuStats.add hashes a context twice per CPU slice.
    __hash__ = object.__hash__


_SOFTIRQ = CpuContext.SOFTIRQ
_USER = CpuContext.USER


class Work:
    """Yielded by a thread/handler: consume this much CPU time (ns).

    A bare ``int`` means the same and allocates nothing; the hot user
    threads (socket receive, the sockperf server, the experiment sinks)
    yield ints.
    """

    __slots__ = ("duration",)

    def __init__(self, duration: int) -> None:
        if duration < 0:
            raise ValueError(f"Work duration must be >= 0, got {duration}")
        self.duration = int(duration)

    def __repr__(self) -> str:
        return f"Work({self.duration})"


class Block:
    """Yielded by a user thread: block off-CPU until *event* fires."""

    __slots__ = ("event",)

    def __init__(self, event: Event) -> None:
        self.event = event

    def __repr__(self) -> str:
        return f"Block({self.event!r})"


class CpuStats:
    """Cumulative per-context CPU time for one core."""

    def __init__(self) -> None:
        self.ns: Dict[CpuContext, int] = {ctx: 0 for ctx in CpuContext}
        self.softirq_invocations = 0
        self.hardirqs = 0
        self.cstate_wakeups = 0

    def add(self, context: CpuContext, duration: int) -> None:
        self.ns[context] += duration

    @property
    def busy_ns(self) -> int:
        """Total non-idle time."""
        return sum(v for ctx, v in self.ns.items() if ctx is not CpuContext.IDLE)

    @property
    def softirq_ns(self) -> int:
        """Cumulative softirq time (the observability layer samples this)."""
        return self.ns[CpuContext.SOFTIRQ]

    def snapshot(self) -> Dict[CpuContext, int]:
        """A copy of the per-context counters (for windowed utilization)."""
        return dict(self.ns)

    @staticmethod
    def utilization(before: Dict[CpuContext, int], after: Dict[CpuContext, int],
                    elapsed_ns: int) -> float:
        """Fraction of *elapsed_ns* spent non-idle between two snapshots."""
        if elapsed_ns <= 0:
            return 0.0
        busy = sum(after[ctx] - before[ctx] for ctx in after
                   if ctx is not CpuContext.IDLE)
        return min(1.0, busy / elapsed_ns)

    @staticmethod
    def residency(before: Dict[CpuContext, int], after: Dict[CpuContext, int],
                  elapsed_ns: int, context: CpuContext) -> float:
        """Fraction of *elapsed_ns* spent in one context between snapshots.

        The per-CPU softirq-residency gauge of the observability layer:
        sampled periodically, it shows where packet processing crowds out
        application time on the packet core.
        """
        if elapsed_ns <= 0:
            return 0.0
        return min(1.0, max(0, after[context] - before[context]) / elapsed_ns)


class ThreadState(enum.Enum):
    RUNNABLE = "runnable"
    RUNNING = "running"
    BLOCKED = "blocked"
    DONE = "done"


class UserThread:
    """A user-space thread pinned to one core, driven by a generator."""

    def __init__(self, core: "CpuCore", generator: Generator, name: str = "") -> None:
        self.core = core
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "thread")
        self.state = ThreadState.RUNNABLE
        self._resume_value: Any = None
        self.done_event = core.sim.event(name=f"done:{self.name}")

    @property
    def alive(self) -> bool:
        return self.state is not ThreadState.DONE

    def _wake(self, event: Event) -> None:
        """Event callback: make the thread runnable again."""
        if self.state is not ThreadState.BLOCKED:
            return
        self.state = ThreadState.RUNNABLE
        self._resume_value = event.value if event.ok else None
        self.core._enqueue_thread(self)

    def _finish(self, value: Any) -> None:
        self.state = ThreadState.DONE
        if not self.done_event.triggered:
            self.done_event.succeed(value)

    def __repr__(self) -> str:
        return f"<UserThread {self.name!r} {self.state.value}>"


class CpuCore:
    """One CPU core: strict-priority dispatcher over softirqs and threads."""

    def __init__(self, sim: Simulator, core_id: int, costs: CostModel,
                 *, ksoftirqd_fairness: bool = True) -> None:
        self.sim = sim
        self.core_id = core_id
        self.costs = costs
        self.stats = CpuStats()
        #: After a budget-exhausted softirq round, let one user-thread
        #: slice run before the next round (approximates ksoftirqd being
        #: an ordinary thread under sustained load).
        self.ksoftirqd_fairness = ksoftirqd_fairness

        self._softirq_handlers: Dict[int, Callable[[], Generator]] = {}
        self._pending_softirqs: List[int] = []
        self._run_queue: deque = deque()
        self._wake_event: Optional[Event] = None
        self._softirq_yield_pending = False
        self._idle_since: Optional[int] = 0
        #: Book softirq / user CPU time: ``charge(ns)`` returns True only
        #: when the caller must yield *ns* (see :meth:`_charger`).
        self.charge_softirq = self._charger(_SOFTIRQ)
        self.charge_user = self._charger(_USER)
        self._dispatcher = sim.process(self._dispatch_loop(), name=f"cpu{core_id}")

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def register_softirq(self, nr: int, handler: Callable[[], Generator]) -> None:
        """Install *handler* (a generator factory) for softirq *nr*.

        The handler books its time with :attr:`charge_softirq` and yields
        a duration only when that call returns True.
        """
        self._softirq_handlers[nr] = handler

    def raise_softirq(self, nr: int) -> None:
        """Mark softirq *nr* pending on this core (idempotent)."""
        if nr not in self._softirq_handlers:
            raise KeyError(f"no handler registered for softirq {nr} on cpu{self.core_id}")
        if nr not in self._pending_softirqs:
            self._pending_softirqs.append(nr)
        self._kick()

    def hardirq(self, handler: Callable[[], None]) -> None:
        """Deliver a hardware interrupt: run the top half immediately.

        The top half typically calls :meth:`raise_softirq`.  Its cost is
        accounted but, if the core is mid-Work, not serialized into the
        current slice (a small, documented approximation).
        """
        self.stats.hardirqs += 1
        self.stats.add(CpuContext.HARDIRQ, self.costs.hardirq_ns)
        handler()
        self._kick()

    def spawn(self, generator: Generator, name: str = "") -> UserThread:
        """Create a user thread on this core and make it runnable."""
        thread = UserThread(self, generator, name=name)
        self._enqueue_thread(thread)
        return thread

    def request_softirq_yield(self) -> None:
        """Ask the dispatcher to run one user slice before more softirqs.

        Called by ``net_rx_action`` when it exits with budget exhausted,
        mirroring the hand-off to ksoftirqd.
        """
        if self.ksoftirqd_fairness:
            self._softirq_yield_pending = True

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _enqueue_thread(self, thread: UserThread) -> None:
        self._run_queue.append(thread)
        self._kick()

    def _kick(self) -> None:
        """Wake the dispatcher if it is idle-waiting."""
        if self._wake_event is not None and not self._wake_event.triggered:
            self._wake_event.succeed()

    def _charger(self, context: CpuContext) -> Callable[[int], bool]:
        """The in-place clock charge for *context* on this core.

        ``charge(ns)`` books *ns* of CPU time to *context* and advances
        the clock by it.  When the wake-up would be the next occurrence
        anyway (:meth:`Simulator._ra_refresh
        <repro.sim.engine.Simulator._ra_refresh>`), the clock moves in
        place and it returns False: the caller goes straight on.  It
        returns True when the caller must yield *ns* to the dispatcher,
        which then suspends for exactly that long.  A non-positive *ns*
        is no work: nothing is booked and nobody waits.

        This is the one protocol of softirq handlers and of everything
        they call (polls, the stage hand-off): yield only
        waits this function has charged.
        """
        sim = self.sim
        ns = self.stats.ns

        def charge(duration: int) -> bool:
            if duration <= 0:
                return False
            ns[context] += duration
            time = sim.now + duration
            if time < sim._ra_bound:
                sim.now = time
                return False
            return True
        return charge

    def _dispatch_loop(self) -> Generator:
        pending = self._pending_softirqs
        handlers = self._softirq_handlers
        stats = self.stats
        while True:
            if pending and not self._softirq_yield_pending:
                stats.softirq_invocations += 1
                yield from handlers[pending.pop(0)]()
            elif self._run_queue:
                self._softirq_yield_pending = False
                yield from self._run_thread_slice()
            elif pending:
                # A yield was requested but no thread is runnable.
                self._softirq_yield_pending = False
            else:
                yield from self._idle_wait()

    def _run_thread_slice(self) -> Generator:
        thread = self._run_queue.popleft()
        if thread.state is ThreadState.DONE:
            return
        thread.state = ThreadState.RUNNING
        value, thread._resume_value = thread._resume_value, None
        send = thread.generator.send
        charge = self.charge_user
        pending = self._pending_softirqs
        while True:
            try:
                item = send(value)
            except StopIteration as stop:
                thread._finish(stop.value)
                return
            value = None
            if type(item) is not int:
                if isinstance(item, int):
                    item = Work(item)
                if isinstance(item, Work):
                    item = item.duration
                elif isinstance(item, Block):
                    thread.state = ThreadState.BLOCKED
                    item.event.add_callback(thread._wake)
                    return
                elif item is None:
                    thread.state = ThreadState.RUNNABLE
                    self._run_queue.append(thread)
                    return
                else:
                    raise TypeError(
                        f"thread {thread.name!r} yielded unsupported "
                        f"{item!r}; yield Work/int, Block, or None")
            elif item < 0:
                raise ValueError(f"Work duration must be >= 0, got {item}")
            if charge(item):
                yield item
            if pending:
                # Preempted: softirq has strict priority.  The thread
                # stays at the head of the run queue.
                thread.state = ThreadState.RUNNABLE
                self._run_queue.appendleft(thread)
                return

    def _idle_wait(self) -> Generator:
        self._wake_event = self.sim.event(name=f"cpu{self.core_id}-wake")
        idle_start = self.sim.now
        yield self._wake_event
        self._wake_event = None
        idle_ns = self.sim.now - idle_start
        self.stats.add(CpuContext.IDLE, idle_ns)
        # Deepest C-state whose entry threshold this idle period reached.
        exit_ns = 0
        for threshold, exit_latency in self.costs.cstate_levels:
            if idle_ns >= threshold:
                exit_ns = exit_latency
        if exit_ns > 0:
            self.stats.cstate_wakeups += 1
            self.stats.add(CpuContext.CSTATE_EXIT, exit_ns)
            yield exit_ns

    def __repr__(self) -> str:
        return (f"<CpuCore {self.core_id} pending={self._pending_softirqs} "
                f"runq={len(self._run_queue)}>")
