"""Flow-class aggregation: closed-loop client *populations*.

The ROADMAP north-star asks for "millions of users" scenarios.  Modeling
each user as a simulation process (a generator plus per-request timer
objects) makes user count an *object* count, which caps scenarios at
whatever the event loop can hold.  :class:`AggregatedClientPopulation`
models all users of one (container, priority) flow class as a single
aggregated closed-loop process:

- a **credit pool** bounds outstanding requests at the population size
  (each user has at most one request in flight — closed loop);
- replies and timeouts **reclaim credits** and schedule the user's next
  request after a think time, so event count scales with *packet rate*,
  not user count;
- timeouts use one reaper event, not a timer per request: the timeout
  is constant, so requests expire in send order, and the oldest entry of
  the in-flight table is always the next to expire;
- :class:`FlowClassLedger` keeps exact per-class accounting with the
  invariant ``sent == replies + timed_out + outstanding`` checked on
  demand and at finalize.

The population is transport-agnostic: it drives a ``send(seq, now)``
callback supplied by the harness (locally a
:class:`~repro.apps.remote.RemoteRequestSender`, in the sharded executor
a cross-shard outbox append) and is fed replies via :meth:`on_reply`.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.metrics.recorder import LatencyRecorder
from repro.sim.engine import Simulator
from repro.sim.rng import SeededRng

__all__ = ["FlowClassLedger", "AggregatedClientPopulation"]


class FlowClassLedger:
    """Exact accounting for one aggregated flow class.

    Every request is in exactly one of three states once sent: answered
    (``replies``), expired (``timed_out``), or in flight
    (``outstanding``).  Late replies — arriving after their request
    already timed out — are counted separately and do not disturb the
    invariant (their credit was reclaimed by the timeout).
    """

    def __init__(self, label: str, users: int) -> None:
        self.label = label
        self.users = users
        self.sent = 0
        self.replies = 0
        self.timed_out = 0
        self.outstanding = 0
        self.late_replies = 0

    def check(self) -> None:
        """Raise ``RuntimeError`` when the class books don't balance."""
        if self.sent != self.replies + self.timed_out + self.outstanding:
            raise RuntimeError(
                f"flow class {self.label!r} imbalance: sent={self.sent} != "
                f"replies={self.replies} + timed_out={self.timed_out} + "
                f"outstanding={self.outstanding}")
        if not (0 <= self.outstanding <= self.users):
            raise RuntimeError(
                f"flow class {self.label!r}: outstanding={self.outstanding} "
                f"outside [0, users={self.users}]")

    def to_dict(self) -> Dict[str, int]:
        return {
            "label": self.label,
            "users": self.users,
            "sent": self.sent,
            "replies": self.replies,
            "timed_out": self.timed_out,
            "outstanding": self.outstanding,
            "late_replies": self.late_replies,
        }


class AggregatedClientPopulation:
    """*users* closed-loop clients of one flow class, as one process.

    Lifecycle of one logical user: send a request, wait for the reply
    (record its latency) or for ``timeout_ns`` to pass, think for
    ``think_ns`` (with a small seeded jitter so the population
    desynchronizes), send the next request.  The launcher ramps the
    population up over ``ramp_ns`` so the first window isn't a
    synchronized burst of *users* packets.
    """

    def __init__(self, sim: Simulator, send: Callable[[int, int], None], *,
                 users: int, think_ns: int, timeout_ns: int,
                 rng: SeededRng, label: str,
                 recorder: Optional[LatencyRecorder] = None,
                 ramp_ns: Optional[int] = None,
                 jitter_frac: float = 0.1) -> None:
        if users <= 0:
            raise ValueError("users must be positive")
        if think_ns <= 0 or timeout_ns <= 0:
            raise ValueError("think_ns and timeout_ns must be positive")
        self.sim = sim
        self._send = send
        self.label = label
        self.think_ns = think_ns
        self.timeout_ns = timeout_ns
        self.jitter_frac = jitter_frac
        self.rng = rng
        self.recorder = recorder
        self.ledger = FlowClassLedger(label, users)
        self._next_seq = 1
        #: seq -> sent_at for in-flight requests (bounded by *users*).
        #: Insertion order is send order, and the timeout is constant, so
        #: the first entry is always the next request to expire.
        self._pending: Dict[int, int] = {}
        self._reaper_armed = False
        self.ramp_ns = think_ns if ramp_ns is None else ramp_ns
        self._launcher = sim.process(self._ramp_up(),
                                     name=f"population:{label}")

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def _ramp_up(self):
        """Stagger the population's first requests across the ramp."""
        users = self.ledger.users
        interval = self.ramp_ns / users
        next_send = float(self.sim.now)
        for _ in range(users):
            self._send_one()
            next_send += interval
            delay = max(0, int(next_send) - self.sim.now)
            if delay:
                yield delay

    def _send_one(self) -> None:
        seq = self._next_seq
        self._next_seq += 1
        now = self.sim.now
        self._pending[seq] = now
        self.ledger.sent += 1
        self.ledger.outstanding += 1
        if not self._reaper_armed:
            self._arm_reaper()
        self._send(seq, now)

    def _think_then_send(self) -> None:
        """Schedule the freed user's next request after a jittered think."""
        think = self.think_ns
        if self.jitter_frac > 0:
            span = int(think * self.jitter_frac)
            if span > 0:
                think += self.rng.uniform_int(-span, span)
        sim = self.sim  # pushed without a handle: nothing cancels it
        sim._push(sim.now + int(max(1, think)), self._send_one, ())

    # ------------------------------------------------------------------
    # Replies and timeouts
    # ------------------------------------------------------------------
    def on_reply(self, seq: int, *, at_ns: Optional[int] = None) -> None:
        """Credit one reply; late replies (post-timeout) only counted."""
        now = self.sim.now if at_ns is None else at_ns
        sent_at = self._pending.pop(seq, None)
        if sent_at is None:
            self.ledger.late_replies += 1
            return
        self.ledger.replies += 1
        self.ledger.outstanding -= 1
        if self.recorder is not None:
            # Closed-loop request/response: one-way latency is RTT/2,
            # matching the sockperf convention used everywhere else.
            self.recorder.record((now - sent_at) // 2, at_ns=now)
        self._think_then_send()

    def _arm_reaper(self) -> None:
        """Schedule the reaper at the oldest in-flight request's deadline.

        Called only while the reaper is unarmed: finding the oldest entry
        walks past the slots that answered requests left at the front of
        the table, so it is done once per reap, not once per send.
        """
        pending = self._pending
        if not pending:
            return
        self._reaper_armed = True
        self.sim.schedule_at(pending[next(iter(pending))] + self.timeout_ns,
                             self._reap)

    def _reap(self) -> None:
        self._reaper_armed = False
        pending = self._pending
        cutoff = self.sim.now - self.timeout_ns
        expired = []
        for seq, sent_at in pending.items():
            if sent_at > cutoff:
                break
            expired.append(seq)
        for seq in expired:
            del pending[seq]
            self.ledger.timed_out += 1
            self.ledger.outstanding -= 1
            # The user gives up on this request and moves on — the
            # credit is reclaimed, so a dropped packet can never wedge
            # the closed loop (the PR 5 single-drop deadlock).
            self._think_then_send()
        self._arm_reaper()

    def stop(self) -> None:
        self._launcher.kill()

    def __repr__(self) -> str:
        led = self.ledger
        return (f"<AggregatedClientPopulation {self.label!r} "
                f"users={led.users} sent={led.sent} out={led.outstanding}>")
