"""Flow-class aggregation: exact accounting for aggregated populations.

An :class:`AggregatedClientPopulation` replaces one simulation process
per user with a single credit-pool process, so these tests pin the
properties the replacement must preserve:

- the closed loop is bounded: outstanding never exceeds the population;
- the books balance exactly at any instant:
  ``sent == replies + timed_out + outstanding``;
- lost requests *time out and reclaim their credit* — a drop can never
  permanently shrink the population (the deadlock class the aggregated
  model is explicitly designed out of);
- late replies (after the timeout already fired) are counted separately
  and do not double-credit;
- the in-flight table is the only per-request state, and every timeout
  fires at exactly ``sent_at + timeout_ns``, as it did when a FIFO of
  ``(deadline, seq)`` per request sent drove the reaper.
"""

from __future__ import annotations

from collections import deque

import pytest

from repro.apps.aggregate import AggregatedClientPopulation, FlowClassLedger
from repro.sim.engine import Simulator
from repro.sim.rng import SeededRng
from repro.sim.units import MS


class _Loopback:
    """Test transport: replies after a fixed delay, can drop by seq."""

    def __init__(self, sim, delay_ns=100_000, drop=lambda seq: False):
        self.sim = sim
        self.delay_ns = delay_ns
        self.drop = drop
        self.population = None
        self.sent = []

    def send(self, seq, now):
        self.sent.append((seq, now))
        if not self.drop(seq):
            self.sim.schedule(self.delay_ns, self.population.on_reply, seq)


def _population(sim, transport, *, users=20, think_ns=1 * MS,
                timeout_ns=5 * MS, jitter_frac=0.0):
    population = AggregatedClientPopulation(
        sim, transport.send, users=users, think_ns=think_ns,
        timeout_ns=timeout_ns, rng=SeededRng(7), label="test:hi",
        jitter_frac=jitter_frac)
    transport.population = population
    return population


def test_closed_loop_bounds_outstanding_and_balances():
    sim = Simulator()
    transport = _Loopback(sim)
    population = _population(sim, transport, users=20)
    sim.run(until=50 * MS)
    ledger = population.ledger
    ledger.check()  # raises on imbalance
    assert ledger.sent == ledger.replies + ledger.timed_out + ledger.outstanding
    assert 0 <= ledger.outstanding <= 20
    assert ledger.timed_out == 0
    # 20 users cycling every ~1.1 ms for 50 ms — hundreds of requests
    # from a single process, not one process per user.
    assert ledger.sent > 400


def test_drops_time_out_and_reclaim_credits():
    sim = Simulator()
    transport = _Loopback(sim, drop=lambda seq: seq % 3 == 0)
    population = _population(sim, transport, users=10, timeout_ns=2 * MS)
    sim.run(until=60 * MS)
    ledger = population.ledger
    ledger.check()
    assert ledger.timed_out > 0
    # The whole population keeps cycling: a dropped request costs one
    # timeout, not a permanently lost user.
    assert ledger.sent > ledger.users * 3
    assert ledger.outstanding <= ledger.users


def test_late_reply_does_not_double_credit():
    sim = Simulator()
    transport = _Loopback(sim)
    population = _population(sim, transport, users=1, think_ns=1 * MS,
                             timeout_ns=1 * MS)
    # First request times out at t≈1ms; deliver its reply *after* that.
    transport.drop = lambda seq: True
    sim.run(until=int(1.5 * MS))
    assert population.ledger.timed_out == 1
    population.on_reply(1)
    ledger = population.ledger
    ledger.check()
    assert ledger.late_replies == 1
    assert ledger.replies == 0


def test_ramp_staggers_initial_sends():
    sim = Simulator()
    transport = _Loopback(sim, delay_ns=10_000_000)
    _population(sim, transport, users=100, think_ns=10 * MS)
    sim.run(until=1 * MS)  # one tenth of the ramp (ramp defaults to think)
    assert 5 <= len(transport.sent) <= 20  # paced, not a t=0 burst


def test_ledger_check_raises_on_imbalance():
    ledger = FlowClassLedger("broken", users=5)
    ledger.sent = 10
    ledger.replies = 3
    with pytest.raises(RuntimeError, match="imbalance"):
        ledger.check()
    ledger = FlowClassLedger("overdrawn", users=2)
    ledger.sent = 3
    ledger.outstanding = 3
    with pytest.raises(RuntimeError, match="outside"):
        ledger.check()


def test_deterministic_across_runs():
    def run_once():
        sim = Simulator()
        transport = _Loopback(sim, drop=lambda seq: seq % 5 == 0)
        population = _population(sim, transport, users=15, jitter_frac=0.2)
        sim.run(until=30 * MS)
        return (population.ledger.to_dict(), transport.sent)

    assert run_once() == run_once()


class _DequeReaper(AggregatedClientPopulation):
    """Reference: the reaper driven by a FIFO of ``(deadline, seq)``, one
    entry per request sent, kept until its deadline even once answered."""

    def __init__(self, *args, **kwargs):
        self._expiry = deque()
        super().__init__(*args, **kwargs)

    def _send_one(self):
        self._expiry.append((self.sim.now + self.timeout_ns,
                             self._next_seq))
        super()._send_one()

    def _arm_reaper(self):
        if self._reaper_armed or not self._expiry:
            return
        self._reaper_armed = True
        self.sim.schedule_at(max(self._expiry[0][0], self.sim.now + 1),
                             self._reap)

    def _reap(self):
        self._reaper_armed = False
        now = self.sim.now
        while self._expiry and self._expiry[0][0] <= now:
            _deadline, seq = self._expiry.popleft()
            if seq not in self._pending:
                continue
            del self._pending[seq]
            self.ledger.timed_out += 1
            self.ledger.outstanding -= 1
            self._think_then_send()
        self._arm_reaper()


class _Recording:
    """Notes ``(seq, now)`` of each request a reap times out, counts the
    reaps, and checks the in-flight table against the ledger."""

    def __init__(self, *args, **kwargs):
        self.reaps = 0
        self.expired = []
        super().__init__(*args, **kwargs)

    def _reap(self):
        before = set(self._pending)
        super()._reap()
        assert len(self._pending) == self.ledger.outstanding
        self.reaps += 1
        self.expired.extend((seq, self.sim.now)
                            for seq in sorted(before - set(self._pending)))


class _RecordingDeque(_Recording, _DequeReaper):
    pass


class _RecordingPopulation(_Recording, AggregatedClientPopulation):
    pass


class _Shuffled(_Loopback):
    """Drops every seventh request; replies take 0.1-1.3 ms, or 3.1 ms
    (after the 2 ms timeout) for every eleventh, so replies overtake one
    another and some arrive late."""

    def send(self, seq, now):
        population = self.population
        assert len(population._pending) == population.ledger.outstanding
        self.sent.append((seq, now))
        if seq % 7 == 0:
            return
        delay = 3_100_000 if seq % 11 == 0 else 100_000 * (1 + seq * 5 % 13)
        self.sim.schedule(delay, self.on_reply, seq)

    def on_reply(self, seq):
        population = self.population
        population.on_reply(seq)
        assert len(population._pending) == population.ledger.outstanding


def _shuffled_run(cls):
    sim = Simulator()
    transport = _Shuffled(sim)
    population = cls(sim, transport.send, users=25, think_ns=1 * MS,
                     timeout_ns=2 * MS, rng=SeededRng(7), label="test:hi",
                     jitter_frac=0.2)
    transport.population = population
    sim.run(until=80 * MS)
    return population, transport


def test_timeouts_fire_at_deadline_like_the_fifo_reaper():
    population, transport = _shuffled_run(_RecordingPopulation)
    reference, ref_transport = _shuffled_run(_RecordingDeque)
    ledger = population.ledger
    ledger.check()
    assert ledger.timed_out > 20 and ledger.late_replies > 20
    sent_at = dict(transport.sent)
    assert population.expired
    for seq, fired_at in population.expired:
        assert fired_at == sent_at[seq] + population.timeout_ns
    assert population.expired == reference.expired
    assert transport.sent == ref_transport.sent
    assert ledger.to_dict() == reference.ledger.to_dict()
    # The FIFO reaper wakes at the deadline of every request sent; this
    # one only at that of the oldest request in flight when it is armed.
    assert population.reaps < reference.reaps


def test_in_flight_table_is_the_only_per_request_state():
    sim = Simulator()
    transport = _Loopback(sim, drop=lambda seq: seq % 4 == 0)
    population = _population(sim, transport, users=30, timeout_ns=2 * MS)
    sim.run(until=40 * MS)
    assert population.ledger.sent > 500
    assert len(population._pending) == population.ledger.outstanding <= 30
    containers = [name for name, value in vars(population).items()
                  if isinstance(value, (list, dict, set, tuple, deque))]
    assert containers == ["_pending"]
