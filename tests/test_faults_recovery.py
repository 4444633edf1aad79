"""Loss-recovery tests: backoff schedule units and the closed-loop
deadlock regressions (the bug this subsystem exists to fix).

Pre-recovery, a single lost request (or reply) permanently shrank a
memaslap window and wedged wrk2's single connection; a window's worth of
losses stalled the client at zero completions for the rest of the run.
"""

import pytest

from repro.apps.memcached import MemaslapClient, MemcachedServer
from repro.apps.sockperf import SockperfUdpClient, SockperfUdpServer
from repro.apps.webserver import NginxServer, Wrk2Client
from repro.bench.testbed import build_testbed
from repro.faults import (
    FaultPlan,
    RecoveryStats,
    RetryPolicy,
    backoff_deadline_ns,
    merge_recovery,
)
from repro.faults.injector import FaultInjector
from repro.faults.recovery import RetryTracker
from repro.sim.rng import SeededRng
from repro.sim.units import MS, US

pytestmark = pytest.mark.faults


class TestBackoffSchedule:
    def test_exponential_without_jitter(self):
        policy = RetryPolicy(timeout_ns=1000, backoff_factor=2.0,
                             jitter_frac=0.0)
        rng = SeededRng(1)
        assert [backoff_deadline_ns(policy, k, rng) for k in range(4)] == \
            [1000, 2000, 4000, 8000]

    def test_jitter_bounded_and_seed_frozen(self):
        policy = RetryPolicy(timeout_ns=10_000, backoff_factor=2.0,
                             jitter_frac=0.1)
        deadlines = [backoff_deadline_ns(policy, k, SeededRng(42))
                     for k in range(6)]
        for k, deadline in enumerate(deadlines):
            base = 10_000 * 2 ** k
            assert base * 0.9 <= deadline <= base * 1.1
        # Same seed, same stream position => identical schedule.
        assert deadlines == [backoff_deadline_ns(policy, k, SeededRng(42))
                             for k in range(6)]

    def test_deadline_floor_is_one_ns(self):
        policy = RetryPolicy(timeout_ns=0, jitter_frac=0.0)
        assert backoff_deadline_ns(policy, 0, SeededRng(1)) == 1

    def test_tracker_exhaustion(self):
        tracker = RetryTracker(RetryPolicy(max_retries=3), SeededRng(1), "t")
        assert not tracker.exhausted(2)
        assert tracker.exhausted(3)

    def test_merge_recovery_totals(self):
        a = RecoveryStats("a", sent=10, retries=2, timeouts=3, gave_up=1)
        b = RecoveryStats("b", retries=1, duplicates=4)
        assert merge_recovery([a, b]) == {
            "retries_total": 3, "timeouts_total": 3,
            "gave_up": 1, "duplicates": 4}
        assert merge_recovery([]) == {
            "retries_total": 0, "timeouts_total": 0,
            "gave_up": 0, "duplicates": 0}

    def test_stats_round_trip(self):
        stats = RecoveryStats("x", sent=5, retries=1, timeouts=2,
                              gave_up=3, duplicates=4)
        # to_dict writes every field under its own name: the
        # ``recovery.clients`` block the result digest hashes.
        assert list(stats.to_dict()) == ["name", "sent", "retries",
                                         "timeouts", "gave_up", "duplicates"]
        assert RecoveryStats(**stats.to_dict()) == stats


def _memaslap_under_burst(retry: bool):
    """A windowed memaslap run through a mid-run 2x ring-capacity burst."""
    testbed = build_testbed()
    plan = FaultPlan.parse("burst@20ms x2; retries=5; timeout=2ms")
    injector = FaultInjector(plan, testbed).install()
    srv = testbed.add_server_container("srv", "10.0.0.10")
    cli = testbed.add_client_container("cli", "10.0.0.100")
    MemcachedServer(srv, core_id=1)
    kwargs = {}
    if retry:
        kwargs = dict(retry=plan.retry, retry_rng=testbed.rng.fork("retry"))
    client = MemaslapClient(testbed.sim, testbed.client, testbed.overlay, cli,
                            "10.0.0.10", window=4,
                            rng=testbed.rng.fork("memaslap"), **kwargs)
    client.start()
    testbed.sim.run(until=25 * MS)
    after_burst = client.completed.count
    testbed.sim.run(until=80 * MS)
    return injector, client, after_burst, client.completed.count


class TestMemaslapBurstRegression:
    def test_without_recovery_the_window_deadlocks(self):
        """Pre-fix behaviour: the burst eats the in-flight window and the
        closed loop never issues another request."""
        _injector, client, after_burst, at_end = _memaslap_under_burst(
            retry=False)
        assert after_burst > 0           # ran fine until the burst
        assert at_end == after_burst     # ...then zero completions forever
        assert client.inflight == client.window  # all slots stuck in-flight

    def test_with_recovery_retries_refill_the_window(self):
        injector, client, after_burst, at_end = _memaslap_under_burst(
            retry=True)
        assert at_end > after_burst      # the run kept completing
        stats = client.recovery
        assert stats.retries > 0
        assert stats.gave_up == 0
        assert injector.ledger.balanced

    def test_give_up_refills_the_window_slot(self):
        """Even when the retry budget is exhausted, the closed loop
        keeps running: give-up re-issues a fresh op in the slot."""
        testbed = build_testbed()
        # 100% rx loss from 10ms on: every request after that is lost and
        # every retry of it is lost too, so ops exhaust their budget.
        plan = FaultPlan.parse(
            "loss:wire:1.0@10ms-1s; retries=2; timeout=1ms; jitter=0")
        FaultInjector(plan, testbed).install()
        srv = testbed.add_server_container("srv", "10.0.0.10")
        cli = testbed.add_client_container("cli", "10.0.0.100")
        MemcachedServer(srv, core_id=1)
        client = MemaslapClient(
            testbed.sim, testbed.client, testbed.overlay, cli, "10.0.0.10",
            window=4, rng=testbed.rng.fork("memaslap"),
            retry=plan.retry, retry_rng=testbed.rng.fork("retry"))
        client.start()
        testbed.sim.run(until=60 * MS)
        stats = client.recovery
        assert stats.gave_up > 0
        assert client.inflight == client.window  # window still full


class TestWrk2WedgeRegression:
    def _run(self, retry: bool):
        testbed = build_testbed()
        # A total-loss window long enough to eat the outstanding request.
        plan = FaultPlan.parse(
            "loss:wire:1.0@20ms-20.2ms; retries=5; timeout=2ms")
        FaultInjector(plan, testbed).install()
        srv = testbed.add_server_container("srv", "10.0.0.10")
        cli = testbed.add_client_container("cli", "10.0.0.100")
        NginxServer(srv, core_id=1)
        kwargs = {}
        if retry:
            kwargs = dict(retry=plan.retry,
                          retry_rng=testbed.rng.fork("retry"))
        client = Wrk2Client(testbed.sim, testbed.client, testbed.overlay,
                            cli, "10.0.0.10", rate_rps=2_000,
                            latency_from="sent", **kwargs)
        testbed.sim.run(until=25 * MS)
        after_loss = client.completed.count
        testbed.sim.run(until=60 * MS)
        return client, after_loss, client.completed.count

    def test_without_recovery_the_connection_wedges(self):
        client, after_loss, at_end = self._run(retry=False)
        assert after_loss > 0
        assert at_end == after_loss          # wedged for the rest of the run
        assert client._outstanding is not None

    def test_with_recovery_the_connection_keeps_flowing(self):
        client, after_loss, at_end = self._run(retry=True)
        assert at_end > after_loss
        assert client.recovery.retries > 0
        assert client.recovery.gave_up == 0


class TestSockperfDuplicates:
    def test_retransmit_race_counts_duplicates_not_double_replies(self):
        """A timeout shorter than the RTT forces retransmits whose
        replies race the originals; the late copies must be counted as
        duplicates, never recorded as extra samples."""
        testbed = build_testbed()
        plan = FaultPlan.parse("retries=2; timeout=10us; jitter=0")
        FaultInjector(plan, testbed).install()
        srv = testbed.add_server_container("srv", "10.0.0.10")
        cli = testbed.add_client_container("cli", "10.0.0.100")
        SockperfUdpServer(srv, 5000, core_id=1)
        client = SockperfUdpClient(
            testbed.sim, testbed.client, testbed.overlay, cli,
            "10.0.0.10", 5000, rate_pps=1_000, src_port=30001,
            retry=plan.retry, retry_rng=testbed.rng.fork("retry"))
        testbed.sim.run(until=20 * MS)
        stats = client.recovery
        assert stats.retries > 0
        assert stats.duplicates > 0
        assert client.replies == len(client.recorder)
        # One recorded sample per ping, not per copy received.
        assert client.replies < stats.sent + stats.retries

    def test_recovered_ping_reports_loss_inflated_latency(self):
        """A retransmitted ping keeps its original sent_at: the sample
        includes the full timeout + retry delay."""
        testbed = build_testbed()
        plan = FaultPlan.parse(
            "loss:wire:1.0@10ms-10.1ms; retries=5; timeout=1ms; jitter=0")
        FaultInjector(plan, testbed).install()
        srv = testbed.add_server_container("srv", "10.0.0.10")
        cli = testbed.add_client_container("cli", "10.0.0.100")
        SockperfUdpServer(srv, 5000, core_id=1)
        client = SockperfUdpClient(
            testbed.sim, testbed.client, testbed.overlay, cli,
            "10.0.0.10", 5000, rate_pps=1_000, src_port=30001,
            retry=plan.retry, retry_rng=testbed.rng.fork("retry"))
        testbed.sim.run(until=30 * MS)
        assert client.recovery.retries > 0
        # RTT/2 of a recovered ping >= timeout/2 >> the normal ~25us.
        assert client.recorder.summary().max_ns > 500 * US
