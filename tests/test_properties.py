"""Property-based tests on whole-system invariants.

These drive randomized workloads through the full pipeline and check
conservation and determinism properties that must hold for *any*
workload, in every stack mode — including any fault plan.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.remote import RemoteRequestSender
from repro.apps.sockperf import SockperfUdpClient, SockperfUdpServer
from repro.bench.experiment import ExperimentConfig, run_experiment
from repro.bench.testbed import build_testbed
from repro.faults.plan import (
    FaultPlan,
    IrqLoss,
    PacketLoss,
    RetryPolicy,
    RingBurst,
    SkbAllocFailure,
)
from repro.prism.mode import StackMode
from repro.sim.units import MS

MODES = st.sampled_from(list(StackMode))


@st.composite
def burst_plan(draw):
    """A random plan of (port_index, count) bursts across two flows."""
    n_bursts = draw(st.integers(1, 6))
    return [(draw(st.integers(0, 1)), draw(st.integers(1, 80)))
            for _ in range(n_bursts)]


def run_plan(mode, plan, mark_high):
    testbed = build_testbed(mode=mode)
    sockets = []
    senders = []
    for index, (ip, cip, port) in enumerate(
            (("10.0.0.10", "10.0.0.100", 5000),
             ("10.0.0.11", "10.0.0.101", 6000))):
        server = testbed.add_server_container(f"s{index}", ip)
        client = testbed.add_client_container(f"c{index}", cip)
        sockets.append(server.udp_socket(port, core_id=1))
        senders.append(RemoteRequestSender(testbed.client, testbed.overlay,
                                           client, ip))
    if mark_high:
        testbed.mark_high_priority("10.0.0.10", 5000)
    sent = [0, 0]
    for flow, count in plan:
        port = 5000 if flow == 0 else 6000
        for _ in range(count):
            senders[flow].send_udp(src_port=40000 + flow, dst_port=port,
                                   payload=None, payload_len=32)
            sent[flow] += 1
    testbed.sim.run(until=50 * MS)
    return testbed, sockets, sent


class TestConservation:
    @settings(max_examples=15, deadline=None)
    @given(MODES, burst_plan(), st.booleans())
    def test_every_packet_delivered_or_dropped(self, mode, plan, mark_high):
        testbed, sockets, sent = run_plan(mode, plan, mark_high)
        delivered = [socket.delivered for socket in sockets]
        dropped = testbed.total_drops if hasattr(testbed, "total_drops") else (
            testbed.server.kernel.total_drops)
        assert sum(delivered) + dropped == sum(sent)

    @settings(max_examples=10, deadline=None)
    @given(MODES, burst_plan())
    def test_no_drops_below_ring_capacity(self, mode, plan):
        # Total bursts are < ring capacity, so nothing may be lost.
        testbed, sockets, sent = run_plan(mode, plan, mark_high=True)
        assert testbed.server.kernel.total_drops == 0
        assert sum(s.delivered for s in sockets) == sum(sent)

    @settings(max_examples=10, deadline=None)
    @given(MODES, burst_plan(), st.booleans())
    def test_fifo_within_each_flow(self, mode, plan, mark_high):
        """Packets of one flow are never reordered, in any mode —
        PRISM reorders *between* priority classes, never within one."""
        testbed, sockets, _sent = run_plan(mode, plan, mark_high)
        for socket in sockets:
            ids = [skb.packet.packet_id for skb in list(socket.rcvbuf)]
            assert ids == sorted(ids)


#: Loss sites: the rx ring, the bridge and backlog queues (names are
#: prefix-matched), and both directions of the physical link.
LOSS_SITES = ("eth", "br", "backlog", "wire", "wire:tx")
FAULT_WARMUP_NS = 2 * MS
FAULT_WINDOW_NS = 8 * MS


@st.composite
def fault_plans(draw):
    """Random loss sites and rates, skb-alloc failure, lost IRQs and a
    ring burst inside the 10 ms run."""
    probability = st.floats(0.005, 0.2)
    losses = tuple(PacketLoss(site=draw(st.sampled_from(LOSS_SITES)),
                              p=draw(probability))
                   for _ in range(draw(st.integers(0, 2))))
    skb_alloc = draw(st.none() | st.builds(SkbAllocFailure, p=probability))
    irq_loss = draw(st.none() | st.builds(IrqLoss, p=probability))
    end = FAULT_WARMUP_NS + FAULT_WINDOW_NS
    bursts = tuple(RingBurst(at_ns=draw(st.integers(0, end - 1)),
                             factor=draw(st.floats(0.5, 3.0)))
                   for _ in range(draw(st.integers(0, 1))))
    return FaultPlan(seed=draw(st.integers(1, 1_000)), ring_bursts=bursts,
                     losses=losses, skb_alloc=skb_alloc, irq_loss=irq_loss,
                     retry=RetryPolicy(timeout_ns=2 * MS))


class TestFaultConservation:
    @settings(max_examples=10, deadline=None)
    @given(MODES, fault_plans(), st.sampled_from([50_000, 300_000]))
    def test_any_fault_plan_balances_exactly(self, mode, plan, bg_rate_pps):
        config = ExperimentConfig(
            mode=mode, fg_rate_pps=2_000, bg_rate_pps=bg_rate_pps,
            warmup_ns=FAULT_WARMUP_NS, duration_ns=FAULT_WINDOW_NS,
            faults=plan)
        conservation = run_experiment(config).conservation
        assert conservation["balanced"], conservation
        assert conservation["residual"] == 0
        assert conservation["injected"] == (
            conservation["delivered"] + conservation["dropped"]
            + conservation["in_processing"] + conservation["queued"])
        assert conservation["dropped"] == sum(
            conservation["dropped_by_site"].values())


class TestDeterminism:
    def _run_once(self, seed):
        testbed = build_testbed(mode=StackMode.PRISM_BATCH, seed=seed)
        server = testbed.add_server_container("srv", "10.0.0.10")
        client = testbed.add_client_container("cli", "10.0.0.100")
        SockperfUdpServer(server, 5000, core_id=1)
        ping = SockperfUdpClient(
            testbed.sim, testbed.client, testbed.overlay, client,
            "10.0.0.10", 5000, rate_pps=5_000, src_port=30001)
        testbed.mark_high_priority("10.0.0.10", 5000)
        testbed.sim.run(until=30 * MS)
        return list(ping.recorder.samples_ns)

    def test_identical_seeds_identical_traces(self):
        assert self._run_once(3) == self._run_once(3)

    @settings(max_examples=5, deadline=None)
    @given(MODES, burst_plan(), st.booleans())
    def test_replay_property(self, mode, plan, mark_high):
        """The full final state is reproducible for any workload."""
        def snapshot():
            testbed, sockets, sent = run_plan(mode, plan, mark_high)
            return ([socket.delivered for socket in sockets],
                    dict(testbed.server.kernel.drops),
                    testbed.server.kernel.cpu(0).stats.busy_ns)
        assert snapshot() == snapshot()


class TestPriorityInvariants:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(10, 120))
    def test_high_flow_in_kernel_latency_never_worse_than_low(self, n_low):
        """With equal arrival positions, the marked flow's packets are
        delivered no later than the unmarked flow's in PRISM modes."""
        testbed = build_testbed(mode=StackMode.PRISM_BATCH)
        high_server = testbed.add_server_container("hi", "10.0.0.10")
        low_server = testbed.add_server_container("lo", "10.0.0.11")
        high_client = testbed.add_client_container("hic", "10.0.0.100")
        low_client = testbed.add_client_container("loc", "10.0.0.101")
        high_sock = high_server.udp_socket(5000, core_id=1)
        low_sock = low_server.udp_socket(6000, core_id=1)
        testbed.mark_high_priority("10.0.0.10", 5000)
        high_sender = RemoteRequestSender(testbed.client, testbed.overlay,
                                          high_client, "10.0.0.10")
        low_sender = RemoteRequestSender(testbed.client, testbed.overlay,
                                         low_client, "10.0.0.11")
        # Interleave perfectly: low, high, low, high, ...
        for _ in range(n_low):
            low_sender.send_udp(src_port=40001, dst_port=6000,
                                payload=None, payload_len=32)
            high_sender.send_udp(src_port=40000, dst_port=5000,
                                 payload=None, payload_len=32)
        testbed.sim.run(until=50 * MS)
        assert high_sock.delivered == n_low
        assert low_sock.delivered == n_low
        high_last = max(skb.marks["socket_enqueue"]
                        for skb in list(high_sock.rcvbuf))
        low_first_batch = [skb.marks["socket_enqueue"]
                           for skb in list(low_sock.rcvbuf)]
        # The last high packet lands no later than the last low packet.
        assert high_last <= max(low_first_batch)
