"""Unit test of vanilla NAPI's two-list splice semantics (Fig. 2, l.21-22).

When ``net_rx_action`` exits with budget exhausted, devices left on the
*local* list must be re-queued in front of devices newly added to the
*global* list — that exact ordering is what the pseudocode's double move
produces, and it matters for fairness across flows.
"""

from repro.bench.testbed import build_testbed
from repro.kernel.config import KernelConfig
from repro.kernel.core import Kernel
from repro.kernel.softnet import NET_RX_SOFTIRQ, NapiStruct
from repro.netdev.device import PacketStage
from repro.packet.packet import Packet
from repro.packet.skb import SKBuff
from repro.sim import Simulator


class NoopStage(PacketStage):
    name = "noop"

    def __init__(self, ns=100):
        self.ns = ns

    def cost(self, skb):
        return self.ns

    def run(self, skb, softnet):
        return None


def make_loaded_napi(kernel, softnet, name, packets):
    napi = NapiStruct(name, kernel, stage=NoopStage())
    napi.softnet = softnet
    for _ in range(packets):
        napi.enqueue(SKBuff(Packet(headers=(), payload_len=1)), high=False)
    return napi


def test_budget_break_requeues_local_leftovers_first():
    sim = Simulator()
    # Budget of 64: exactly one device's batch per softirq round.
    kernel = Kernel(sim, n_cpus=1,
                    config=KernelConfig(napi_budget=64, napi_weight=64))
    softnet = kernel.softnet_for(0)
    # Three devices, each with two batches of work.
    devices = [make_loaded_napi(kernel, softnet, name, 128)
               for name in ("a", "b", "c")]
    for napi in devices:
        softnet.napi_schedule(napi)

    polled = []
    kernel.tracer.attach("napi_poll",
                         lambda device, **kw: polled.append(device))
    sim.run()
    # Round 1 polls only 'a' (budget hit), re-adds it to the global list
    # BEHIND nothing (b, c are leftover locals spliced in front):
    # => order must be a, b, c, a, b, c — strict round robin, not
    # a, a, b, c (which a tail-only requeue would produce) nor
    # a, b, a, ... (head requeue).
    assert polled == ["a", "b", "c", "a", "b", "c"]
    assert all(not napi.has_packets() for napi in devices)


def test_prism_single_list_is_also_round_robin_for_low():
    sim = Simulator()
    from repro.prism.mode import StackMode
    kernel = Kernel(sim, n_cpus=1,
                    config=KernelConfig(napi_budget=64, napi_weight=64,
                                        initial_mode=StackMode.PRISM_BATCH))
    softnet = kernel.softnet_for(0)
    devices = [make_loaded_napi(kernel, softnet, name, 128)
               for name in ("a", "b", "c")]
    for napi in devices:
        softnet.napi_schedule(napi)

    polled = []
    kernel.tracer.attach("napi_poll",
                         lambda device, **kw: polled.append(device))
    sim.run()
    # Low-priority work is tail-requeued in PRISM too: fair round robin.
    assert polled == ["a", "b", "c", "a", "b", "c"]


def test_prism_high_priority_device_monopolizes_until_drained():
    sim = Simulator()
    from repro.prism.mode import StackMode
    kernel = Kernel(sim, n_cpus=1,
                    config=KernelConfig(napi_budget=1_000, napi_weight=64,
                                        initial_mode=StackMode.PRISM_BATCH))
    softnet = kernel.softnet_for(0)
    low = make_loaded_napi(kernel, softnet, "low", 128)
    high = NapiStruct("high", kernel, stage=NoopStage())
    high.softnet = softnet
    for _ in range(128):
        skb = SKBuff(Packet(headers=(), payload_len=1))
        skb.classify(0)
        high.enqueue(skb, high=True)
    softnet.napi_schedule(low)
    softnet.napi_schedule_head(high)

    polled = []
    kernel.tracer.attach("napi_poll",
                         lambda device, **kw: polled.append(device))
    sim.run()
    # Fig. 7 lines 13-14: a device with remaining high-priority work goes
    # back to the HEAD, so both of high's batches run before any of low's.
    assert polled == ["high", "high", "low", "low"]
