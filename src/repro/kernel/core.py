"""The per-host kernel instance: CPUs, softnets, mode, and PRISM state.

:class:`Kernel` wires together everything a simulated host's network stack
needs: the CPU cores (with NET_RX softirq handlers installed), per-CPU
``softnet_data``, the PRISM priority database/classifier, the procfs
configuration surface, and the tracer — the one path every observation
takes (the kernel observer, the telemetry hub and the flow tap are all
tracer subscribers; the kernel holds no other observation hook).

The stack mode (vanilla / prism-batch / prism-sync) is a *runtime*
property, switchable through procfs mid-simulation, exactly like the
paper's prototype.  Switching binds the per-mode behaviour once — the
``prism`` / ``sync`` / ``bypass`` switches the receive path reads and the
``net_rx_action`` variant — so no per-packet path compares modes.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional

from repro.kernel.config import KernelConfig
from repro.kernel.costs import CostModel, StageCostTable
from repro.kernel.cpu import CpuCore
from repro.kernel.net_rx_prism import net_rx_action_prism
from repro.kernel.net_rx_vanilla import net_rx_action_vanilla
from repro.fastpath.pool import SkbPool
from repro.kernel.softnet import NET_RX_SOFTIRQ, SoftnetData
from repro.prism.classifier import PriorityClassifier
from repro.prism.mode import StackMode
from repro.prism.priority_db import PriorityDatabase
from repro.prism.procfs import ProcFs
from repro.sim.engine import Simulator
from repro.trace.tracer import TracePoint, Tracer

__all__ = ["Kernel"]


class Kernel:
    """The simulated kernel of one host."""

    def __init__(self, sim: Simulator, *,
                 costs: Optional[CostModel] = None,
                 config: Optional[KernelConfig] = None,
                 tracer: Optional[Tracer] = None,
                 n_cpus: int = 2,
                 name: str = "host") -> None:
        if n_cpus < 1:
            raise ValueError("a host needs at least one CPU")
        self.sim = sim
        self.name = name
        self.costs = costs or CostModel()
        self.config = config or KernelConfig()
        self.tracer = tracer or Tracer()
        self.mode: StackMode = self.config.initial_mode
        self._bind_mode()

        self.priority_db = PriorityDatabase()
        self.classifier = PriorityClassifier(self.priority_db, self.costs)
        self.procfs = ProcFs(self.priority_db,
                             get_mode=lambda: self.mode,
                             set_mode=self._set_mode)

        self.cpus: List[CpuCore] = [
            CpuCore(sim, core_id, self.costs) for core_id in range(n_cpus)]
        self.softnets: List[SoftnetData] = [
            SoftnetData(self, cpu) for cpu in self.cpus]
        for cpu, softnet in zip(self.cpus, self.softnets):
            cpu.register_softirq(
                NET_RX_SOFTIRQ, self._make_net_rx_handler(softnet))

        #: Per-experiment skb allocator + free list.  Ids start at 1 for
        #: every kernel instance; set ``skb_pool.enabled = False`` to
        #: disable object reuse (ids stay per-experiment either way).
        self.skb_pool = SkbPool()
        #: Drop counters by queue name (populated via :meth:`count_drop`).
        self.drops: Dict[str, int] = {}
        #: Fault injector (:class:`repro.faults.FaultInjector`) or None.
        #: Consulted at rx-ring admission, NAPI-queue admission, skb
        #: allocation, and IRQ delivery.  Not a tracer subscriber: it
        #: changes behaviour rather than observing it.
        self.faults = None
        #: Packet-conservation ledger (:class:`repro.faults.PacketLedger`)
        #: or None; set together with ``faults`` when a FaultPlan is
        #: installed.
        self.ledger = None

    def stage_costs(self, base_ns: int, *,
                    is_copy_stage: bool = False) -> StageCostTable:
        """A pipeline stage's ``wire_len -> cost`` table.

        The bypass datapath discounts the fixed part of every stage; it
        is chosen at build time, so the discount is fixed here.
        """
        costs = self.costs
        if self.bypass:
            base_ns = costs.bypass_stage_base(base_ns)
        return StageCostTable(costs, base_ns, is_copy_stage)

    # ------------------------------------------------------------------
    # Mode switching
    # ------------------------------------------------------------------
    def _bind_mode(self) -> None:
        """Resolve the per-mode behaviour the receive path reads."""
        mode = self.mode
        #: Either PRISM mode: classification, dual queues, head scheduling.
        self.prism = mode.is_prism
        #: PRISM-sync: high-class skbs run every later stage inline.
        self.sync = mode is StackMode.PRISM_SYNC
        #: Kernel bypass: every skb runs every stage inline (build time).
        self.bypass = mode is StackMode.BYPASS
        # BYPASS shares the vanilla handler: the PMD never raises NET_RX
        # for the physical NIC.
        self._net_rx_action = (net_rx_action_prism if self.prism
                               else net_rx_action_vanilla)

    def _set_mode(self, mode: StackMode) -> None:
        if mode is not self.mode and StackMode.BYPASS in (mode, self.mode):
            # BYPASS is a build-time datapath: the poll-mode driver owns
            # the NIC rings from construction and the irq machinery is
            # never armed.  Flipping it live would strand in-flight
            # packets between two ring-drain disciplines.
            raise ValueError(
                f"cannot switch between {self.mode} and {mode} at runtime; "
                "bypass is selected at build time (config.initial_mode)")
        self.mode = mode
        self._bind_mode()

    def set_mode(self, mode: StackMode) -> None:
        """Switch the stack mode at runtime (procfs-equivalent)."""
        self._set_mode(mode)

    # ------------------------------------------------------------------
    # Softirq dispatch
    # ------------------------------------------------------------------
    def _make_net_rx_handler(self, softnet: SoftnetData):
        def handler() -> Generator[int, None, None]:
            return self._net_rx_action(self, softnet)
        return handler

    def softnet_for(self, cpu_id: int) -> SoftnetData:
        return self.softnets[cpu_id]

    def cpu(self, cpu_id: int) -> CpuCore:
        return self.cpus[cpu_id]

    def count_drop(self, queue_name: str, skb=None) -> None:
        """Count a drop at *queue_name* and fire the ``DROP`` tracepoint.

        The only site that emits ``DROP``: every drop site, including the
        fault injector's ``fault:`` sites, funnels through here.  *skb*
        (an skb, a raw :class:`~repro.packet.packet.Packet` for ring and
        skb-alloc drops, or None) lets subscribers attribute the loss.
        """
        self.drops[queue_name] = self.drops.get(queue_name, 0) + 1
        if self.tracer.active:
            for callback in self.tracer.subscribers(TracePoint.DROP):
                callback(queue=queue_name, skb=skb)

    @property
    def total_drops(self) -> int:
        return sum(self.drops.values())

    def __repr__(self) -> str:
        return (f"<Kernel {self.name!r} mode={self.mode} "
                f"cpus={len(self.cpus)}>")
