"""The physical NIC: DMA rings, interrupts, and the driver NAPI poll.

Models the paper's Mellanox ConnectX-5 behaviourally:

- packets arriving from the wire are DMA'd into a bounded rx descriptor
  ring; when the ring is full, packets are dropped in "hardware";
- the first packet after quiescence raises a hardware interrupt whose
  top half schedules the NIC's NAPI and masks further interrupts;
  ``napi_complete`` unmasks them (the NAPI interrupt/polling dance of
  paper §II-A);
- the driver poll allocates an skb per descriptor and — in PRISM modes —
  classifies its priority right there (``mlx5e_napi_poll``, §IV-A);
- the rx **ring itself is strictly FCFS**: the paper's §IV-D limitation.
  Stage-1 priority differentiation is only available through the
  ``nic_priority_rings`` future-work extension (§VII-1), which models a
  hardware flow-director steering high-priority flows to a second ring
  that the poll drains first.

The NIC stage then either decapsulates VXLAN packets toward stage 2 or,
for host-network traffic, runs the whole protocol stack in this single
stage (which is why PRISM cannot help host flows — Fig. 10).
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, Generator, Optional, Tuple, TYPE_CHECKING

from repro.fastpath.headercache import DecapMemo
from repro.kernel.bypass import PollModeDriver
from repro.kernel.costs import StageCostTable
from repro.kernel.softnet import InlineGates, NapiStruct, hand_off
from repro.netdev.device import NetDevice, PacketStage
from repro.netdev.queues import PacketQueue
from repro.packet.addr import Ipv4Address, MacAddress
from repro.packet.packet import Packet
from repro.packet.skb import SKBuff  # noqa: F401 (re-exported for drivers)
from repro.stack.receive import protocol_rcv
from repro.trace.tracer import TracePoint

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.core import Kernel
    from repro.kernel.softnet import SoftnetData
    from repro.netdev.vxlan import VxlanDevice

__all__ = ["PhysicalNic", "NicNapi", "NicStage"]


class NicStage(PacketStage):
    """Stage 1: driver rx — VXLAN decap or full host-path processing."""

    name = "eth"

    #: Decap-memo capacity: enough for every concurrent flow in the
    #: paper's scenarios, small enough that a non-sharing sender can't
    #: bloat it.
    DECAP_MEMO_CAP = 64

    def __init__(self, nic: "PhysicalNic") -> None:
        self.nic = nic
        self._decap_memo = DecapMemo(self.DECAP_MEMO_CAP)
        #: The inner packet of a VXLAN packet, memoized per outer stack.
        self._decap = self._decap_memo.decap

    @functools.cached_property
    def _decap_costs(self) -> StageCostTable:
        kernel = self.nic.kernel
        return kernel.stage_costs(kernel.costs.nic_pkt_ns)

    @functools.cached_property
    def _host_costs(self) -> StageCostTable:
        # Host network: the entire pipeline is this one stage.
        kernel = self.nic.kernel
        costs = kernel.costs
        return kernel.stage_costs(costs.nic_pkt_ns + costs.veth_pkt_ns,
                                  is_copy_stage=True)

    def cost(self, skb: SKBuff) -> int:
        if skb.packet.vni in self.nic.vxlan_by_vni:
            return self._decap_costs[skb.wire_len]
        return self._host_costs[skb.wire_len]

    def run(self, skb: SKBuff, softnet: "SoftnetData"
            ) -> Optional[NapiStruct]:
        packet = skb.packet
        # A VXLAN packet for a registered VNI is decapsulated toward
        # stage 2; anything else takes the host path.
        vxlan_dev = self.nic.vxlan_by_vni.get(packet.vni)
        if vxlan_dev is not None:
            # gro_cells_receive: stage 2 is the vxlan device's gro cell on
            # this CPU.
            inner = skb.packet = self._decap(packet)
            skb.wire_len = inner.wire_len
            skb.dev = vxlan_dev
            vxlan_dev.rx_packets += 1
            vxlan_dev.rx_bytes += skb.wire_len
            return vxlan_dev.gro_cell_for(softnet)
        nic = self.nic
        if nic.netns is not None:
            protocol_rcv(nic.kernel, nic.netns, skb, softnet.cpu)
        return None


class NicNapi(NapiStruct):
    """The NIC driver's NAPI context: polls the rx ring(s)."""

    def __init__(self, nic: "PhysicalNic") -> None:
        super().__init__(nic.name, nic.kernel, stage=NicStage(nic))
        self.nic = nic

    # The NIC's "queues" are its hardware rings, not skb lists.
    def has_high(self) -> bool:
        ring_high = self.nic.ring_high
        return bool(ring_high) if ring_high is not None else False

    def has_low(self) -> bool:
        return bool(self.nic.ring)

    def has_packets(self) -> bool:
        return self.has_high() or self.has_low()

    def poll(self, batch_size: int, charge: Callable[[int], bool]
             ) -> Generator[int, None, int]:
        """Driver poll: dequeue descriptors, allocate + classify skbs.

        skbs come from the kernel's free-list pool and go through
        receive packet steering, then the driver stage and
        :func:`~repro.kernel.softnet.hand_off`; CPU time goes through
        *charge* (see :meth:`NapiStruct.poll`); tracepoint gates are read
        once per batch.
        """
        kernel = self.kernel
        tracer = kernel.tracer
        active = tracer.active
        trace_allocs = active and tracer.has_subscribers(TracePoint.SKB_ALLOC)
        trace_waits = active and tracer.has_subscribers(TracePoint.QUEUE_WAIT)
        spans = active and tracer.has_subscribers(TracePoint.SPAN_BEGIN)
        stage_done = active and tracer.has_subscribers(TracePoint.STAGE_DONE)
        traced = trace_allocs or spans
        gates = InlineGates(tracer) if active else None
        pool = kernel.skb_pool
        classify = kernel.classifier.classify
        prism = kernel.prism
        stage = self.stage
        softnet = self.softnet
        track = self._track() if spans else None
        sim = kernel.sim
        faults = kernel.faults
        ledger = kernel.ledger
        ns = kernel.costs.device_poll_overhead_ns
        if charge(ns):
            yield ns
        ring = (self.nic.ring_high
                if self.nic.ring_high is not None and self.nic.ring_high
                else self.nic.ring)
        dequeue = ring.popleft
        processed = 0
        while processed < batch_size and ring:
            arrival, packet = dequeue()
            if faults is not None and faults.skb_alloc_fails():
                # alloc_skb returned NULL: the descriptor is consumed
                # and the packet is gone.
                kernel.count_drop("fault:skb-alloc", packet)
                if ledger is not None:
                    ledger.drop("fault:skb-alloc")
                processed += 1
                continue
            if ledger is not None:
                ledger.enter(1)
            now = sim.now
            skb = pool.alloc(packet, dev=self.nic, alloc_time=now)
            marks = skb.marks
            marks["rx_ring"] = arrival
            marks["skb_alloc"] = now
            if trace_waits:
                # Ring residency: DMA arrival to driver-poll dequeue.
                tracer.emit(TracePoint.QUEUE_WAIT, queue=ring.name,
                            skb=skb, since=arrival)
            ns = classify(skb, prism)
            if ns and charge(ns):
                yield ns
            if traced:
                if trace_allocs:
                    tracer.emit(TracePoint.SKB_ALLOC, device=self.name,
                                skb=skb)
                if spans:
                    tracer.emit(TracePoint.SPAN_BEGIN, track=track,
                                name=f"skb:{stage.name}",
                                hp=skb.is_high_priority)
            ns = stage.cost(skb)
            if charge(ns):
                yield ns
            napi = stage.run(skb, softnet)
            if stage_done:
                tracer.emit(TracePoint.STAGE_DONE, device=self.name,
                            skb=skb, stage=stage.name)
            if napi is not None:
                yield from hand_off(napi, skb, gates, charge)
            if spans:
                tracer.emit(TracePoint.SPAN_END, track=track,
                            name=f"skb:{stage.name}")
            processed += 1
        if active and tracer.has_subscribers(TracePoint.NAPI_POLL_DONE):
            tracer.emit(TracePoint.NAPI_POLL_DONE, napi=self.name,
                        processed=processed)
        return processed


class PhysicalNic(NetDevice):
    """A physical NIC bound to one CPU (irq affinity)."""

    def __init__(self, kernel: "Kernel", name: str = "eth", *,
                 mac: MacAddress, ip: Ipv4Address, cpu_id: int = 0) -> None:
        super().__init__(name, mac=mac, ip=ip)
        self.kernel = kernel
        self.cpu_id = cpu_id
        self.softnet = kernel.softnet_for(cpu_id)
        config = kernel.config
        self.ring: PacketQueue[Tuple[int, Packet]] = PacketQueue(
            config.rx_ring_capacity, f"{name}:ring")
        self.ring_high: Optional[PacketQueue[Tuple[int, Packet]]] = None
        if config.nic_priority_rings:
            self.ring_high = PacketQueue(config.rx_ring_capacity,
                                         f"{name}:ring-high")
        self.napi = NicNapi(self)
        self.napi.softnet = self.softnet
        self.napi.on_complete = self._on_napi_complete
        self.irq_enabled = True
        self.vxlan_by_vni: Dict[int, "VxlanDevice"] = {}
        # Interrupt moderation state: at most one rx interrupt per
        # moderation window.  The window is the static
        # costs.irq_rate_limit_ns ("fixed", the mlx5 adaptive-rx model),
        # zero ("off"), or re-tuned each epoch from the observed arrival
        # rate ("adaptive", the DIM model).
        self._last_irq_at = -(1 << 62)
        self._irq_timer = None
        costs = kernel.costs
        moderation = config.irq_moderation
        if moderation == "adaptive":
            self._mod_window = max(costs.irq_mod_min_ns,
                                   min(costs.irq_rate_limit_ns,
                                       costs.irq_mod_max_ns))
        elif moderation == "off":
            self._mod_window = 0
        else:
            self._mod_window = costs.irq_rate_limit_ns
        self._mod_epoch_start = 0
        self._mod_epoch_packets = 0
        # BYPASS datapath: a poll-mode driver owns the rings; the irq
        # machinery above is never exercised (and the adaptive moderator
        # has nothing to moderate).
        self._pmd = None
        self._mod_adaptive = False
        if kernel.bypass:
            self._pmd = PollModeDriver(self)
        else:
            self._mod_adaptive = moderation == "adaptive"

    @property
    def moderation_window_ns(self) -> int:
        """Current rx-interrupt coalescing window (0 = immediate irqs)."""
        return self._mod_window

    def register_vxlan(self, vxlan_dev: "VxlanDevice") -> None:
        """Route VXLAN packets with this device's VNI to it."""
        self.vxlan_by_vni[vxlan_dev.vni] = vxlan_dev

    # ------------------------------------------------------------------
    # Wire side ("hardware")
    # ------------------------------------------------------------------
    def receive(self, packet: Packet) -> None:
        """A packet arrives from the wire: DMA into the rx ring."""
        self.rx_packets += 1
        self.rx_bytes += packet.wire_len
        kernel = self.kernel
        if self._mod_adaptive:
            self._mod_observe(kernel.sim.now)
        ring = (self.ring if self.ring_high is None
                else self._hardware_steer(packet))
        ledger = kernel.ledger
        if ledger is not None:
            ledger.inject(self.name)
        faults = kernel.faults
        if faults is not None and faults.drop_at_queue(ring.name):
            site = f"fault:{ring.name}"
            kernel.count_drop(site, packet)
            if ledger is not None:
                ledger.drop(site)
            return
        if not ring.enqueue((kernel.sim.now, packet)):
            kernel.count_drop(ring.name, packet)
            if ledger is not None:
                ledger.drop(ring.name)
            return
        if kernel.tracer.active:
            # Host ingress: the raw wire packet, before classification.
            for callback in kernel.tracer.subscribers(TracePoint.NIC_RX):
                callback(queue=ring.name, packet=packet)
        if self._pmd is not None:
            self._pmd.notify()
        elif self.irq_enabled and not self.napi.scheduled:
            self._maybe_interrupt()

    def _mod_observe(self, now: int) -> None:
        """Adaptive moderation: count the arrival; re-tune at epoch end.

        DIM in spirit (net_dim.c): the observed packet rate over the last
        epoch moves the coalescing window geometrically — double above
        ``irq_mod_up_pps`` (throughput regime: batching wins), halve
        below ``irq_mod_down_pps`` (latency regime: fire early), clamped
        to [irq_mod_min_ns, irq_mod_max_ns].  Integer arithmetic only;
        the trajectory is a pure function of the arrival times.
        """
        self._mod_epoch_packets += 1
        costs = self.kernel.costs
        elapsed = now - self._mod_epoch_start
        if elapsed < costs.irq_mod_epoch_ns:
            return
        pps = self._mod_epoch_packets * 1_000_000_000 // elapsed
        if pps >= costs.irq_mod_up_pps:
            self._mod_window = min(max(self._mod_window, 1) * 2,
                                   costs.irq_mod_max_ns)
        elif pps <= costs.irq_mod_down_pps:
            self._mod_window = max(self._mod_window // 2,
                                   costs.irq_mod_min_ns)
        self._mod_epoch_start = now
        self._mod_epoch_packets = 0

    def _hardware_steer(self, packet: Packet) -> PacketQueue:
        """Pick the rx ring (flow-director model for the §VII-1 extension)."""
        if self.ring_high is None:
            return self.ring
        level = self.kernel.priority_db.classify_packet(packet)
        max_level = self.kernel.config.high_priority_max_level
        if level is not None and level <= max_level:
            return self.ring_high
        return self.ring

    def _maybe_interrupt(self) -> None:
        """Raise the rx interrupt, subject to adaptive moderation.

        A packet after a quiet period interrupts immediately; within the
        moderation window the interrupt is deferred to the window edge so
        bursts coalesce into one NAPI batch (adaptive-rx behaviour).
        """
        if not self.irq_enabled or self.napi.scheduled:
            return
        now = self.kernel.sim.now
        window = self._mod_window
        if now - self._last_irq_at >= window:
            self._fire_irq()
        elif self._irq_timer is None:
            fire_at = self._last_irq_at + window
            self._irq_timer = self.kernel.sim.schedule_at(
                fire_at, self._irq_timer_fired)

    def _irq_timer_fired(self) -> None:
        self._irq_timer = None
        if self.irq_enabled and not self.napi.scheduled and self.napi.has_packets():
            self._fire_irq()

    def cancel_irq_timer(self) -> None:
        """Cancel a pending moderation timer (idempotent).

        Called when the irq is masked (a pending timer would otherwise
        dangle and fire an extra, unmoderated interrupt once NAPI
        completes — reachable when the adaptive moderator shrinks the
        window between arming and firing) and when fault injection
        flushes the rings (a timer aimed at a now-empty NIC would leak
        into engine teardown).
        """
        timer = self._irq_timer
        if timer is not None:
            self._irq_timer = None
            timer.cancel()

    def _fire_irq(self) -> None:
        kernel = self.kernel
        self._last_irq_at = kernel.sim.now
        faults = kernel.faults
        if faults is not None and faults.irq_lost():
            # The interrupt is lost in "hardware": moderation state
            # advances but the NAPI is never scheduled and the irq stays
            # unmasked, so a later arrival (or the moderation timer)
            # re-triggers delivery.  Ring contents are preserved.
            return
        self.cancel_irq_timer()
        self.irq_enabled = False  # NIC masks its irq while scheduled
        cpu = kernel.cpu(self.cpu_id)
        cpu.hardirq(lambda: self.softnet.napi_schedule(self.napi))

    def _on_napi_complete(self) -> None:
        """napi_complete: re-arm the interrupt; catch missed arrivals."""
        self.irq_enabled = True
        if self.napi.has_packets():
            self._maybe_interrupt()

    def __repr__(self) -> str:
        return f"<PhysicalNic {self.name!r} ring={len(self.ring)}>"
