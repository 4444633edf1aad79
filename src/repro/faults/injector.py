"""Installs a :class:`~repro.faults.plan.FaultPlan` on a testbed.

The injector owns three things:

1. **Seeded decision streams** — one independent
   :class:`~repro.sim.rng.SeededRng` fork per fault family, derived from
   ``plan.seed`` (never the workload seed), so fault timing is
   reproducible and orthogonal to workload randomness.
2. **Scheduled events** — ring-overflow bursts and link flaps are
   sim-engine timers registered at :meth:`install` time.
3. **The packet ledger** — a :class:`~repro.faults.conservation.PacketLedger`
   wired into every kernel accounting site, with queue-depth providers
   over the rx ring(s), every NAPI input queue, and lazily created
   gro_cells.

The kernel consults the injector through ``kernel.faults`` at exactly
four decision points (rx-ring admission, NAPI-queue admission, skb
allocation, IRQ delivery); the wire consults ``wire.fault_hook``.  All
of these sites are gated on ``is not None`` so a plan-free run never
pays more than an attribute test.

Forced drops are counted in ``kernel.drops`` under ``fault:``-prefixed
names, keeping them distinguishable from organic overflow drops in every
existing drops surface (results, telemetry, traces).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.faults.conservation import PacketLedger
from repro.faults.plan import FaultPlan, LinkFlap, PacketLoss, RingBurst
from repro.sim.rng import SeededRng

if TYPE_CHECKING:  # pragma: no cover
    from repro.bench.testbed import Testbed
    from repro.packet.packet import Packet

__all__ = ["FaultInjector"]

#: Destination port for ring-burst junk traffic: the discard port, never
#: bound by any scenario, so surviving burst packets terminate at the
#: ``server/root:rcv:udp-unmatched`` drop site.
BURST_DST_PORT = 9
BURST_PAYLOAD_LEN = 64


class FaultInjector:
    """Live fault state for one experiment run."""

    def __init__(self, plan: FaultPlan, testbed: "Testbed") -> None:
        self.plan = plan
        self.testbed = testbed
        self.sim = testbed.sim
        self.ledger = PacketLedger()
        root = SeededRng(plan.seed)
        self._queue_rng = root.fork("faults:queue-loss")
        self._wire_rng = root.fork("faults:wire-loss")
        self._skb_rng = root.fork("faults:skb-alloc")
        self._irq_rng = root.fork("faults:irq-loss")
        #: Forced-drop / event counts by fault site (independent of the
        #: kernel's drop counters; survives even if a site has no kernel).
        self.stats: Dict[str, int] = {}
        self.bursts_fired = 0
        self.burst_packets = 0
        self.flaps = 0
        self.irqs_lost = 0
        self._link_down_until = -1
        #: queue name -> applicable loss records (site prefix match).
        self._queue_losses: Dict[str, Tuple[PacketLoss, ...]] = {}
        self._site_losses = tuple(l for l in plan.losses
                                  if l.site not in ("wire", "wire:tx"))
        self._wire_rx = tuple(l for l in plan.losses if l.site == "wire")
        self._wire_tx = tuple(l for l in plan.losses if l.site == "wire:tx")
        self._installed = False

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> "FaultInjector":
        """Wire this injector into the testbed.  Idempotent-hostile: once."""
        if self._installed:
            raise RuntimeError("FaultInjector is already installed")
        self._installed = True
        testbed = self.testbed
        kernel = testbed.server.kernel
        kernel.faults = self
        kernel.ledger = self.ledger
        testbed.wire.fault_hook = self._wire_hook
        self._register_queue_providers()
        for burst in self.plan.ring_bursts:
            self.sim.schedule_at(burst.at_ns, self._fire_burst, burst)
        for flap in self.plan.link_flaps:
            self.sim.schedule_at(flap.at_ns, self._start_flap, flap)
        return self

    def _register_queue_providers(self) -> None:
        server = self.testbed.server
        kernel = server.kernel
        nic = server.nic
        ledger = self.ledger
        # The rx ring holds raw (arrival, packet) tuples: weight 1 each.
        ledger.add_queue_provider(lambda: len(nic.ring))
        if nic.ring_high is not None:
            ring_high = nic.ring_high
            ledger.add_queue_provider(lambda: len(ring_high))

        def skb_queues():
            for softnet in kernel.softnets:
                yield softnet.backlog.queue_low
                yield softnet.backlog.queue_high
            # gro_cells are created lazily per CPU — walk at check time.
            for vxlan_dev in nic.vxlan_by_vni.values():
                for cell in vxlan_dev._cells.values():
                    yield cell.queue_low
                    yield cell.queue_high

        def weighted_depth() -> int:
            # GRO super-skbs stand for 1 + len(gro_list) wire packets.
            return sum(skb.gro_segments
                       for queue in skb_queues()
                       for skb in queue)

        ledger.add_queue_provider(weighted_depth)

    # ------------------------------------------------------------------
    # Decision hooks (consulted from gated kernel sites)
    # ------------------------------------------------------------------
    def _count(self, site: str, n: int = 1) -> None:
        self.stats[site] = self.stats.get(site, 0) + n

    def drop_at_queue(self, queue_name: str) -> bool:
        """Should admission to *queue_name* be forcibly dropped now?"""
        losses = self._queue_losses.get(queue_name)
        if losses is None:
            losses = tuple(l for l in self._site_losses
                           if queue_name.startswith(l.site))
            self._queue_losses[queue_name] = losses
        if not losses:
            return False
        now = self.sim.now
        for loss in losses:
            if loss.active_at(now) and self._queue_rng.random() < loss.p:
                self._count(f"fault:{queue_name}")
                return True
        return False

    def skb_alloc_fails(self) -> bool:
        fault = self.plan.skb_alloc
        if fault is None or not fault.active_at(self.sim.now):
            return False
        if self._skb_rng.random() < fault.p:
            self._count("fault:skb-alloc")
            return True
        return False

    def irq_lost(self) -> bool:
        fault = self.plan.irq_loss
        if fault is None or not fault.active_at(self.sim.now):
            return False
        if self._irq_rng.random() < fault.p:
            self.irqs_lost += 1
            self._count("fault:irq")
            return True
        return False

    # ------------------------------------------------------------------
    # Wire hook
    # ------------------------------------------------------------------
    def _wire_hook(self, packet: "Packet", receiver: object) -> bool:
        """True to drop *packet* before it occupies the link."""
        toward_server = receiver is self.testbed.server
        now = self.sim.now
        if now < self._link_down_until:
            site = "fault:wire:flap"
            self._count(site)
            if toward_server:
                # Balance the ledger: the packet would have been injected
                # at the NIC; record it as injected-then-dropped on the
                # wire so client-side sends reconcile against the ledger.
                self.ledger.inject("wire")
                self.ledger.drop(site)
            return True
        losses = self._wire_rx if toward_server else self._wire_tx
        for loss in losses:
            if loss.active_at(now) and self._wire_rng.random() < loss.p:
                site = "fault:wire" if toward_server else "fault:wire:tx"
                self._count(site)
                if toward_server:
                    self.ledger.inject("wire")
                    self.ledger.drop(site)
                return True
        return False

    # ------------------------------------------------------------------
    # Scheduled events
    # ------------------------------------------------------------------
    def _fire_burst(self, burst: RingBurst) -> None:
        """Slam ``factor``x ring-capacity junk packets into the NIC now.

        The packets take the normal host-network path: most overflow the
        rx ring ("hardware" drops against the ring), survivors climb to
        ``protocol_rcv`` and die as ``udp-unmatched``.  Every one is
        accounted, so conservation holds through the burst.
        """
        from repro.fastpath.headercache import CachedUdpBuilder
        testbed = self.testbed
        server = testbed.server
        client = testbed.client
        builder = CachedUdpBuilder()
        n = math.ceil(burst.factor * server.nic.ring.capacity)
        for _ in range(n):
            packet = builder.build(
                src_mac=client.mac, dst_mac=server.mac,
                src_ip=client.ip, dst_ip=server.ip,
                src_port=54321, dst_port=BURST_DST_PORT,
                payload=None, payload_len=BURST_PAYLOAD_LEN,
                created_at=self.sim.now)
            server.receive(packet)
        self.bursts_fired += 1
        self.burst_packets += n
        self._count("fault:burst", n)

    def _start_flap(self, flap: LinkFlap) -> None:
        self.flaps += 1
        self._count("fault:flap")
        until = self.sim.now + flap.duration_ns
        if until > self._link_down_until:
            self._link_down_until = until
        if flap.flush_ring:
            self._flush_ring()

    def _flush_ring(self) -> None:
        """Device reset: discard ring contents, with full accounting."""
        nic = self.testbed.server.nic
        # The reset also tears down a pending moderation timer: a timer
        # left armed would fire into the now-empty NIC (a dead event at
        # best, a leak into engine teardown at worst).
        nic.cancel_irq_timer()
        rings = [nic.ring] + ([nic.ring_high]
                              if nic.ring_high is not None else [])
        kernel = self.testbed.server.kernel
        for ring in rings:
            n = len(ring)
            if not n:
                continue
            ring.clear()
            site = f"fault:flush:{ring.name}"
            self._count(site, n)
            self.ledger.drop(site, n)
            for _ in range(n):
                kernel.count_drop(site)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Serializable what-went-wrong snapshot for results."""
        return {
            "plan": self.plan.to_dict(),
            "bursts_fired": self.bursts_fired,
            "burst_packets": self.burst_packets,
            "flaps": self.flaps,
            "irqs_lost": self.irqs_lost,
            "forced": dict(sorted(self.stats.items())),
        }

    def conservation_report(self) -> dict:
        return self.ledger.report()
