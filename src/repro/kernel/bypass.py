"""Busy-polling poll-mode driver for the BYPASS datapath.

Models an AF_XDP/DPDK-style userspace datapath: one dedicated CPU spins
on the physical NIC's rx ring and runs every packet through the whole
pipeline run-to-completion.  No interrupt is ever raised, no softirq is
dispatched, and no per-stage queue is touched — the three stages of the
container overlay become plain function calls inside one tight loop.

Two modelling decisions keep the simulation honest *and* cheap:

- **Accounted busy-poll.**  A literal spin loop would flood the event
  queue with poll events.  Instead, when the ring is empty the PMD
  process blocks on a wake event that :meth:`PhysicalNic.receive`
  triggers on the next DMA; on wake the elapsed wait is charged to the
  polling CPU as USER time.  The schedule is identical to a spin that
  notices the packet on the arrival tick, and the accounting is
  identical to a core that never sleeps: utilization reads ~1.0, the
  core never enters :class:`~repro.kernel.cpu.CpuContext.IDLE`, and
  ``cstate_wakeups`` stays 0 — which is exactly what makes the Fig. 11
  power comparison meaningful for this mode.
- **Reuse of the driver poll.**  The PMD runs the existing
  :meth:`NicNapi.poll` generator — whose hand-off runs every later stage
  inline, since ``Kernel.bypass`` is set — with the polling core's USER
  charge, so every duration is booked as USER time (DPDK packet
  processing is user-space work).
  Every fault hook, ledger movement, tracepoint, and telemetry counter
  on the NAPI path therefore behaves identically in bypass mode —
  conservation under a :class:`~repro.faults.plan.FaultPlan` needs no
  special cases.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from repro.kernel.cpu import CpuContext
from repro.sim.events import Event
from repro.trace.tracer import TracePoint

if TYPE_CHECKING:  # pragma: no cover
    from repro.netdev.nic import PhysicalNic

__all__ = ["PollModeDriver"]


class PollModeDriver:
    """A dedicated-core busy-poll loop over one physical NIC's rings."""

    def __init__(self, nic: "PhysicalNic") -> None:
        self.nic = nic
        self.kernel = nic.kernel
        self.cpu = self.kernel.cpu(nic.cpu_id)
        self.napi = nic.napi
        #: Completed poll batches / packets pulled through the pipeline.
        self.batches = 0
        self.packets = 0
        #: Empty-ring waits (each one is a modelled spin interval).
        self.idle_spins = 0
        self._wake: Optional[Event] = None
        self.process = self.kernel.sim.process(
            self._run(), name=f"pmd:{nic.name}")

    def notify(self) -> None:
        """A packet hit the ring: the spinning core notices it now."""
        wake = self._wake
        if wake is not None and not wake.triggered:
            wake.succeed()

    def _run(self) -> Generator:
        kernel = self.kernel
        sim = kernel.sim
        napi = self.napi
        stats = self.cpu.stats
        charge = self.cpu.charge_user
        tracer = kernel.tracer
        weight = kernel.config.napi_weight
        track = f"pmd:{self.nic.name}"
        while True:
            if napi.has_packets():
                self.batches += 1
                traced = tracer.active
                if traced:
                    tracer.emit(TracePoint.SPAN_BEGIN, track=track,
                                name="pmd_batch")
                # DPDK packet processing is user-space work: the poll
                # books its time as USER time on the polling core (the
                # softirq dispatcher never sees this device).
                processed = yield from napi.poll(weight, charge)
                self.packets += processed
                if traced:
                    tracer.emit(TracePoint.SPAN_END, track=track,
                                name="pmd_batch")
            else:
                # Accounted busy-poll: block until the next DMA, then
                # book the whole wait as USER spin time (C0, never idle).
                self.idle_spins += 1
                self._wake = sim.event(name=f"pmd-wake:{self.nic.name}")
                spin_start = sim.now
                yield self._wake
                self._wake = None
                waited = sim.now - spin_start
                if waited > 0:
                    stats.add(CpuContext.USER, waited)

    def __repr__(self) -> str:
        return (f"<PollModeDriver {self.nic.name!r} batches={self.batches} "
                f"packets={self.packets}>")
