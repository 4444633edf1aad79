"""Deterministic fault injection and loss recovery.

Prism's evaluation is all about behaviour *under overload* — queues
overflow, packets drop — yet a lossless simulation of the closed-loop
load generators hides the most interesting failure mode: a single lost
request (or reply) permanently shrinks a memaslap window, silently
stalls a wrk2 connection, and the run reports bogusly calm numbers.

This package makes loss a first-class, *seeded* experiment axis:

- :class:`~repro.faults.plan.FaultPlan` — a frozen, hashable description
  of what goes wrong and when (NIC ring-overflow bursts, probabilistic
  windowed packet loss at any site, skb-allocation failure, IRQ loss,
  link flaps) plus the :class:`~repro.faults.plan.RetryPolicy` the
  applications recover with;
- :class:`~repro.faults.injector.FaultInjector` — installs a plan on a
  testbed: seeds per-site RNG streams, schedules burst/flap timers on
  the sim engine, and answers the kernel's gated drop queries;
- :class:`~repro.faults.recovery.RecoveryStats` /
  :func:`~repro.faults.recovery.backoff_deadline_ns` — the per-client
  loss-recovery accounting and the seeded-jitter exponential backoff
  shared by memaslap, wrk2, and sockperf's request/response mode;
- :class:`~repro.faults.conservation.PacketLedger` — the packet
  conservation invariant ``injected == delivered + dropped(by site)
  + in-flight``, checked exactly at any instant.

With no plan configured nothing here is ever consulted from a hot path
beyond one ``is not None`` gate — the golden-digest tests pin that a
fault-free run measures exactly what a build without this package does.
The package re-exports the plan and recovery names only: import the
injector and the ledger from their modules, which a run loads only when
it has a plan.
"""

from repro.faults.plan import (
    FaultPlan,
    IrqLoss,
    LinkFlap,
    PacketLoss,
    RetryPolicy,
    RingBurst,
    SkbAllocFailure,
)
from repro.faults.recovery import (
    RecoveryStats,
    backoff_deadline_ns,
    merge_recovery,
)

__all__ = [
    "FaultPlan",
    "IrqLoss",
    "LinkFlap",
    "PacketLoss",
    "RecoveryStats",
    "RetryPolicy",
    "RingBurst",
    "SkbAllocFailure",
    "backoff_deadline_ns",
    "merge_recovery",
]
