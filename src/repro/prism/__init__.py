"""PRISM — the paper's primary contribution.

Priority-based streamlined packet processing for multi-stage kernel
pipelines:

- :mod:`~repro.prism.mode` — the three operating modes the paper
  evaluates: ``VANILLA``, ``PRISM_BATCH``, ``PRISM_SYNC``;
- :mod:`~repro.prism.priority_db` — the global user-configurable database
  of high-priority (IP, port) rules (§IV-A), including the multi-level
  generalization of §VII-3;
- :mod:`~repro.prism.procfs` — the ``/proc`` style runtime configuration
  interface the paper exposes;
- :mod:`~repro.prism.classifier` — per-skb priority stamping at skb
  allocation time in the physical driver.

The modified stage-transition functions of §IV-C (the kernel's
``gro_cells_receive`` / ``netif_rx``: head-of-list insertion, dual-queue
enqueueing and PRISM-sync run-to-completion) are the kernel's one
hand-off loop, :func:`repro.kernel.softnet.hand_off`, driven by the
``prism`` / ``sync`` / ``bypass`` switches ``Kernel`` binds whenever the
mode is set.
"""
