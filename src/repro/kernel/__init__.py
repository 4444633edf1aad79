"""The simulated Linux kernel: CPUs, softirqs, NAPI, and packet scheduling.

This package models the parts of the Linux kernel that the PRISM paper
modifies or depends on:

- :mod:`~repro.kernel.costs` — the calibrated timing model;
- :mod:`~repro.kernel.cpu` — CPU cores with hardirq/softirq/user contexts,
  preemption, C-states, and utilization accounting;
- :mod:`~repro.kernel.softnet` — per-CPU ``softnet_data`` (NAPI poll lists,
  backlog), ``napi_struct``;
- :mod:`~repro.kernel.net_rx_vanilla` — the vanilla ``net_rx_action``
  exactly as the paper's Fig. 2 pseudocode;
- :mod:`~repro.kernel.net_rx_prism` — PRISM's ``net_rx_action`` exactly as
  the paper's Fig. 7 pseudocode;
- :mod:`~repro.kernel.gro` — generic receive offload (coalescing);
- :mod:`~repro.kernel.config` — per-host kernel configuration knobs.
"""
