"""Static kernel configuration knobs.

These map to the Linux tunables the paper's evaluation depends on.  The
defaults match Linux 5.4 defaults (the paper's kernel) unless noted.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.prism.mode import StackMode

__all__ = ["KernelConfig"]


@dataclass(frozen=True)
class KernelConfig:
    """Tunables of the simulated kernel."""

    #: NAPI per-device batch size (``napi_struct.weight``); 64 in Linux.
    napi_weight: int = 64
    #: Max packets per net_rx_action invocation (``netdev_budget``); 300.
    napi_budget: int = 300
    #: Physical NIC rx descriptor ring capacity.
    rx_ring_capacity: int = 1024
    #: Per-CPU backlog queue capacity (``netdev_max_backlog``); 1000.
    backlog_capacity: int = 1000
    #: Per-device NAPI input queue capacity (gro_cells queue).
    napi_queue_capacity: int = 1000
    #: Socket receive buffer capacity, in packets (approximates rmem).
    socket_rcvbuf_packets: int = 512
    #: Generic receive offload at the vxlan gro_cells (paper: GRO enabled).
    gro_enabled: bool = True
    #: GRO coalescing limits (bytes / segments per super-skb).
    gro_max_bytes: int = 65_536
    gro_max_segs: int = 44
    #: TCP maximum segment size / link MTU.
    mss: int = 1_448
    mtu: int = 1_500
    #: Future-work extension (§VII-1): the NIC classifies into dual rx
    #: rings in "hardware", giving stage-1 priority differentiation.
    nic_priority_rings: bool = False
    #: Multi-level extension (§VII-3): priority levels <= this value map
    #: to the high-priority device queues; the paper's binary prototype
    #: corresponds to 0.
    high_priority_max_level: int = 0
    #: Initial stack mode; switchable at runtime via procfs (except
    #: BYPASS, which rewires the datapath at build time).
    initial_mode: StackMode = StackMode.VANILLA
    #: Physical-NIC interrupt moderation policy: ``"fixed"`` coalesces
    #: with the static ``costs.irq_rate_limit_ns`` window, ``"adaptive"``
    #: re-tunes the window each epoch from the observed packet rate
    #: (DIM-style), ``"off"`` fires an interrupt per arrival burst with
    #: no coalescing.  Ignored by the BYPASS datapath (no interrupts).
    irq_moderation: str = "fixed"

    def __post_init__(self) -> None:
        if self.irq_moderation not in ("fixed", "adaptive", "off"):
            raise ValueError(
                f"unknown irq_moderation {self.irq_moderation!r}; "
                "expected 'fixed', 'adaptive', or 'off'")

    def replace(self, **changes: object) -> "KernelConfig":
        """Return a copy with the given fields changed."""
        return dataclasses.replace(self, **changes)
