"""The calibrated timing model for kernel packet processing.

Every simulated activity charges virtual CPU time according to this model.
The defaults are calibrated against the two absolute anchors the paper
reports for its testbed (Fig. 8, one dedicated packet-processing core,
3-stage container overlay pipeline):

- **batched** processing saturates at ≈ 400 Kpps, i.e. ≈ 2.5 µs of CPU per
  packet summed over the three stages;
- **unbatched** (PRISM-sync) processing saturates at ≈ 300 Kpps, i.e.
  ≈ 3.33 µs per packet — the extra ≈ 0.83 µs is the per-stage fixed
  overhead (softirq context switch + I-cache warm-up) that batching
  normally amortizes over 64 packets.

With these anchors, a 300 Kpps background flood consumes 60–70 % of the
core — matching the paper's §V-A setup — and all the figure-level results
are *shapes* relative to them.

All values are integer nanoseconds unless stated otherwise.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

__all__ = ["CostModel", "StageCostTable"]


@dataclass(frozen=True)
class CostModel:
    """Timing parameters for the simulated kernel and testbed."""

    # ------------------------------------------------------------------
    # Interrupts and softirq dispatch
    # ------------------------------------------------------------------
    #: Hardware interrupt entry/exit + top-half handler.
    hardirq_ns: int = 700
    #: Adaptive interrupt moderation (mlx5 adaptive-rx): at most one rx
    #: interrupt per this window.  A packet arriving after a quiet period
    #: interrupts immediately (low-rate flows keep their low latency);
    #: under load, arrivals coalesce so NAPI sees real batches instead of
    #: one irq per packet.
    irq_rate_limit_ns: int = 45_000
    #: One invocation of the NET_RX softirq handler (``net_rx_action``):
    #: softirq dispatch, local-list setup.
    softirq_dispatch_ns: int = 800
    #: Marking a softirq pending (``raise_softirq``) / adding a device to a
    #: poll list.
    softirq_raise_ns: int = 80
    #: One ``napi_poll`` invocation: dequeuing the device from the poll
    #: list, indirect call into the driver poll function, I-cache warm-up.
    #: This is the per-stage fixed overhead that batching amortizes; it is
    #: charged once per poll call regardless of how many packets the call
    #: then processes.
    device_poll_overhead_ns: int = 240
    #: Extra per-stage cost in PRISM-sync mode for the inline run-to-
    #: completion stage call: indirect call into the next stage plus the
    #: I-cache/D-cache miss cost of switching stage code per *packet*
    #: instead of per batch — this is the batching benefit PRISM-sync
    #: gives up (paper §III-B1, Fig. 8's ~300 vs ~400 Kpps).
    sync_stage_overhead_ns: int = 450
    #: Per-stage overhead of the BYPASS run-to-completion path.  Cheaper
    #: than ``sync_stage_overhead_ns`` because the poll-mode driver runs
    #: the whole pipeline in one tight user-space loop: no softirq frame
    #: on the stack, stage code stays hot in the I-cache across packets,
    #: and there is no hardirq/NAPI bookkeeping between stages.
    bypass_stage_overhead_ns: int = 150
    #: Scale applied to the per-stage *base* cost in BYPASS mode.  A
    #: user-space poll-mode driver (DPDK/AF_XDP style) skips the skb
    #: slab allocation, refcounting, and generic-stack bookkeeping the
    #: kernel stages pay, cutting the fixed per-packet stage cost
    #: roughly in half (per-byte copy/touch costs are physics and are
    #: not scaled).
    bypass_stage_cost_scale: float = 0.5

    # ------------------------------------------------------------------
    # Adaptive interrupt moderation (DIM-style, net_dim.c in spirit)
    # ------------------------------------------------------------------
    #: Measurement epoch for the adaptive moderator: arrivals are counted
    #: per epoch and the coalescing window is re-tuned at each rollover.
    irq_mod_epoch_ns: int = 500_000
    #: Floor of the adaptive coalescing window (never moderate below).
    irq_mod_min_ns: int = 5_000
    #: Ceiling of the adaptive coalescing window.
    irq_mod_max_ns: int = 180_000
    #: Above this observed packet rate (pps) the window doubles — the
    #: link is busy enough that batching beats per-packet latency.
    irq_mod_up_pps: int = 150_000
    #: Below this observed packet rate the window halves — latency wins.
    irq_mod_down_pps: int = 50_000

    # ------------------------------------------------------------------
    # Per-stage per-packet costs (batched, warm cache)
    # ------------------------------------------------------------------
    #: Stage 1 (physical NIC driver): DMA ring dequeue, skb allocation,
    #: outer Ethernet/IPv4/UDP parsing, VXLAN decapsulation.
    nic_pkt_ns: int = 700
    #: Stage 2 (gro_cells / bridge): bridge input, FDB lookup, forwarding
    #: to the destination veth.
    bridge_pkt_ns: int = 450
    #: Stage 3 (backlog / veth): inner Ethernet/IPv4/UDP processing,
    #: socket lookup, enqueue to the receive buffer.
    veth_pkt_ns: int = 1_100
    #: Per-byte copy/touch cost charged at the final delivery stage
    #: (socket enqueue involves a data copy); float ns/byte.
    copy_per_byte_ns: float = 0.05
    #: Per-byte header/csum touch cost at non-copy stages; float ns/byte.
    touch_per_byte_ns: float = 0.005
    #: PRISM per-packet priority lookup at skb allocation (hash of the
    #: global IP/port database, §IV-A).
    priority_lookup_ns: int = 60
    #: GRO: attempting/performing a merge of one segment into a held skb.
    gro_merge_ns: int = 250

    # ------------------------------------------------------------------
    # Application / syscall boundary
    # ------------------------------------------------------------------
    #: Waking a user thread blocked in recv on the *same* core as the
    #: softirq (scheduler wakeup path).
    wakeup_same_core_ns: int = 1_500
    #: Waking a user thread on a *different* core (adds the IPI and
    #: cross-core scheduling latency the paper's §VII-2 discusses).
    wakeup_cross_core_ns: int = 3_500
    #: One recv/send syscall (user/kernel crossing + socket bookkeeping).
    syscall_ns: int = 1_000

    # ------------------------------------------------------------------
    # Transmit path (coarse — the paper's contribution is rx-only)
    # ------------------------------------------------------------------
    #: Per-packet egress cost on the sending core: socket send, qdisc,
    #: (for overlay) VXLAN encapsulation, driver tx.
    egress_pkt_ns: int = 1_800
    #: Per-byte egress cost (copy + DMA mapping); float ns/byte.
    egress_per_byte_ns: float = 0.02
    #: Per-segment slicing cost for a TSO large-send.
    tso_segment_ns: int = 150

    # ------------------------------------------------------------------
    # Testbed: wire and remote (client) machine
    # ------------------------------------------------------------------
    #: One-way wire latency between the two point-to-point hosts
    #: (propagation + NIC pipeline of a 100 GbE link).
    wire_latency_ns: int = 1_600
    #: Wire serialization rate in bytes/ns (100 Gbit/s = 12.5 bytes/ns).
    wire_bytes_per_ns: float = 12.5
    #: Fixed client-machine processing per request/reply (the remote
    #: machine is modelled coarsely; see DESIGN.md).
    client_overhead_ns: int = 4_000

    # ------------------------------------------------------------------
    # Power management (paper §V-B, Fig. 11)
    # ------------------------------------------------------------------
    #: C-state ladder: (entry threshold, exit latency) pairs, shallow to
    #: deep.  After an idle period of at least `threshold` ns the next
    #: wake-up pays the corresponding exit latency (deepest eligible
    #: state wins).  The paper caps the processor at C1, yet Fig. 11
    #: still shows a pronounced low-load latency hike from sleep/wake
    #: cycles (C1 halt exit, clock re-ramp, cold caches); the deep entry
    #: only engages at near-idle, which is what makes latency *improve*
    #: as background load rises toward 80-90 % CPU before the overload
    #: explosion.
    cstate_levels: tuple = ((20_000, 3_000), (150_000, 16_000))

    def replace(self, **changes: object) -> "CostModel":
        """Return a copy with the given fields changed."""
        return dataclasses.replace(self, **changes)

    # ------------------------------------------------------------------
    # Derived helpers (memoized)
    # ------------------------------------------------------------------
    # The helpers below sit on the per-packet hot path and are pure
    # functions of (model fields, arguments), so each instance memoizes
    # them.  Wire lengths come from a handful of fixed packet shapes per
    # experiment, so the tables stay tiny.  The caches are attached via
    # object.__setattr__ (frozen dataclass) and are not dataclass fields:
    # equality, hashing, repr, and serialization are unaffected, and
    # ``replace()`` builds a fresh instance with fresh caches.  Stage
    # costs are memoized per stage instead (:class:`StageCostTable`).
    def __post_init__(self) -> None:
        object.__setattr__(self, "_egress_cache", {})
        object.__setattr__(self, "_wire_cache", {})

    def stage_packet_cost(self, stage_base_ns: int, wire_len: int,
                          *, is_copy_stage: bool = False) -> int:
        """Per-packet cost of one stage for a packet of *wire_len* bytes."""
        per_byte = (self.copy_per_byte_ns if is_copy_stage
                    else self.touch_per_byte_ns)
        return int(stage_base_ns + per_byte * wire_len)

    def bypass_stage_base(self, stage_base_ns: int) -> int:
        """The discounted stage base the poll-mode driver pays.

        Only the fixed portion is scaled; callers still pass the result
        through :meth:`stage_packet_cost`, so the per-byte copy/touch
        component is charged in full.
        """
        return int(stage_base_ns * self.bypass_stage_cost_scale)

    def egress_cost(self, wire_len: int) -> int:
        """Per-packet egress cost for a packet of *wire_len* bytes."""
        cost = self._egress_cache.get(wire_len)
        if cost is None:
            cost = int(self.egress_pkt_ns + self.egress_per_byte_ns * wire_len)
            self._egress_cache[wire_len] = cost
        return cost

    def wire_time(self, wire_len: int) -> int:
        """One-way wire time: latency + serialization."""
        cost = self._wire_cache.get(wire_len)
        if cost is None:
            cost = int(self.wire_latency_ns + wire_len / self.wire_bytes_per_ns)
            self._wire_cache[wire_len] = cost
        return cost


class StageCostTable(dict):
    """``wire_len -> stage_packet_cost(base, wire_len)`` for one stage.

    A dict filled on first use: a stage's per-packet cost lookup is one
    subscript, answered in C for every wire length seen before.  Built by
    ``Kernel.stage_costs``, which fixes the stage's base.
    """

    __slots__ = ("model", "base_ns", "is_copy_stage")

    def __init__(self, model: CostModel, base_ns: int,
                 is_copy_stage: bool) -> None:
        super().__init__()
        self.model = model
        self.base_ns = base_ns
        self.is_copy_stage = is_copy_stage

    def __missing__(self, wire_len: int) -> int:
        cost = self[wire_len] = self.model.stage_packet_cost(
            self.base_ns, wire_len, is_copy_stage=self.is_copy_stage)
        return cost
