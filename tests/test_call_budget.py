"""Python frames per packet on the benchmark's overlay cells stay bounded.

The simulator's pace is set by how much interpreter work each packet
costs, and a frame (a call, or a generator resume) is the unit of that
work.  This counts ``sys.settrace`` call events over 5 ms of simulated
time after warm-up, per packet, on the three overlay workloads of
``perfbench/`` (the Fig. 11 stress cell, seed 1): a deterministic check
that needs no timer and so cannot be fooled by machine load.

The bounds are upper bounds with headroom for interpreter versions.
Before the in-place clock charge and the plain-data packets, the counts
were about 131 / 121 / 122 frames per packet (prism-sync / vanilla /
bypass-lossy); after, about 64 / 63 / 75 on CPython 3.11.

The fat-tree workload gets the same check on a scaled-down cell (4
hosts, 2,500 users, 6 ms, prism-sync), counted per cross-host row over
every barrier window: about 74 frames per row while cross-host arrivals
and wake-ups were scheduled with a handle nobody kept, about 68.5 once
they were pushed directly.
"""

from __future__ import annotations

import dataclasses
import sys

import pytest

from repro.bench.cell import ExperimentCell
from repro.bench.experiment import ExperimentConfig
from repro.fabric.experiment import priority_survival_config
from repro.faults.plan import FaultPlan
from repro.prism.mode import StackMode
from repro.shard.executor import run_cluster
from repro.shard.worker import ShardWorker
from repro.sim.units import MS

SEED = 1
WARMUP_NS = 20 * MS
WINDOW_NS = 5 * MS
LOSSY = ("loss:eth:0.02; skbfail:0.01; retries=5; timeout=2ms; "
         "jitter=0")

#: workload -> (mode, fault plan, frames-per-packet bound)
BUDGETS = {
    "overlay-prism-sync": ("prism-sync", None, 85),
    "overlay-vanilla": ("vanilla", None, 85),
    "overlay-bypass-lossy": ("bypass", LOSSY, 95),
}


def stress_cell(mode: str, faults) -> ExperimentCell:
    """1 kpps fg ping-pong under a 300 kpps bg flood (seed 1 sizes)."""
    plan = None
    if faults is not None:
        plan = dataclasses.replace(FaultPlan.parse(faults), seed=SEED)
    return ExperimentCell(ExperimentConfig(
        mode=StackMode.parse(mode), network="overlay",
        fg_rate_pps=1_000, fg_payload_len=16, bg_rate_pps=300_000,
        bg_payload_len=32, bg_burst=96, warmup_ns=WARMUP_NS,
        duration_ns=2 * WINDOW_NS, seed=SEED, faults=plan))


def packets(cell: ExperimentCell) -> int:
    """Packets so far, as the benchmark counts them."""
    return cell.fg_meter.count + cell.bg_meter.count + cell.fg_client.sent


def frames_per_packet(cell: ExperimentCell) -> float:
    frames = 0

    def count(frame, event, arg):
        nonlocal frames
        if event == "call":
            frames += 1

    cell.run_to(WARMUP_NS)
    before = packets(cell)
    previous = sys.gettrace()
    sys.settrace(count)
    try:
        cell.run_to(WARMUP_NS + WINDOW_NS)
    finally:
        sys.settrace(previous)
    delivered = packets(cell) - before
    assert delivered > 1_000
    return frames / delivered


@pytest.mark.parametrize("workload", sorted(BUDGETS))
def test_frames_per_packet_within_budget(workload):
    mode, faults, budget = BUDGETS[workload]
    per_packet = frames_per_packet(stress_cell(mode, faults))
    assert per_packet <= budget, (
        f"{workload}: {per_packet:.1f} Python frames per packet "
        f"(budget {budget})")


#: Frames-per-cross-host-row bound for the fat-tree cell.
CLUSTER_BUDGET = 90


def test_cluster_frames_per_cross_row_within_budget(monkeypatch):
    """Counted from the first window to the finalize, so neither the
    build nor the merge's first-use imports are in the count."""
    frames = 0

    def count(frame, event, arg):
        nonlocal frames
        if event == "call":
            frames += 1

    post_step, finalize = ShardWorker.post_step, ShardWorker.finalize
    previous = sys.gettrace()

    def traced_post_step(self, horizon, inbox):
        if sys.gettrace() is not count:
            sys.settrace(count)
        post_step(self, horizon, inbox)

    def untraced_finalize(self):
        sys.settrace(previous)
        return finalize(self)

    monkeypatch.setattr(ShardWorker, "post_step", traced_post_step)
    monkeypatch.setattr(ShardWorker, "finalize", untraced_finalize)
    try:
        result = run_cluster(priority_survival_config(
            StackMode.PRISM_SYNC, hosts=4, users=2_500, duration_ns=6 * MS,
            seed=SEED), shards=1, processes=False)
    finally:
        sys.settrace(previous)
    rows = result.conservation["cross_sent"]
    assert rows > 10_000
    per_row = frames / rows
    assert per_row <= CLUSTER_BUDGET, (
        f"fattree-k4: {per_row:.1f} Python frames per cross-host row "
        f"(budget {CLUSTER_BUDGET})")
