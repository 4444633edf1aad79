"""End-to-end packet-conservation grid: every fault family, in every
stack mode, through the real experiment pipeline, must balance exactly.

The invariant ``injected == delivered + dropped(by site) + in_flight``
is the subsystem's correctness anchor: a leak anywhere in the kernel
path (an unaccounted drop, a double-counted retransmit) fails loudly
with per-site detail.  Most plans drop before the modes diverge (eth,
wire, skb allocation); the lost-IRQ cells, the overload cell and the
stage-queue cells reach the places where they differ — interrupt-driven
vs polled rings, a ring overflow that depends on how fast each mode
drains it, and overflows of the per-stage queues the stage hand-off
enqueues to.
"""

import itertools

import pytest

from repro.bench.experiment import ExperimentConfig, run_experiment
from repro.faults import FaultPlan
from repro.kernel.config import KernelConfig
from repro.prism.mode import StackMode
from repro.sim.units import MS

pytestmark = pytest.mark.faults

FAST = dict(duration_ns=40 * MS, warmup_ns=10 * MS,
            fg_rate_pps=2_000, bg_rate_pps=50_000)

SPECS = [
    "loss:eth:0.05; retries=5; timeout=2ms",
    "loss:wire:0.03; retries=5; timeout=2ms",
    "skbfail:0.02; retries=5; timeout=2ms",
    "burst@25ms x2; retries=5; timeout=2ms",
    "loss:wire:0.03; flap@10ms+2ms; retries=5; timeout=2ms",
    "irqloss:0.05; retries=5; timeout=2ms",
]
#: Plans that lose packets for good, so the client must retry.  A burst
#: is instantaneous — whether it catches a foreground ping in flight
#: depends on the mode's timing — and a lost IRQ only delays packets.
LOSSY = ("loss:", "skbfail:")
MODES = [StackMode.VANILLA, StackMode.PRISM_SYNC, StackMode.BYPASS]


def cell_id(value):
    """A grid cell's fault clauses, without the shared retry settings."""
    return "; ".join(clause.strip() for clause in str(value).split(";")
                     if not clause.strip().startswith(("retries=",
                                                       "timeout=")))


#: Every fault family in every mode under the sockperf ping-pong, plus
#: one memcached cell: memaslap's TCP requests retried over lossy eth.
GRID = [pytest.param(spec, mode, "pingpong", id=f"{cell_id(spec)}-{mode}")
        for spec, mode in itertools.product(SPECS, MODES)]
GRID.append(pytest.param(SPECS[0], StackMode.VANILLA, "memcached",
                         id=f"{cell_id(SPECS[0])}-vanilla-memcached"))


@pytest.mark.slow
@pytest.mark.parametrize("spec,mode,fg", GRID)
def test_conservation_holds_under_fault(spec, mode, fg):
    fast = dict(FAST)
    if fg == "memcached":
        del fast["fg_rate_pps"]  # memaslap sets its own request pattern
    config = ExperimentConfig(mode=mode, fg_kind=fg,
                              faults=FaultPlan.parse(spec), **fast)
    result = run_experiment(config)
    conservation = result.conservation
    assert conservation is not None
    _balanced_exactly(conservation)
    # The fault actually fired (the grid is not vacuous) — except a
    # lost IRQ under poll-mode bypass, which takes no interrupts...
    if not (spec.startswith("irqloss") and mode is StackMode.BYPASS):
        assert sum(result.fault_summary["forced"].values()) > 0
    # ...and the foreground client recovered through it.
    recovery = result.recovery
    if spec.startswith(LOSSY):
        assert recovery["retries_total"] > 0
    assert recovery["gave_up"] == 0
    # Every client matches each request to at most one reply.
    assert 0 < result.fg_replies <= result.fg_sent


def _balanced_exactly(conservation):
    assert conservation["balanced"], conservation
    assert conservation["residual"] == 0
    assert conservation["injected"] == (
        conservation["delivered"] + conservation["dropped"]
        + conservation["in_processing"] + conservation["queued"])
    assert conservation["dropped"] == sum(
        conservation["dropped_by_site"].values())


@pytest.mark.slow
def test_overload_drops_depend_on_the_mode():
    """A 600 kpps flood overflows the rx ring at rates that depend on
    how fast each mode drains it; the ledger must balance in every mode
    and the per-site drops must tell the modes apart."""
    spec = "loss:eth:0.02; retries=5; timeout=2ms"
    drops = {}
    for mode in MODES:
        config = ExperimentConfig(
            mode=mode, faults=FaultPlan.parse(spec),
            **dict(FAST, bg_rate_pps=600_000))
        conservation = run_experiment(config).conservation
        _balanced_exactly(conservation)
        drops[mode] = conservation["dropped_by_site"]
    assert any(by_site.get("eth:ring") for by_site in drops.values()), drops
    distinct = {tuple(sorted(by_site.items())) for by_site in drops.values()}
    assert len(distinct) == len(MODES), drops


#: Stage queues smaller than the batch that feeds them: a 64-skb NIC
#: batch overflows the 16-deep gro_cells queue, and a 16-skb gro_cells
#: batch the 4-deep backlog.
SMALL_QUEUES = KernelConfig(backlog_capacity=4, napi_queue_capacity=16)


@pytest.mark.slow
@pytest.mark.parametrize("mode", [StackMode.VANILLA, StackMode.PRISM_BATCH,
                                  StackMode.PRISM_SYNC, StackMode.BYPASS],
                         ids=str)
def test_conservation_holds_at_stage_queue_overflow(mode):
    """Overflow drops at the stage queues (the hand-off's drop-and-recycle
    branch) balance exactly; bypass has no stage queues to overflow."""
    config = ExperimentConfig(
        mode=mode, kernel_config=SMALL_QUEUES,
        faults=FaultPlan.parse("loss:eth:0.02; retries=5; timeout=2ms"),
        **FAST)
    result = run_experiment(config)
    conservation = result.conservation
    _balanced_exactly(conservation)
    by_site = conservation["dropped_by_site"]
    if mode is StackMode.BYPASS:
        assert not any(site.startswith(("backlog:", "br:"))
                       for site in by_site), by_site
    else:
        assert by_site.get("backlog:cpu0:low", 0) > 0, by_site
        assert by_site.get("br:low", 0) > 0, by_site
    assert result.recovery["gave_up"] == 0
    assert result.fg_replies > 0


@pytest.mark.slow
def test_loss_free_run_reports_no_fault_fields():
    result = run_experiment(ExperimentConfig(**FAST))
    assert result.fault_summary is None
    assert result.conservation is None
    assert result.recovery is None


@pytest.mark.slow
def test_faulted_result_round_trips():
    config = ExperimentConfig(
        faults=FaultPlan.parse("loss:eth:0.05; retries=5; timeout=2ms"),
        **FAST)
    result = run_experiment(config)
    from repro.bench.experiment import ExperimentResult
    clone = ExperimentResult.from_dict(result.to_dict(), result.config)
    assert clone.conservation == result.conservation
    assert clone.recovery == result.recovery
    assert clone.fault_summary == result.fault_summary
