"""Golden digest tests for the packet-path fast lane.

The fast-path machinery (skb pooling, memoized costs, cached header
building, per-batch tracepoint gates) is a pure optimization: it must never
change a single byte of an :class:`ExperimentResult`.  These tests pin
that contract three ways:

1. **Pinned goldens** — the digest of a canonical Fig. 11 load-sweep
   cell for each stack mode and network type is hard-coded.  Any change
   to simulation semantics (intended or not) trips these.  The digests
   are independent of ``PYTHONHASHSEED`` (verified across randomized
   and fixed-seed processes) because results are aggregates, not raw
   object dumps.
2. **Pool-off equivalence** — re-running with the skb free-list pool
   disabled (fresh ``SKBuff`` per packet, like the seed code) must give
   the identical digest, proving recycling reuses objects without
   leaking state between packets.
3. **Run-to-run isolation** — two back-to-back runs in one process are
   digest-identical, pinning the fix for the cross-experiment skb-id
   leak (ids are now allocated per-kernel by the pool, not from a
   process-global counter).
"""

from __future__ import annotations

from typing import Optional

import pytest

from repro.bench.experiment import (
    ExperimentConfig,
    _run_experiment,
    run_experiment,
    run_traced_experiment,
)
from repro.bench.runner import result_digest
from repro.faults.plan import FaultPlan
from repro.prism.mode import StackMode
from repro.sim.units import MS

#: Eth loss plus skb-alloc failure with client retries: pins the bypass
#: poll loop, retry-timer cancellation and the fault ledger.
LOSSY = "loss:eth:0.02; skbfail:0.01; retries=5; timeout=2ms; jitter=0"


def _config(mode: StackMode, network: str,
            faults: Optional[str] = None) -> ExperimentConfig:
    return ExperimentConfig(
        mode=mode, network=network, fg_rate_pps=2_000,
        bg_rate_pps=120_000.0, duration_ns=12 * MS, warmup_ns=3 * MS,
        faults=None if faults is None else FaultPlan.parse(faults))


#: scenario -> (untraced digest, traced digest).  Traced results differ
#: only by the appended ``stage_breakdown`` — the measurements match.
GOLD = {
    "overlay-vanilla": (
        _config(StackMode.VANILLA, "overlay"),
        "57bc8551582a7e3e31b3ab4694ce8a64f2820195e303d794c89c080b9a2d24c7",
        "1a29f457449dfcd385663e6490dcdce851946061be41bc604f6d14b003a36cd6",
    ),
    "overlay-prism-batch": (
        _config(StackMode.PRISM_BATCH, "overlay"),
        "67d4510e4ed4d5aef1c0a9b8e4c108e93221d805a4bd72a173c1ab09a6d8e19a",
        "911eaa87b9ab44fd1455fcbda3f3f6de9455cf4299137e7f7482c70bc2715f82",
    ),
    "overlay-prism-sync": (
        _config(StackMode.PRISM_SYNC, "overlay"),
        "e3b2216c1cfc8abc68ee89d53b9fb0e4c5b397fbd4d261972bf5eaae7096bd0a",
        "e27d810003be532272151bf94b8fa6961c0d5cbe7d05f270260f40f298bcb7d4",
    ),
    "host-vanilla": (
        _config(StackMode.VANILLA, "host"),
        "e46de6c5374ca2cffffb25d5d79946ea0478102db5f93c6f67d34734e0f8d7d1",
        "1f149719b54fbcecd5c93f6f7bca0083dc9c6f544c68404d3c3c8980e09d25fe",
    ),
    "overlay-bypass-lossy": (
        _config(StackMode.BYPASS, "overlay", LOSSY),
        "8bce13142904dfb53b0d31a5f42a83f513ef7a58ca89bccb87d0c67b03cd2980",
        "9da66d99ea6fbba9596c9dc32ff5a156802f82d57debac154bf93294050600db",
    ),
    "overlay-prism-sync-lossy": (
        _config(StackMode.PRISM_SYNC, "overlay", LOSSY),
        "db30bdbfdb2980f70e32227ebb94c809df6eb06f720a5797ff5efb9fac94093a",
        "7ee5902076fa25eb06282eb6b646052b4654b5a51494242f4a4b990a81b09227",
    ),
}

SCENARIOS = sorted(GOLD)


def _disable_pool(testbed) -> None:
    testbed.server.kernel.skb_pool.enabled = False


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_untraced_digest_matches_golden(scenario):
    config, untraced, _ = GOLD[scenario]
    assert result_digest(run_experiment(config)) == untraced


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_traced_digest_matches_golden(scenario):
    config, _, traced = GOLD[scenario]
    assert result_digest(run_traced_experiment(config).result) == traced


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_pool_disabled_run_is_identical(scenario):
    """Recycled skbs carry zero observable state: pool off == pool on."""
    config, untraced, _ = GOLD[scenario]
    result = _run_experiment(config, attach=_disable_pool)
    assert result_digest(result) == untraced


def test_traced_measurements_match_untraced():
    """Tracing only observes: measurements identical, breakdown added."""
    config, untraced, _ = GOLD["overlay-vanilla"]
    traced = run_traced_experiment(config).result
    traced.stage_breakdown = None
    assert result_digest(traced) == untraced


def test_back_to_back_runs_are_identical():
    """Regression: per-experiment skb ids — no cross-run counter leak."""
    config, untraced, _ = GOLD["overlay-vanilla"]
    first = result_digest(run_experiment(config))
    second = result_digest(run_experiment(config))
    assert first == second == untraced


def test_run_after_traced_run_is_identical():
    """A traced run leaves no state behind that skews the next run."""
    config, untraced, _ = GOLD["overlay-prism-batch"]
    run_traced_experiment(config)
    assert result_digest(run_experiment(config)) == untraced
