"""Golden digest tests for the packet-path fast lane.

The fast-path machinery (skb pooling, memoized costs, cached header
building, per-batch tracepoint gates) is a pure optimization: it must never
change a single byte of an :class:`ExperimentResult`.  These tests pin
that contract three ways:

1. **Pinned goldens** — the measurement digest
   (:func:`repro.bench.runner.result_digest`) of a canonical Fig. 11
   load-sweep cell for each stack mode and network type is hard-coded,
   one per cell: traced runs must match it too.  Any change to
   simulation semantics (intended or not) trips these and names the
   cell; a config that only *spells* the same scenario differently
   (explicit default knobs, flow export on) must not.  The digests are
   independent of ``PYTHONHASHSEED`` because results are aggregates,
   not raw object dumps.
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

import dataclasses
import hashlib
import json
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
from repro.flows.config import FlowExportConfig
from repro.kernel.config import KernelConfig
from repro.kernel.costs import CostModel
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


#: scenario -> (config, measurement digest).  The digest hashes
#: measurements only, so traced and untraced runs share it.
GOLD = {
    "overlay-vanilla": (
        _config(StackMode.VANILLA, "overlay"),
        "823f29c344f4c88c0a1f5aa4bc15134786d6a5c0bf7c643b4602893e7a5c12d8",
    ),
    "overlay-prism-batch": (
        _config(StackMode.PRISM_BATCH, "overlay"),
        "4191cc2ca1cad85c8fde2415f8dca8b12611c8edc04285683aa529739c349436",
    ),
    "overlay-prism-sync": (
        _config(StackMode.PRISM_SYNC, "overlay"),
        "ce524a705c3ad5810a8f1724df24cdf0cf27bd36641039feae9e9bcbb12cc17f",
    ),
    "host-vanilla": (
        _config(StackMode.VANILLA, "host"),
        "ce566ac6d32e3d6eb448e2f869dd29a9b93c5bedc67965df13ba4e8d3b5e41dd",
    ),
    "overlay-bypass-lossy": (
        _config(StackMode.BYPASS, "overlay", LOSSY),
        "4827a4a8ca57f5b753e658c2aeb26d2c323cb417e71743a499d01452b5d68413",
    ),
    "overlay-prism-sync-lossy": (
        _config(StackMode.PRISM_SYNC, "overlay", LOSSY),
        "bce281dfed672523c5f1715e264e0b99268fb19935bb489b384a502004486897",
    ),
}

SCENARIOS = sorted(GOLD)

#: scenario -> (sha256 of the traced run's metrics snapshot as sorted
#: JSON, sha256 of its OpenMetrics exposition).  Both are pure functions
#: of the simulated run, independent of ``PYTHONHASHSEED``.
METRICS_GOLD = {
    "host-vanilla": (
        "5eafff56ea851524c7d391e36d077c14ad525a344ecc34237385b9cd212e414d",
        "ecfacfa67e14f2f2ad10e0bb2834a996cf09792967835b60ea6efd6abbb38324"),
    "overlay-bypass-lossy": (
        "0f6c147c5d91e2068b2288a08fd73955e9f30e7a99c3ef48cfd5f2b75e821f40",
        "57c927acf78903a278810f0796a51eee67666c5bb134fee90b75070867ee02a5"),
    "overlay-prism-batch": (
        "71b26e76dc2f4fec2945347ab6f1261e8f9420c1de64b8277d91f423a2d476d5",
        "a7e6300f386c14bac80d064108628bcafb513f1533f2d84a7b260b1b50daa19c"),
    "overlay-prism-sync": (
        "4b58ad17a78d9886eedc4f3ac12ad5bc560a5b3a498d1b24cc2e3247173e220e",
        "18ba4c9f5650b1746388a31431aeea1630a99981ddaa77086070abb70f0fd086"),
    "overlay-prism-sync-lossy": (
        "835635704cdc05b1c3b197ce2a7d5fdb5ecdd7d2f55a9b89a9b1bc3e6e6f1788",
        "35b552921e284abcdd2442ff59ec6788d60b252145ccdedd0d25e9ee61d8bce8"),
    "overlay-vanilla": (
        "4c992820130ede95692c8bdba02245244d047da2c38558dfe937bdcb8462c544",
        "cc79f9e217f0523868a770339384bc0057ce6249591eaa0733616ec57d158509"),
}


def _disable_pool(testbed) -> None:
    testbed.server.kernel.skb_pool.enabled = False


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_untraced_digest_matches_golden(scenario):
    config, golden = GOLD[scenario]
    assert result_digest(run_experiment(config)) == golden


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_traced_digest_matches_golden(scenario, tmp_path):
    """Tracing only observes: the traced run measures the same, and the
    telemetry snapshot and span profile ride along outside the digest.
    The snapshot and its exposition are pinned too."""
    config, golden = GOLD[scenario]
    observed = run_traced_experiment(config)
    assert observed.result.telemetry is not None
    assert observed.observer.self_ns
    assert result_digest(observed.result) == golden
    snapshot = json.dumps(observed.result.telemetry, sort_keys=True)
    exposition = observed.write_openmetrics(tmp_path / "m.prom").read_bytes()
    assert (hashlib.sha256(snapshot.encode()).hexdigest(),
            hashlib.sha256(exposition).hexdigest()) == METRICS_GOLD[scenario]


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_pool_disabled_run_is_identical(scenario):
    """Recycled skbs carry zero observable state: pool off == pool on."""
    config, golden = GOLD[scenario]
    result = _run_experiment(config, attach=_disable_pool)
    assert result_digest(result) == golden


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_digest_ignores_config_spelling(scenario):
    """Explicit default knobs and flow export simulate the same thing,
    so they reproduce the golden although the config serializes
    differently."""
    config, golden = GOLD[scenario]
    respelled = dataclasses.replace(
        config, costs=CostModel(), kernel_config=KernelConfig(),
        flow_export=FlowExportConfig(sample_rate=1))
    result = run_experiment(respelled)
    assert result.flows is not None
    assert result_digest(result) == golden


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_digest_tracks_a_stage_cost(scenario):
    """A one-field cost change that moves latency samples moves the
    digest of the cell."""
    config, golden = GOLD[scenario]
    slower = dataclasses.replace(
        config, costs=CostModel().replace(nic_pkt_ns=800))
    assert result_digest(run_experiment(slower)) != golden


def test_traced_measurements_match_untraced():
    """Tracing only observes: the breakdown is added, the measurements
    (and so the digest) are the untraced run's."""
    config, golden = GOLD["overlay-vanilla"]
    traced = run_traced_experiment(config).result
    assert traced.stage_breakdown is not None
    assert result_digest(traced) == golden


def test_back_to_back_runs_are_identical():
    """Regression: per-experiment skb ids — no cross-run counter leak."""
    config, golden = GOLD["overlay-vanilla"]
    first = result_digest(run_experiment(config))
    second = result_digest(run_experiment(config))
    assert first == second == golden


def test_run_after_traced_run_is_identical():
    """A traced run leaves no state behind that skews the next run."""
    config, golden = GOLD["overlay-prism-batch"]
    run_traced_experiment(config)
    assert result_digest(run_experiment(config)) == golden
