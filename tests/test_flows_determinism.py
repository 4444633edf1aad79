"""Flow export's two determinism contracts, pinned end to end.

1. **Export only observes.**  With export on, the measurements (and
   so the measurement digests, which hash neither config nor flow
   records) are identical to an export-free run — sampling observes, it
   never perturbs.

2. **On ⇒ reproducible.**  The merged record set (order-normalized,
   pinned by ``flows["record_digest"]``) is identical at shards 1/2/4,
   for in-process vs subprocess workers, under any ``PYTHONHASHSEED``,
   and lands byte-identically through the JSONL and SQLite sinks.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench.digest import jsonable
from repro.bench.experiment import ExperimentConfig, run_experiment
from repro.bench.runner import result_digest
from repro.flows import FlowExportConfig, export_flows, flow_record_digest
from repro.flows.query import load_records
from repro.prism.mode import StackMode
from repro.shard import ClusterConfig, cluster_digest, run_cluster
from repro.sim.units import MS

#: Short timeouts so idle/active expiry and the final flush all fire
#: inside a small test window.
FLOWS = FlowExportConfig(sample_rate=4, max_flows=256,
                         active_timeout_ns=4 * MS, idle_timeout_ns=1 * MS)


def _cluster(**overrides) -> ClusterConfig:
    knobs = dict(hosts=4, users=200, duration_ns=8 * MS, warmup_ns=2 * MS,
                 timeout_ns=5 * MS, flow_export=FLOWS)
    knobs.update(overrides)
    return ClusterConfig(**knobs)


def _fat_tree(**overrides) -> ClusterConfig:
    from repro.fabric.spec import Topology

    spec = Topology.fat_tree(4, hosts=4)
    return _cluster(topology=spec, **overrides)


# ----------------------------------------------------------------------
# Contract 1: export off/on never changes the simulation
# ----------------------------------------------------------------------
def test_export_off_writes_none_config_key():
    assert jsonable(_cluster(flow_export=None))["flow_export"] is None
    assert jsonable(ExperimentConfig())["flow_export"] is None


def test_export_off_result_omits_flows():
    result = run_cluster(_cluster(flow_export=None), shards=1)
    assert result.flows is None
    assert result.to_dict()["flows"] is None


def test_cluster_digest_identical_with_export_on():
    off = run_cluster(_cluster(flow_export=None), shards=1)
    on = run_cluster(_cluster(), shards=1)
    # The digest hashes measurements, not the config that differs.
    assert cluster_digest(off) == cluster_digest(on)


def test_experiment_digest_identical_with_export_on():
    config = ExperimentConfig(mode=StackMode.VANILLA, bg_rate_pps=120_000.0,
                              duration_ns=8 * MS, warmup_ns=2 * MS)
    off = run_experiment(config)
    on = run_experiment(dataclasses.replace(config, flow_export=FLOWS))
    assert result_digest(off) == result_digest(on)
    assert on.flows["record_count"] > 0


def test_golden_digest_unchanged_by_flows_machinery():
    """The pinned fastpath golden still holds — the always-on parts of
    the flows wiring (attribute checks on the packet path) are free."""
    from tests.test_fastpath_golden import GOLD

    config, golden = GOLD["overlay-vanilla"]
    assert result_digest(run_experiment(config)) == golden


# ----------------------------------------------------------------------
# Contract 2: record set independent of execution shape
# ----------------------------------------------------------------------
def test_records_identical_across_shard_counts():
    digests = {
        shards: run_cluster(_cluster(), shards=shards,
                            processes=False).flows["record_digest"]
        for shards in (1, 2, 4)}
    assert len(set(digests.values())) == 1, digests


def test_records_identical_subprocess_vs_in_process():
    config = _cluster()
    in_proc = run_cluster(config, shards=2, processes=False)
    sub_proc = run_cluster(config, shards=2, processes=True)
    assert in_proc.flows["record_digest"] == \
        sub_proc.flows["record_digest"]
    assert in_proc.flows["records"] == sub_proc.flows["records"]


def test_fat_tree_records_identical_and_cover_links():
    config = _fat_tree()
    one = run_cluster(config, shards=1)
    two = run_cluster(config, shards=2, processes=False)
    assert cluster_digest(one) == cluster_digest(two)
    assert one.flows["record_digest"] == two.flows["record_digest"]
    assert "fabric" in one.flows["scopes"]
    link_sites = {site
                  for record in one.flows["records"]
                  for site in record["sites"] if site.startswith("link:")}
    assert link_sites, "fabric collector produced no link sites"


_OVERLAY_RECORD_DIGEST = """
from repro.bench.experiment import ExperimentConfig, run_experiment
from repro.flows import FlowExportConfig
from repro.sim.units import MS
config = ExperimentConfig(bg_rate_pps=50_000.0, duration_ns=4 * MS,
                          warmup_ns=1 * MS,
                          flow_export=FlowExportConfig(sample_rate=1))
print(run_experiment(config).flows["record_digest"])
"""


def test_overlay_records_independent_of_hash_seed():
    """The VXLAN outer source port is part of the ``eth:ring`` records'
    flow identity; it must come from a process-stable hash."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    digests = set()
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", _OVERLAY_RECORD_DIGEST],
                             env=env, capture_output=True, text=True,
                             timeout=120, check=True)
        digests.add(out.stdout.strip())
    assert len(digests) == 1, digests


def test_records_reproducible_and_seed_sensitive():
    base = run_cluster(_cluster(), shards=1)
    again = run_cluster(_cluster(), shards=1)
    other = run_cluster(_cluster(seed=7), shards=1)
    assert base.flows["record_digest"] == again.flows["record_digest"]
    assert base.flows["record_digest"] != other.flows["record_digest"]


def test_expiry_reasons_exercised():
    flows = run_cluster(_cluster(), shards=1).flows
    reasons = {record["reason"] for record in flows["records"]}
    assert "idle" in reasons or "active" in reasons, reasons
    assert flows["cache"]["folded"] == flows["sampler"]["sampled"]


def test_sink_backends_byte_identical(tmp_path):
    flows = run_cluster(_cluster(), shards=1).flows
    export_flows(flows, tmp_path / "run.jsonl")
    export_flows(flows, tmp_path / "run.sqlite")
    jsonl = load_records(tmp_path / "run.jsonl")
    sqlite = load_records(tmp_path / "run.sqlite")
    assert flow_record_digest(jsonl) == flows["record_digest"]
    assert flow_record_digest(sqlite) == flows["record_digest"]


def test_result_to_dict_carries_summary_not_records():
    result = run_cluster(_cluster(), shards=1)
    block = result.to_dict()["flows"]
    assert "records" not in block
    assert block["record_digest"] == result.flows["record_digest"]
    assert block["record_count"] == len(result.flows["records"])
