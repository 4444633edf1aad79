"""Smoke tests for the benchmark runner (quick windows; about 30 s).

Run from the repository root::

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SINGLE = "overlay-vanilla"
CLUSTER = "fattree-k4-2shard"
#: Per-layer metrics of layers that only the cluster workload exercises.
CLUSTER_ONLY = ("fabric.transit_calls", "fabric.transit_s", "fabric.packets",
                "overlay.wirefmt.encode_s", "overlay.wirefmt.decode_s",
                "overlay.wirefmt.rows", "shard.windows", "shard.wait_s",
                "shard.cross_sent")


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--quick",
         "--repeats", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def untraced() -> dict:
    return _result(_run("--workload", SINGLE, "--trace", "0"))


@pytest.fixture(scope="module")
def traced(tmp_path_factory) -> tuple:
    record = tmp_path_factory.mktemp("bench") / "run.json"
    result = _result(_run("--workload", SINGLE, "--workload", CLUSTER,
                          "--trace", "1", "--out", str(record)))
    return result, json.loads(record.read_text())


def _declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_spec_names_and_units_are_well_formed():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for kind in ("end_to_end", "per_layer")
              for m in SPEC[kind]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    units = [m["unit"] for kind in ("end_to_end", "per_layer")
             for m in SPEC[kind]]
    assert all(UNIT.fullmatch(unit) for unit in units)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())


def test_workloads_match_spec():
    sys.path.insert(0, str(HERE))
    import workloads

    assert list(workloads.WORKLOADS) == [w["name"]
                                         for w in SPEC["workloads"]]


def test_untraced_run_emits_exactly_the_end_to_end_metrics(untraced):
    assert untraced["correct"] is True
    assert untraced["failed"] == 0 and untraced["attempted"] >= 1
    emitted = {name: m["unit"] for name, m in untraced["metrics"].items()}
    assert emitted == _declared("end_to_end")
    assert all(m["value"] > 0 for m in untraced["metrics"].values())


def test_traced_run_emits_exactly_the_per_layer_metrics(traced):
    result, _ = traced
    assert result["correct"] is True
    for metrics in result["metrics"].values():
        emitted = {name: m["unit"] for name, m in metrics.items()}
        assert emitted == _declared("per_layer")
        shares = sum(m["value"] for name, m in metrics.items()
                     if name.endswith(".self_share"))
        assert shares == pytest.approx(1.0, abs=0.01)


def test_traced_run_is_digest_neutral(traced):
    _, record = traced
    for run in record["sets"][0].values():
        untraced = {raw["digest"] for raw in run["repeats"]}
        assert len(untraced) == 1
        assert set(run["trace"]["digests"]) == untraced


def test_cluster_layers_work_only_on_the_cluster(traced):
    result, _ = traced
    single, cluster = result["metrics"][SINGLE], result["metrics"][CLUSTER]
    for name in CLUSTER_ONLY:
        assert single[name]["value"] == 0, name
        assert cluster[name]["value"] > 0, name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
