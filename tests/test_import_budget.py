"""Import budget: building a benchmark shape loads only what it runs.

``tests/test_layering.py`` checks statically that the packet path never
imports a tracer subscriber.  This is its runtime complement.  In a fresh
interpreter it builds each of the four shapes ``perfbench/`` measures --
the three overlay cells through ``ExperimentCell`` and the k=4 fat-tree
through two in-process ``ShardWorker``\\ s -- and checks that

- no optional subsystem is in ``sys.modules`` once the shape is built:
  numpy, observability, telemetry, flow export, the batch runner and
  figure harness, the memcached/nginx models, the process-pool stack
  and, without a fault plan, the fault injector all load on first use;
- running a short window after the build imports no module at all, so
  no import lands inside a timed run;
- the whole run -- build, window, finalize and the measurement digest,
  as ``perfbench/`` takes them -- never loads numpy or the process-pool
  stack: the latency summaries use only the standard library, and the
  digest path leaves the fan-out's imports alone.

A last case checks that ``import repro`` alone loads none of the
datapath.

A failure names each offending module with the chain of modules that
imported it, innermost first.
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent

#: Never loaded by building a benchmark shape.
OPTIONAL = ("numpy", "repro.obs", "repro.telemetry", "repro.flows",
            "repro.bench.runner", "repro.bench.figures",
            "repro.apps.memcached", "repro.apps.webserver",
            "multiprocessing", "concurrent.futures", "sqlite3")

#: Never loaded by a whole measured run, finalize and digest included.
UNUSED = ("numpy", "multiprocessing", "concurrent.futures", "subprocess")

LOSSY = ("loss:eth:0.02; skbfail:0.01; retries=5; timeout=2ms; "
         "jitter=0")

#: shape -> (stack mode, fault plan); the perfbench workload names.
SHAPES = {
    "overlay-vanilla": ("vanilla", ""),
    "overlay-prism-sync": ("prism-sync", ""),
    "overlay-bypass-lossy": ("bypass", LOSSY),
    "fattree-k4-2shard": ("prism-sync", ""),
}

#: Runs in a fresh interpreter: argv is (shape, mode, faults).  A
#: meta-path finder that finds nothing notes which module imported each
#: new one; the modules loaded at build time, those added by the window
#: and those loaded once the result is finalized and digested come back
#: as JSON.
PROBE = r'''
import json
import sys

importer = {}


class Recorder:
    @staticmethod
    def find_spec(name, path=None, target=None):
        frame = sys._getframe(1)
        while frame is not None and frame.f_globals.get(
                "__name__", "").startswith("importlib"):
            frame = frame.f_back
        importer.setdefault(name, frame and frame.f_globals.get("__name__"))
        return None


sys.meta_path.insert(0, Recorder)
shape, mode, faults = sys.argv[1:]
MS = 1_000_000
from repro.prism.mode import StackMode

if shape.startswith("overlay"):
    import dataclasses

    from repro.bench.cell import ExperimentCell
    from repro.bench.experiment import ExperimentConfig
    from repro.faults.plan import FaultPlan

    plan = None
    if faults:
        plan = dataclasses.replace(FaultPlan.parse(faults), seed=1)
    cell = ExperimentCell(ExperimentConfig(
        mode=StackMode.parse(mode), network="overlay", fg_rate_pps=1_000,
        bg_rate_pps=300_000, bg_burst=96, warmup_ns=2 * MS,
        duration_ns=2 * MS, seed=1, faults=plan))
    built = set(sys.modules)
    cell.run_to(cell.end_ns)
    ran = set(sys.modules)
    result = cell.finalize()
    from repro.bench.runner import result_digest
    result_digest(result)
else:
    from repro.fabric.experiment import priority_survival_config
    from repro.shard.cluster import cluster_digest
    from repro.shard.executor import run_cluster
    from repro.shard.worker import ShardWorker

    seen = []
    post_step, finalize = ShardWorker.post_step, ShardWorker.finalize

    def first_post_step(self, horizon, inbox):
        if not seen:  # every worker is built
            seen.append(set(sys.modules))
        post_step(self, horizon, inbox)

    def first_finalize(self):
        if len(seen) == 1:  # every window has run
            seen.append(set(sys.modules))
        return finalize(self)

    ShardWorker.post_step = first_post_step
    ShardWorker.finalize = first_finalize
    result = run_cluster(priority_survival_config(
        StackMode.parse(mode), hosts=8, users=2_000, duration_ns=2 * MS,
        seed=1), shards=2, processes=False)
    built, ran = seen
    cluster_digest(result)
print(json.dumps({"built": sorted(built), "window": sorted(ran - built),
                  "done": sorted(sys.modules), "importer": importer}))
'''


@functools.lru_cache(maxsize=None)
def probe(shape: str) -> Dict[str, Any]:
    mode, faults = SHAPES[shape]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", PROBE, shape, mode, faults],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _chain(importer: Dict[str, str], module: str) -> str:
    links = [module]
    while importer.get(links[-1]) and importer[links[-1]] not in links:
        links.append(importer[links[-1]])
    return " <- ".join(links)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_build_loads_no_optional_subsystem(shape):
    out = probe(shape)
    optional = OPTIONAL
    if not SHAPES[shape][1]:
        optional += ("repro.faults.injector",)
    built = set(out["built"])
    leaks = [_chain(out["importer"], m) for m in optional if m in built]
    assert not leaks, f"{shape} loads:\n" + "\n".join(leaks)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_window_imports_nothing(shape):
    out = probe(shape)
    late = [_chain(out["importer"], m) for m in out["window"]]
    assert not late, f"{shape} imports inside its window:\n" + "\n".join(late)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_whole_run_loads_no_numpy_or_process_pool(shape):
    out = probe(shape)
    done = set(out["done"])
    leaks = [_chain(out["importer"], m) for m in UNUSED if m in done]
    assert not leaks, (f"{shape} loads after finalize and digest:\n"
                       + "\n".join(leaks))


def test_probe_sees_the_datapath():
    built = set(probe("overlay-prism-sync")["built"])
    for module in ("repro.kernel.core", "repro.netdev.nic",
                   "repro.apps.sockperf", "repro.bench.cell"):
        assert module in built


def test_import_repro_loads_no_datapath():
    """``import repro`` -- the first step of ``python -m repro --help``
    and of every spawned shard -- loads the package, ``StackMode`` and
    ``KernelConfig``, and none of the datapath."""
    code = ("import json, sys, repro; print(json.dumps(sorted("
            "m for m in sys.modules if m.split('.')[0] == 'repro')))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert len(loaded) <= 5, f"import repro loads {len(loaded)}: {loaded}"
