"""Smoke tests: every example script runs to completion.

The examples are user-facing documentation; a broken example is a broken
deliverable.  Each is executed in-process (fast paths where available)
with its module-level main().
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def load_example(name):
    path = EXAMPLES / name
    spec = importlib.util.spec_from_file_location(name.removesuffix(".py"),
                                                  path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_examples_directory_contents():
    names = {p.name for p in EXAMPLES.glob("*.py")}
    assert {"quickstart.py", "poll_order_trace.py",
            "memcached_tail_latency.py", "load_sweep.py",
            "multilevel_priorities.py", "stage_timeline.py",
            "fault_demo.py"} <= names


def test_poll_order_trace_runs(capsys):
    module = load_example("poll_order_trace.py")
    module.main()
    out = capsys.readouterr().out
    assert "eth" in out and "veth" in out
    assert "Fig. 6a" in out or "Vanilla" in out


def test_stage_timeline_runs(capsys):
    module = load_example("stage_timeline.py")
    module.main()
    out = capsys.readouterr().out
    assert "#" in out
    assert "prism-sync" in out


@pytest.mark.slow
@pytest.mark.faults
def test_fault_demo_runs(tmp_path, capsys):
    module = load_example("fault_demo.py")
    out = tmp_path / "fault_demo.report.json"
    module.main(str(out))
    stdout = capsys.readouterr().out
    assert "balanced=True" in stdout
    assert "gave_up=0" in stdout
    report = json.loads(out.read_text())
    assert report["conservation"]["residual"] == 0
    assert report["faulted"]["replies"] > 0


@pytest.mark.slow
def test_quickstart_runs(capsys):
    # 5 ms + 20 ms of simulated time instead of the shipped 50 ms +
    # 250 ms: the same three modes and traced run, a twelfth of the work.
    module = load_example("quickstart.py")
    module.main(duration_ns=20_000_000, warmup_ns=5_000_000)
    out = capsys.readouterr().out
    assert "vanilla" in out and "prism-sync" in out
    assert "prism-batch" in out and "(Fig. 4)" in out


@pytest.mark.slow
def test_load_sweep_runs(capsys):
    # 5 ms + 10 ms per cell instead of the shipped 40 ms + 200 ms.
    module = load_example("load_sweep.py")
    module.main(duration_ns=10_000_000, warmup_ns=5_000_000)
    out = capsys.readouterr().out
    assert "vanilla min/avg/p99 (us)" in out
    rows = [line.split() for line in out.splitlines()
            if line.split() and line.split()[0].isdigit()]
    assert [int(row[0]) for row in rows] == [
        bg // 1000 for bg in module.LOADS]
    assert "Fig. 11" in out


@pytest.mark.slow
def test_memcached_tail_latency_runs(capsys):
    # 5 ms + 10 ms per cell instead of the shipped 60 ms + 300 ms.
    module = load_example("memcached_tail_latency.py")
    module.main(duration_ns=10_000_000, warmup_ns=5_000_000)
    out = capsys.readouterr().out
    for label in ("vanilla/idle", "vanilla/busy", "prism-sync/idle",
                  "prism-sync/busy"):
        assert label in out
    assert "ops/s" in out and "Paper:" in out


@pytest.mark.slow
def test_multilevel_priorities_runs(capsys):
    # 5 ms + 10 ms per run instead of the shipped 50 ms + 250 ms.
    module = load_example("multilevel_priorities.py")
    module.main(duration_ns=10_000_000, warmup_ns=5_000_000)
    out = capsys.readouterr().out
    assert "binary (paper prototype)" in out and "widened" in out
    assert out.count("gold") >= 2 and out.count("silver") >= 2


def test_package_docstring_quick_start_runs():
    """The quick start in ``repro``'s docstring runs as written."""
    import doctest

    import repro

    failed, attempted = doctest.testmod(repro)
    assert attempted > 0
    assert failed == 0
