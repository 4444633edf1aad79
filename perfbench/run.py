#!/usr/bin/env python3
"""The repository benchmark: four workloads, seven end-to-end metrics.

Run from the repository root::

    python3 perfbench/run.py [--workload W] [--seed N] [--repeats 3]
                             [--seconds S] [--trace [0|1]] [--sets 2]
                             [--quick] [--out FILE]

Every set-up and every measured repeat runs in a fresh interpreter (this
file, re-invoked with ``--child``), which imports ``repro`` from ``src/``.
The untraced repeats give the end-to-end metrics; ``--trace`` adds one
traced run that gives the per-layer metrics and its own overhead.  Metric
names, units and regression bounds are declared in ``BENCHMARK.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted`` (child runs started), ``failed`` (child runs
that crashed or timed out) and ``metrics``: the end-to-end metrics, or with
``--trace`` the per-layer ones, each as ``{"value": ..., "unit": ...}``.
With more than one workload, ``metrics`` maps each workload to its dict.
The exit status is non-zero when a run fails or a correctness check does.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

import workloads
from layers import PACKAGES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
DEFAULT_OUT_DIR = HERE / "out"

#: Fresh-interpreter set-ups per workload run, for the setup_s median.
SETUP_REPEATS = 5
QUICK_SETUP_REPEATS = 2
#: One workload run (set-ups, repeats, trace) must end within this.
RUN_DEADLINE_S = 170.0
#: Extra set-up-only rounds --sets may add when setup_s does not agree.
SETUP_TOP_UPS = 3


# ----------------------------------------------------------------------
# Child side
# ----------------------------------------------------------------------
def child_main(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(SRC))
    workload = workloads.WORKLOADS[args.workload]
    if args.child == "setup":
        out = workloads.setup(workload, args.seed, args.quick)
    elif args.child == "measure":
        out = workloads.measure(workload, args.seed, args.quick)
    else:
        out = workloads.trace(workload, args.seed, args.quick,
                              Path(args.trace_dir))
    print(json.dumps(out))
    return 0


# ----------------------------------------------------------------------
# Orchestrator side
# ----------------------------------------------------------------------
@dataclass
class WorkloadRun:
    """Everything the child runs of one workload returned."""

    name: str
    cluster: bool
    setups: List[Dict[str, Any]] = field(default_factory=list)
    repeats: List[Dict[str, Any]] = field(default_factory=list)
    trace: Optional[Dict[str, Any]] = None
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)


def spawn(run: WorkloadRun, mode: str, args: argparse.Namespace,
          deadline: float) -> Optional[Dict[str, Any]]:
    """Run one child interpreter; its JSON, or None (error recorded)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--child", mode,
           "--workload", run.name, "--seed", str(args.seed),
           "--trace-dir", str(args.trace_dir)]
    if args.quick:
        cmd.append("--quick")
    run.attempted += 1
    started = time.monotonic()
    timeout = max(1.0, deadline - started)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        run.failed += 1
        run.errors.append(f"{mode} run did not finish within {timeout:.0f} s")
        return None
    if proc.returncode != 0:
        run.failed += 1
        tail = (proc.stderr.strip().splitlines() or ["(no stderr)"])[-1]
        run.errors.append(f"{mode} run exited {proc.returncode}: {tail}")
        return None
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if "setup_end" in out:
        out["setup_s"] = out.pop("setup_end") - started
    out["wall_s"] = time.monotonic() - started
    return out


def run_workload(name: str, cluster: bool,
                 args: argparse.Namespace) -> WorkloadRun:
    """Set-ups, measured repeats and (with --trace) the traced run."""
    run = WorkloadRun(name, cluster)
    deadline = time.monotonic() + RUN_DEADLINE_S
    for _ in range(QUICK_SETUP_REPEATS if args.quick else SETUP_REPEATS):
        raw = spawn(run, "setup", args, deadline)
        if raw is not None:
            run.setups.append(raw)
    measured_s = 0.0
    while True:
        raw = spawn(run, "measure", args, deadline)
        if raw is None:
            break
        run.repeats.append(raw)
        measured_s += raw["window_s"]
        if args.seconds is None:
            if len(run.repeats) >= args.repeats:
                break
        elif measured_s >= args.seconds:
            break
        # Another repeat must fit, with room left for the traced run.
        need = raw["wall_s"] * (4 if args.trace else 1.5)
        if time.monotonic() + need > deadline:
            break
    if args.trace and run.repeats:
        run.trace = spawn(run, "trace", args, deadline)
    return run


def _median(values) -> float:
    return statistics.median(list(values))


def repeat_metrics(raw: Dict[str, Any], cluster: bool) -> Dict[str, float]:
    """The end-to-end metrics of one measured repeat."""
    pkts_per_s = workloads.pace(raw["chunk_pkts_per_s"])
    if cluster:
        packets, replies = raw["cross_sent"], raw["replies"]
        fail_ratio = (raw["sent"] - raw["replies"]) / raw["sent"]
    else:
        packets, replies = raw["packets"], raw["fg_samples"]
        fail_ratio = (raw["fg_sent"] - raw["fg_replies"]) / raw["fg_sent"]
    return {
        "sim_pkts_per_s": pkts_per_s,
        # The same pace, counted in replies: the run's replies per packet.
        "replies_per_s": pkts_per_s * replies / packets,
        "setup_s": raw["setup_s"],
        "peak_rss_mb": raw["peak_rss_mb"],
        "fg_p50_us": raw["fg_p50_us"],
        "fg_p99_us": raw["fg_p99_us"],
        "fail_ratio": fail_ratio,
    }


def metric_samples(run: WorkloadRun) -> Dict[str, List[float]]:
    """Per-repeat samples of every end-to-end metric.

    setup_s also takes every set-up-only run.
    """
    per_repeat = [repeat_metrics(raw, run.cluster) for raw in run.repeats]
    samples = {name: [m[name] for m in per_repeat] for name in per_repeat[0]}
    samples["setup_s"] = [raw["setup_s"] for raw in run.setups] + \
        samples["setup_s"]
    return samples


def end_to_end(run: WorkloadRun) -> Dict[str, float]:
    return {name: _median(values)
            for name, values in metric_samples(run).items()}


#: Fig. 4 stages of the overlay receive path (simulated mean ns each).
STAGES = ("ring", "eth", "br", "veth", "socket")

#: Cluster-only per-layer metric -> key of the traced cluster run; these
#: read 0 on the single-host workloads, where those layers do no work.
CLUSTER_LAYER = {
    "fabric.transit_calls": "transit_calls",
    "fabric.transit_s": "transit_s",
    "fabric.packets": "fabric_packets",
    "fabric.flowlet_rehashes": "flowlet_rehashes",
    "fabric.paths_used_max": "paths_used_max",
    "overlay.wirefmt.encode_s": "encode_s",
    "overlay.wirefmt.decode_s": "decode_s",
    "overlay.wirefmt.rows": "wire_rows",
    "shard.windows": "windows",
    "shard.windows_empty": "windows_empty",
    "shard.wait_s": "wait_s",
    "shard.wait_p50_us": "wait_p50_us",
    "shard.wait_p99_us": "wait_p99_us",
    "shard.cross_sent": "cross_sent",
    "apps.timed_out": "timed_out",
    "apps.late_replies": "late_replies",
}


def per_layer(run: WorkloadRun) -> Dict[str, float]:
    """Per-layer metrics: the traced run, plus the untraced medians."""
    t = run.trace
    untraced_pace = _median(workloads.pace(raw["chunk_pkts_per_s"])
                            for raw in run.repeats)
    out = {f"{name}.self_share": t["shares"][name]
           for name in PACKAGES + ("other",)}
    packets = t["cross_sent"] if run.cluster else t["packets"]
    out.update({
        "sim.events": t["events"],
        "sim.events_per_pkt": t["events"] / packets,
        "sim.run_window_s": _median(raw["window_s"] for raw in run.repeats),
        "prism.classify_calls": t["classify_calls"],
        "prism.classify_s": t["classify_s"],
        "fastpath.skb_allocs": t["skb_allocs"],
        "fastpath.skb_reuse_ratio": t["skb_reuse_ratio"],
        "bench.import_s": _median(raw["import_s"]
                                  for raw in run.setups + run.repeats),
        "bench.build_s": _median(raw["build_s"]
                                 for raw in run.setups + run.repeats),
        "bench.trace_overhead":
            untraced_pace / workloads.pace(t["chunk_pkts_per_s"]) - 1.0,
        "kernel.cpu_util": t["cpu_util"],
        "kernel.softirq_fraction": t["softirq_fraction"],
        "apps.fg_samples": t["fg_samples"],
    })
    out.update({name: t[key] if run.cluster else 0
                for name, key in CLUSTER_LAYER.items()})
    out["kernel.drops"] = sum(t["drops"].values())
    if run.cluster:
        out["shard.parallel_speedup"] = (out["sim.run_window_s"]
                                         / t["subprocess_run_s"])
        stages = {}
    else:
        out["shard.parallel_speedup"] = 0.0
        stages = t["stages"]
    for stage in STAGES:
        out[f"netdev.stage.{stage}.mean_ns"] = stages.get(stage, 0.0)
    conservation = t.get("conservation", {})
    for key in ("injected", "delivered", "dropped"):
        out[f"faults.{key}"] = conservation.get(key, 0)
    recovery = t.get("recovery", {})
    for metric, key in (("retries", "retries_total"),
                        ("timeouts", "timeouts_total"),
                        ("gave_up", "gave_up"), ("duplicates", "duplicates")):
        out[f"apps.{metric}"] = recovery.get(key, 0)
    return out


def check(run: WorkloadRun, quick: bool) -> List[str]:
    """Correctness checks; each failure names the check."""
    failures = list(run.errors)
    if not run.repeats:
        return failures or ["no measured repeat finished"]
    digests = {raw["digest"] for raw in run.repeats}
    if len(digests) != 1:
        failures.append(f"repeat digests differ: {sorted(digests)}")
    runs = list(run.repeats)
    if run.trace is not None:
        runs.append(run.trace)
        for digest in run.trace["digests"]:
            if digest not in digests:
                failures.append(f"traced digest {digest[:12]} differs from "
                                f"untraced {sorted(digests)[0][:12]}")
        required = (workloads.CLUSTER_SPANS if run.cluster
                    else workloads.OVERLAY_SPANS)
        for name in required:
            if not run.trace["spans"].get(name):
                failures.append(f"wrapped entry point {name} never fired")
        shares = sum(run.trace["shares"].values())
        if not run.trace["samples"] or abs(shares - 1.0) > 0.01:
            failures.append(f"self shares sum to {shares:.4f} over "
                            f"{run.trace['samples']} samples")
        if run.cluster:
            if run.trace["traced_windows"] != run.trace["windows"]:
                failures.append(
                    f"wait_step wrapper saw {run.trace['traced_windows']} "
                    f"windows, the run had {run.trace['windows']}")
            if run.trace["wait_rows"] != run.trace["cross_sent"]:
                failures.append(
                    f"wait_step wrapper saw {run.trace['wait_rows']} rows, "
                    f"the shards sent {run.trace['cross_sent']}")
    minimum = workloads.min_fg_samples(quick)
    for raw in runs:
        if raw["fg_samples"] < minimum:
            failures.append(f"{raw['fg_samples']} fg samples < {minimum}")
        if run.cluster and not raw["exact"]:
            failures.append("cluster conservation is not exact")
        if "clock_rows" in raw and raw["clock_rows"] != raw["cross_sent"]:
            failures.append(f"window clock saw {raw['clock_rows']} rows, "
                            f"the shards sent {raw['cross_sent']}")
        if "conservation" in raw and not raw["conservation"]["balanced"]:
            failures.append("fault ledger is not balanced")
    return failures


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def load_spec() -> Dict[str, Any]:
    with SPEC_PATH.open() as fh:
        return json.load(fh)


def tagged(values: Dict[str, float],
           declared: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """``{name: {value, unit}}`` in declared order; names must match."""
    names = [m["name"] for m in declared]
    if set(values) != set(names):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(names) - set(values))}, undeclared "
            f"{sorted(set(values) - set(names))}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared}


def print_metrics(title: str, metrics: Dict[str, Dict[str, Any]],
                  notes: Dict[str, str]) -> None:
    print(f"  {title}")
    for name, metric in metrics.items():
        note = notes.get(name, "")
        print(f"    {name:<30} {metric['value']:>14.6g} {metric['unit']}"
              f"{note}")


def quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, _median(values), q3


def compare_sets(sets: List[Dict[str, WorkloadRun]], spec: Dict[str, Any],
                 args: argparse.Namespace) -> None:
    """Per (metric, workload): each set's median and quartiles, a verdict.

    A setup_s pair that does not agree gets cheap set-up-only repeats,
    alternately added to each set, before the verdict stands.
    """
    print("\n== set agreement (median [q1, q3] per set; verdict vs bound) ==")
    for name in sets[0]:
        runs = [s[name] for s in sets]
        for top_up in range(SETUP_TOP_UPS + 1):
            stats = {}
            for metric in spec["end_to_end"]:
                per_set = [metric_samples(run)[metric["name"]]
                           for run in runs]
                qs = [quartiles(values) for values in per_set]
                base = qs[0][1]
                spread = max(abs(q[1] - base) for q in qs)
                agree = spread <= metric["bound"] * abs(base)
                stats[metric["name"]] = (qs, agree, metric["bound"])
            if stats["setup_s"][1] or top_up == SETUP_TOP_UPS:
                break
            for run in runs:
                deadline = time.monotonic() + RUN_DEADLINE_S
                for _ in range(SETUP_REPEATS):
                    raw = spawn(run, "setup", args, deadline)
                    if raw is not None:
                        run.setups.append(raw)
        print(f"  {name}")
        for metric, (qs, agree, bound) in stats.items():
            cells = "  ".join(f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"
                              for q in qs)
            verdict = "agree" if agree else "unresolved"
            print(f"    {metric:<16} {cells}  bound {bound:.0%}: {verdict}")


def git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def write_record(path: Path, args: argparse.Namespace,
                 sets: List[Dict[str, WorkloadRun]],
                 failures: Dict[str, List[str]]) -> None:
    """One JSON per invocation: machine, settings and every raw sample."""
    record = {
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.platform(),
        "seed": args.seed,
        "quick": args.quick,
        "trace": bool(args.trace),
        "seconds": args.seconds,
        "failures": failures,
        "sets": [{name: {
            "samples": metric_samples(run) if run.repeats else {},
            "setups": run.setups,
            "repeats": run.repeats,
            "trace": run.trace,
            "trace_files": run.trace["files"] if run.trace else [],
        } for name, run in runs.items()} for runs in sets],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the repository benchmark (see perfbench/README.md).")
    parser.add_argument("--workload", action="append",
                        help="workload name (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=3,
                        help="measured repeats per workload (without "
                             "--seconds)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measure repeats until this much window time "
                             "is measured (at least one repeat)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="add a traced run and report per-layer metrics")
    parser.add_argument("--sets", type=int, default=1,
                        help="full sets of runs, alternating workload order")
    parser.add_argument("--quick", action="store_true",
                        help="short windows for smoke tests; never for claims")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the run record (raw samples) here")
    parser.add_argument("--trace-dir", default=str(DEFAULT_OUT_DIR),
                        help="directory for trace and profile files")
    parser.add_argument("--child", choices=("setup", "measure", "trace"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        args.workload = args.workload[0]
        return child_main(args)

    if not (SRC / "repro").is_dir() or not SPEC_PATH.is_file():
        print(f"perfbench: run from a checkout holding src/repro and "
              f"BENCHMARK.json (looked in {ROOT})", file=sys.stderr)
        return 2
    spec = load_spec()
    names = args.workload or list(workloads.WORKLOADS)
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from "
                     f"{list(workloads.WORKLOADS)}")
    if args.repeats < 1 or args.sets < 1:
        parser.error("--repeats and --sets must be at least 1")

    print(f"perfbench: seed {args.seed}, nproc {os.cpu_count()}, "
          f"python {platform.python_version()}"
          f"{', quick' if args.quick else ''}{', traced' if args.trace else ''}")
    sets: List[Dict[str, WorkloadRun]] = []
    for index in range(args.sets):
        order = names if index % 2 == 0 else names[::-1]
        runs = {}
        for name in order:
            runs[name] = run_workload(
                name, workloads.WORKLOADS[name].cluster, args)
        sets.append({name: runs[name] for name in names})
    if args.sets > 1 and all(s[n].repeats for s in sets for n in names):
        compare_sets(sets, spec, args)

    failures: Dict[str, List[str]] = {}
    results: Dict[str, Dict[str, Any]] = {}
    for name in names:
        merged = WorkloadRun(name, workloads.WORKLOADS[name].cluster)
        for runs in sets:
            run = runs[name]
            merged.setups += run.setups
            merged.repeats += run.repeats
            merged.trace = merged.trace or run.trace
            merged.attempted += run.attempted
            merged.failed += run.failed
            merged.errors += run.errors
        problems = check(merged, args.quick)
        if problems:
            failures[name] = problems
        print(f"\n== {name}: {len(merged.repeats)} repeat(s), "
              f"{len(merged.setups)} set-up run(s) ==")
        for problem in problems:
            print(f"  FAIL {name}: {problem}", file=sys.stderr)
        if not merged.repeats:
            continue
        e2e = tagged(end_to_end(merged), spec["end_to_end"])
        samples = merged.repeats[0]["fg_samples"]
        print_metrics("end to end", e2e,
                      {"fg_p99_us": f"  ({samples} samples)"})
        result = {"attempted": merged.attempted, "failed": merged.failed,
                  "metrics": e2e}
        if merged.trace is not None:
            layers = tagged(per_layer(merged), spec["per_layer"])
            print_metrics("per layer (traced run)", layers, {})
            for path in merged.trace["files"]:
                print(f"  trace file: {os.path.relpath(path, ROOT)}")
            result["metrics"] = layers
        results[name] = result

    if args.out is not None:
        write_record(args.out, args, sets, failures)
    if not results:
        return 1
    summary = {
        "correct": not failures,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": (results[names[0]]["metrics"] if len(names) == 1 else
                    {name: r["metrics"] for name, r in results.items()}),
    }
    print(json.dumps(summary))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
