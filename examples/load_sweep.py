#!/usr/bin/env python3
"""Latency vs background load (the paper's Fig. 11 scenario).

Sweeps the low-priority background rate from idle to overload and
prints the high-priority flow's min/avg/p99 latency and the packet
core's utilization, for vanilla and PRISM-sync.

Run:
    python examples/load_sweep.py [--jobs N] [--cache]
"""

import argparse

from repro import StackMode
from repro.scenario import Scenario, run_scenarios
from repro.sim.units import MS

LOADS = (0, 25_000, 100_000, 200_000, 300_000, 370_000, 430_000)
MODES = (StackMode.VANILLA, StackMode.PRISM_SYNC)


def main(*, jobs: int = 1, cache: bool = False,
         duration_ns: int = 200 * MS, warmup_ns: int = 40 * MS) -> None:
    scenarios = [
        Scenario(mode=mode).foreground("pingpong", rate_pps=1_000)
        .background(rate_pps=bg)
        .timing(duration_ns=duration_ns, warmup_ns=warmup_ns)
        for bg in LOADS for mode in MODES]
    results = run_scenarios(scenarios, jobs=jobs, cache=cache)

    print(f"{'bg kpps':>8} {'cpu':>5}  "
          f"{'vanilla min/avg/p99 (us)':>26}  {'prism min/avg/p99 (us)':>24}")
    for i, bg in enumerate(LOADS):
        row = [f"{bg / 1000:>8.0f}"]
        cpu = 0.0
        for j in range(len(MODES)):
            result = results[i * len(MODES) + j]
            summary = result.fg_latency
            row.append(f"{summary.min_us:>8.0f}/{summary.avg_us:>7.0f}/"
                       f"{summary.p99_us:>7.0f}")
            cpu = max(cpu, result.cpu_utilization)
        row.insert(1, f"{cpu:>5.2f}")
        print("  ".join(row))
    print("\nShapes to look for (paper Fig. 11): a tail hike at low load")
    print("(C-state wake-ups), PRISM's p99 tracking vanilla's average, and")
    print("the overload explosion to 1-2 ms for both.")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the sweep (default: 1)")
    parser.add_argument("--cache", action="store_true",
                        help="reuse cached results for repeat runs")
    args = parser.parse_args()
    main(jobs=args.jobs, cache=args.cache)
