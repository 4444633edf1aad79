#!/usr/bin/env python3
"""memcached behind a noisy neighbour (the paper's Fig. 12 scenario).

A containerized memcached serves a memaslap-style closed-loop client
while a bulk UDP flood hammers a neighbouring container on the same
host.  Compares idle vs busy under vanilla and PRISM-sync.

Run:
    python examples/memcached_tail_latency.py
"""

from repro import StackMode
from repro.scenario import Scenario
from repro.sim.units import MS


def main(*, duration_ns: int = 300 * MS, warmup_ns: int = 60 * MS) -> None:
    print("memcached (memaslap window=4, 9:1 get:set, 1KB values)\n")
    print(f"{'config':24s} {'ops/s':>10s} {'avg':>9s} {'p99':>9s}")
    for mode in (StackMode.VANILLA, StackMode.PRISM_SYNC):
        for busy in (False, True):
            scenario = (Scenario(mode=mode).foreground("memcached")
                        .timing(duration_ns=duration_ns, warmup_ns=warmup_ns))
            if busy:
                scenario = scenario.background(rate_pps=300_000)
            result = scenario.run()
            label = f"{mode.value}/{'busy' if busy else 'idle'}"
            latency = result.fg_latency
            print(f"{label:24s} {result.fg_delivered_pps:>10,.0f} "
                  f"{latency.avg_us:>8.1f}u {latency.p99_us:>8.1f}u")
    print()
    print("Paper: busy vanilla loses ~80% throughput and 5x latency;")
    print("PRISM roughly doubles busy throughput and halves latency.")


if __name__ == "__main__":
    main()
