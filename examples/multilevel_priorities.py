#!/usr/bin/env python3
"""Multi-level flow priorities (the paper's §VII-3 extension).

Three tenants share a host: *gold* (level 0), *silver* (level 1), and
unmarked bulk traffic.  The kernel collapses levels onto its two device
queue classes via ``high_priority_max_level``; this example compares the
paper's binary prototype (only gold is "high") against a widened high
class that admits silver too.

Run:
    python examples/multilevel_priorities.py
"""

from repro import KernelConfig, StackMode
from repro.apps import SockperfUdpClient, SockperfUdpFlood, SockperfUdpServer
from repro.bench.testbed import build_testbed
from repro.metrics.recorder import LatencyRecorder
from repro.sim.units import MS

WARMUP = 50 * MS
DURATION = 250 * MS


def run(high_priority_max_level: int, *, duration_ns: int = DURATION,
        warmup_ns: int = WARMUP) -> dict:
    testbed = build_testbed(
        mode=StackMode.PRISM_BATCH,
        config=KernelConfig(high_priority_max_level=high_priority_max_level))
    recorders = {}
    tenants = (("gold", "10.0.0.10", "10.0.0.100", 5000, 30001, 0),
               ("silver", "10.0.0.12", "10.0.0.102", 5001, 30004, 1))
    for name, server_ip, client_ip, port, src_port, level in tenants:
        server = testbed.add_server_container(f"{name}-srv", server_ip)
        client = testbed.add_client_container(f"{name}-cli", client_ip)
        SockperfUdpServer(server, port, core_id=1)
        recorder = LatencyRecorder(name, warmup_until_ns=warmup_ns)
        SockperfUdpClient(testbed.sim, testbed.client, testbed.overlay,
                          client, server_ip, port, rate_pps=1_000,
                          src_port=src_port, recorder=recorder)
        # Levels are installed through procfs: "add <ip> <port> <level>".
        testbed.server.kernel.procfs.write(
            "/proc/prism/priority", f"add {server_ip} {port} {level}")
        recorders[name] = recorder

    bulk_server = testbed.add_server_container("bulk-srv", "10.0.0.11")
    bulk_client = testbed.add_client_container("bulk-cli", "10.0.0.101")
    SockperfUdpServer(bulk_server, 6000, core_id=2, reply=False)
    SockperfUdpFlood(testbed.sim, testbed.client, testbed.overlay,
                     bulk_client, "10.0.0.11", 6000,
                     rate_pps=300_000, src_port=30002, burst=96)

    testbed.sim.run(until=warmup_ns + duration_ns)
    return {name: recorder.summary() for name, recorder in recorders.items()}


def main(*, duration_ns: int = DURATION, warmup_ns: int = WARMUP) -> None:
    for max_level, label in ((0, "binary (paper prototype): high = {gold}"),
                             (1, "widened: high = {gold, silver}")):
        print(f"\n--- {label} ---")
        for name, summary in run(max_level, duration_ns=duration_ns,
                                 warmup_ns=warmup_ns).items():
            print(f"  {name:8s} {summary}")
    print("\nWidening the high class pulls silver down to the fast tier "
          "without hurting gold.")


if __name__ == "__main__":
    main()
