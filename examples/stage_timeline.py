#!/usr/bin/env python3
"""Visualize per-packet pipelines (the paper's Fig. 5, as ASCII Gantt).

Sends a burst of low-priority packets followed by a few high-priority
ones and draws each packet's life from rx-ring DMA to socket delivery.
Under PRISM the high-priority bars ('=') visibly cut ahead of the
low-priority ones ('#'); under vanilla they queue at the back.

Run:
    python examples/stage_timeline.py
"""

from repro import StackMode
from repro.apps.remote import RemoteRequestSender
from repro.bench.testbed import build_testbed
from repro.obs import KernelObserver, render_gantt
from repro.sim.units import MS


def run(mode: StackMode) -> KernelObserver:
    testbed = build_testbed(mode=mode)
    high_server = testbed.add_server_container("hi", "10.0.0.10")
    low_server = testbed.add_server_container("lo", "10.0.0.11")
    high_client = testbed.add_client_container("hic", "10.0.0.100")
    low_client = testbed.add_client_container("loc", "10.0.0.101")
    high_server.udp_socket(5000, core_id=1)
    low_server.udp_socket(6000, core_id=1)
    testbed.mark_high_priority("10.0.0.10", 5000)

    observer = KernelObserver(testbed.server.kernel)
    low = RemoteRequestSender(testbed.client, testbed.overlay,
                              low_client, "10.0.0.11")
    high = RemoteRequestSender(testbed.client, testbed.overlay,
                               high_client, "10.0.0.10")
    # A low-priority batch arrives, then four urgent packets right after.
    for _ in range(24):
        low.send_udp(src_port=40001, dst_port=6000,
                     payload=None, payload_len=32)
    for _ in range(4):
        high.send_udp(src_port=40000, dst_port=5000,
                      payload=None, payload_len=32)
    testbed.sim.run(until=10 * MS)
    return observer


def main() -> None:
    for mode in (StackMode.VANILLA, StackMode.PRISM_SYNC):
        print(f"\n=== {mode.value} ===  ('=' high priority, '#' low)\n")
        print(render_gantt(run(mode).packets.values(), limit=28, width=60))


if __name__ == "__main__":
    main()
