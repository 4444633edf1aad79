#!/usr/bin/env python3
"""Trace the NAPI device polling order (the paper's Fig. 6).

Attaches the kernel observer to the NAPI poll tracepoint (the
simulator's analogue of the paper's eBPF probes) and prints the device
order tables for the vanilla kernel and for PRISM, showing the
interleaving pathology and its fix.

Run:
    python examples/poll_order_trace.py
"""

from repro import StackMode
from repro.apps.remote import RemoteRequestSender
from repro.bench.testbed import build_testbed
from repro.obs import KernelObserver
from repro.sim.units import MS


def trace(mode: StackMode) -> KernelObserver:
    testbed = build_testbed(mode=mode)
    server = testbed.add_server_container("srv", "10.0.0.10")
    client = testbed.add_client_container("cli", "10.0.0.100")
    server.udp_socket(5000, core_id=1)
    testbed.mark_high_priority("10.0.0.10", 5000)

    poll_trace = KernelObserver(testbed.server.kernel)
    sender = RemoteRequestSender(testbed.client, testbed.overlay,
                                 client, "10.0.0.10")
    # A burst large enough to keep the NIC ring backlogged for several
    # NAPI rounds, so the steady-state order is visible.
    for _ in range(256):
        sender.send_udp(src_port=40000, dst_port=5000,
                        payload=None, payload_len=32)
    testbed.sim.run(until=10 * MS)
    return poll_trace


def main() -> None:
    vanilla = trace(StackMode.VANILLA)
    prism = trace(StackMode.PRISM_BATCH)
    print("Vanilla kernel (paper Fig. 6a) — note how stage 3 (veth) of")
    print("batch N runs only after stage 1 (eth) of batch N+1:\n")
    print(vanilla.poll_table(limit=9))
    print("\nPRISM (paper Fig. 6b) — streamlined eth, br, veth cycles:\n")
    print(prism.poll_table(limit=9))


if __name__ == "__main__":
    main()
