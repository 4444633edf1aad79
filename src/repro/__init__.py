"""PRISM reproduction: priority-based streamlined packet processing.

A production-quality reproduction of *PRISM: Streamlined Packet
Processing for Containers with Flow Prioritization* (Munikar, Lei, Lu,
Rao — ICDCS 2022) on a discrete-event simulation of the Linux kernel
receive path.

Quick start
-----------
>>> from repro import StackMode
>>> from repro.bench.testbed import build_testbed
>>> from repro.apps import SockperfUdpServer, SockperfUdpClient
>>> testbed = build_testbed(mode=StackMode.PRISM_SYNC)
>>> server = testbed.add_server_container("srv", "10.0.0.10")
>>> client = testbed.add_client_container("cli", "10.0.0.100")
>>> _ = SockperfUdpServer(server, 5000)
>>> ping = SockperfUdpClient(testbed.sim, testbed.client, testbed.overlay,
...                          client, "10.0.0.10", 5000, rate_pps=1000)
>>> testbed.mark_high_priority("10.0.0.10", 5000)
>>> testbed.sim.run(until=50_000_000)  # 50 ms of virtual time
>>> ping.recorder.summary() is not None
True

Package map
-----------
- ``repro.sim`` — deterministic discrete-event engine;
- ``repro.packet`` — headers, wire packets, sk_buffs, VXLAN framing;
- ``repro.kernel`` — CPUs, softirqs, NAPI (vanilla Fig. 2 and PRISM
  Fig. 7), GRO, the calibrated cost model;
- ``repro.netdev`` — NIC / vxlan+gro_cells / bridge / veth devices;
- ``repro.stack`` — IP/UDP/TCP receive, sockets, namespaces, egress;
- ``repro.prism`` — the paper's contribution: modes, priority database,
  procfs control, classifier, stage transitions;
- ``repro.overlay`` — the two-host container-overlay testbed;
- ``repro.apps`` — sockperf / memcached / nginx workload models;
- ``repro.metrics`` / ``repro.trace`` — measurement and tracing;
- ``repro.bench`` — per-figure experiment harness.
"""

from repro.kernel.config import KernelConfig
from repro.prism.mode import StackMode

__version__ = "1.0.0"

__all__ = ["KernelConfig", "StackMode", "__version__"]
