"""Application models — the paper's workloads.

- :mod:`~repro.apps.sockperf` — the sockperf ping-pong (latency) and
  throughput (flood) modes, UDP and TCP, used for every microbenchmark
  and as the low-priority background everywhere;
- :mod:`~repro.apps.memcached` — a memcached server and a
  memaslap-style windowed closed-loop client (Fig. 12);
- :mod:`~repro.apps.webserver` — an nginx-style static HTTP server and a
  wrk2-style constant-rate single-connection client with
  coordinated-omission-corrected latency (Fig. 13);
- :mod:`~repro.apps.remote` — client-machine plumbing: request builders
  and TCP reassembly for the coarse remote host;
- :mod:`~repro.apps.aggregate` — closed-loop client *populations*: all
  users of one (container, priority) flow class as a single aggregated
  arrival process with exact per-class accounting.

The package re-exports the sockperf endpoints every run uses; import the
other applications from their modules, so a run that does not use them
does not load them.
"""

from repro.apps.sockperf import (
    SockperfUdpClient,
    SockperfUdpFlood,
    SockperfUdpServer,
)

__all__ = ["SockperfUdpClient", "SockperfUdpFlood", "SockperfUdpServer"]
