"""Measurement utilities: latency statistics and recorders.

- :mod:`~repro.metrics.stats` — latency summaries (min/avg/percentiles)
  and order-statistic confidence intervals, in the standard library
  only;
- :mod:`~repro.metrics.recorder` — latency/throughput/CPU-utilization
  recorders used by the workloads and the bench harness.

Import the submodules directly: the package re-exports nothing.
"""
