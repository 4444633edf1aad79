"""Measurement utilities: statistics, histograms, CDFs, recorders.

- :mod:`~repro.metrics.stats` — latency summaries (min/avg/percentiles);
- :mod:`~repro.metrics.histogram` — a log-bucketed latency histogram
  (HdrHistogram-style) supporting merge and percentile queries;
- :mod:`~repro.metrics.cdf` — empirical CDFs and ASCII rendering for the
  paper's distribution figures;
- :mod:`~repro.metrics.recorder` — latency/throughput/CPU-utilization
  recorders used by the workloads and the bench harness;
- :mod:`~repro.metrics.timeseries` — windowed time series for
  time-resolved views (rates and latency percentiles over time).

Import the submodules directly: the package re-exports nothing, so a
recorder loads no numpy until a summary or CDF is taken (``stats``
imports it inside its functions; ``cdf`` loads on first use).
"""
