"""The experiment harness: testbeds, scenarios, and reporting.

- :mod:`~repro.bench.testbed` — builds the paper's two-machine setup
  (fully simulated server + coarse client, point-to-point wire, VXLAN
  overlay);
- :mod:`~repro.bench.experiment` — experiment configuration and runner
  for every figure cell: the sockperf microbenchmarks (Figs. 3, 8–11)
  and the memcached (Fig. 12) and web server (Fig. 13) applications;
- :mod:`~repro.bench.runner` — parallel fan-out, on-disk result caching,
  and repeat-run stability statistics for independent experiments;
- :mod:`~repro.bench.report` — paper-vs-measured tables.

Import the submodules directly; the package re-exports nothing, so
building a cell does not load the batch runner or its process pool.
"""
