"""Aggregate telemetry: labeled metrics, sim-time profiling, diffing.

Three layers, importable à la carte:

- :mod:`repro.telemetry.registry` — ``Counter`` / ``Gauge`` /
  ``Histogram`` families with label sets, OpenMetrics exposition
  (:mod:`repro.telemetry.openmetrics`) and versioned JSON snapshots;
- :mod:`repro.telemetry.kernel` — :class:`KernelTelemetry`, the hub a
  metered run subscribes to the kernel's tracer, plus
  :mod:`repro.telemetry.profiler`'s :class:`SimProfiler` (simulated-time
  sampling profiler with folded-stack / speedscope export);
- :mod:`repro.telemetry.diff` — run-to-run snapshot comparison with
  relative-delta thresholds (``python -m repro --metrics-diff``).

Entry points: ``Scenario.run_instrumented()`` or
``python -m repro --metrics out.prom``.
"""

from repro.telemetry.adapters import (
    register_cpu_sampler,
    register_throughput_meter,
)
from repro.telemetry.kernel import KernelTelemetry
from repro.telemetry.openmetrics import render_openmetrics, write_openmetrics
from repro.telemetry.profiler import (
    DEFAULT_SAMPLE_INTERVAL_NS,
    SimProfiler,
)
from repro.telemetry.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    SNAPSHOT_VERSION,
)

__all__ = [
    "Counter",
    "DEFAULT_SAMPLE_INTERVAL_NS",
    "Gauge",
    "Histogram",
    "KernelTelemetry",
    "MetricsRegistry",
    "SNAPSHOT_VERSION",
    "SimProfiler",
    "register_cpu_sampler",
    "register_throughput_meter",
    "render_openmetrics",
    "write_openmetrics",
]
