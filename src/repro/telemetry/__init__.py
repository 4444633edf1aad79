"""Aggregate telemetry: labeled metrics and run-to-run diffing.

Three layers, importable à la carte:

- :mod:`repro.telemetry.registry` — ``Counter`` / ``Gauge`` /
  ``Histogram`` families with label sets, OpenMetrics exposition
  (:mod:`repro.telemetry.openmetrics`) and versioned JSON snapshots;
- :mod:`repro.telemetry.kernel` — :class:`KernelTelemetry`, the hub an
  observed run subscribes to the kernel's tracer next to the
  :class:`~repro.obs.observer.KernelObserver`;
- :mod:`repro.telemetry.diff` — run-to-run snapshot comparison with
  relative-delta thresholds (``python -m repro --metrics-diff``).

Entry points: ``Scenario.run_traced()`` (its result's
``write_openmetrics`` / ``write_metrics_json``) or
``python -m repro --metrics out.prom``.
"""

from repro.telemetry.adapters import (
    register_cpu_sampler,
    register_throughput_meter,
)
from repro.telemetry.kernel import KernelTelemetry
from repro.telemetry.openmetrics import render_openmetrics, write_openmetrics
from repro.telemetry.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    SNAPSHOT_VERSION,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "KernelTelemetry",
    "MetricsRegistry",
    "SNAPSHOT_VERSION",
    "register_cpu_sampler",
    "register_throughput_meter",
    "render_openmetrics",
    "write_openmetrics",
]
