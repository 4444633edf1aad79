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

from repro.telemetry.kernel import KernelTelemetry
from repro.telemetry.registry import SNAPSHOT_VERSION, MetricsRegistry

__all__ = ["KernelTelemetry", "MetricsRegistry", "SNAPSHOT_VERSION"]
