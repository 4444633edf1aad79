"""Aggregate telemetry: the metrics snapshot of a run and run-to-run diffing.

Three modules, importable à la carte:

- :mod:`repro.telemetry.kernel` — :func:`collect_metrics`, which reads
  the versioned JSON snapshot out of a finished observed run (the
  server kernel's accounting, the observer's per-key counts and the
  harness's meters); nothing here subscribes to the tracer;
- :mod:`repro.telemetry.openmetrics` — the snapshot's OpenMetrics text
  exposition;
- :mod:`repro.telemetry.diff` — run-to-run snapshot comparison with
  relative-delta thresholds (``python -m repro --metrics-diff``).

Entry points: ``Scenario.run_traced()`` (its result's
``write_openmetrics`` / ``write_metrics_json``) or
``python -m repro --metrics out.prom``.
"""

from repro.telemetry.kernel import SNAPSHOT_VERSION, collect_metrics

__all__ = ["SNAPSHOT_VERSION", "collect_metrics"]
