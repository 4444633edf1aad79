"""Kernel-path observability: spans, milestones, poll order, chrome export.

The layer has three pieces:

- :class:`~repro.obs.recorder.FlightRecorder` — a bounded ring buffer of
  trace events (the storage);
- :class:`~repro.obs.observer.KernelObserver` — the tracer subscriber
  that turns kernel tracepoints into recorded spans/intervals/instants,
  per-packet milestones, NAPI poll-order records and exact simulated-time
  attribution to open-span stacks, and samples periodic gauges (the
  collection);
- :mod:`~repro.obs.chrome`, :class:`~repro.obs.breakdown.StageBreakdown`,
  :func:`~repro.obs.observer.render_gantt` and :mod:`~repro.obs.stacks`
  — Perfetto-loadable Chrome ``trace_event`` JSON, the paper's Fig. 4
  per-stage latency decomposition (per receiving socket), its Fig. 5
  packet Gantt chart, and folded-stack / speedscope profiles (the
  exporters).  :meth:`~repro.obs.observer.KernelObserver.poll_table`
  renders Fig. 6.

Everything is opt-in: kernel emit sites are gated on ``tracer.active``
and ``tracer.has_subscribers``, so with no observer attached the receive
path pays ~nothing.  The high-level entry points are
:meth:`repro.scenario.Scenario.run_traced` and the ``--trace``,
``--metrics``, ``--metrics-json``, ``--folded`` and ``--speedscope``
output paths of one CLI run.  The observer is one of several tracer
subscribers: the telemetry hub (:mod:`repro.telemetry`) and the flow tap
(:mod:`repro.flows`) take the same path.
"""

from repro.obs.breakdown import StageBreakdown
from repro.obs.observer import KernelObserver, render_gantt

__all__ = ["KernelObserver", "StageBreakdown", "render_gantt"]
