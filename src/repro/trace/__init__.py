"""Tracing infrastructure (the simulator's eBPF analogue).

The paper diagnosed the interleaved-polling problem by attaching eBPF
probes to NAPI tracepoints.  :mod:`~repro.trace.tracer` provides the same
capability for the simulated kernel: a registry of named tracepoints with
attachable callbacks, near-free when nothing is attached.  It is the one
path every observation takes; the probes that consume it live with their
owners — the kernel observer (:mod:`repro.obs`, per-packet milestones,
poll order, spans, the per-key counts the metrics snapshot reads) and
the flow tap (:mod:`repro.flows`).
"""
