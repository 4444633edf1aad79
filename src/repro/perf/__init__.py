"""Host-time profiling support.

Holds :mod:`~repro.perf.wallprof`, whose :class:`WallClockSampler`
samples the interpreter's own stacks on wall-clock time.  The repo
benchmark (``perfbench/``) uses it to split a run's wall-clock time
into per-package shares; benchmark numbers themselves come from
``python3 perfbench/run.py``.
"""
