"""A labeled metrics registry: Counter, Gauge, Histogram.

The aggregate-telemetry counterpart of :mod:`repro.trace` (event-level)
and :mod:`repro.obs` (span-level): cheap, always-available counters and
gauges with label sets, collected into an OpenMetrics text exposition
(:mod:`repro.telemetry.openmetrics`) or a versioned JSON snapshot that
rides along inside :class:`~repro.bench.experiment.ExperimentResult`.

Design constraints, in order:

1. **Zero cost when unregistered.**  The live counters are tracer
   subscribers, and the simulated kernel reads ``tracer.active`` once
   per NAPI batch, so an unmetered run does not even build a label
   tuple.
2. **Determinism.**  Metrics only *read* simulation state; collection
   order is registration order with children sorted by label values, so
   two identical runs produce byte-identical expositions.
3. **No wall-clock anywhere.**  Values are pure functions of simulated
   state; timestamps (a source of run-to-run diff noise) are the
   caller's problem.

A family (``registry.counter("repro_drops", ..., ("queue",))``) hands
out **children** per label-value tuple via :meth:`MetricFamily.labels`;
an unlabeled family is its own single child.  Gauges additionally accept
a callback (:meth:`Gauge.set_function`) so existing accounting objects
— :class:`~repro.metrics.recorder.ThroughputMeter`,
:class:`~repro.metrics.recorder.CpuUtilizationSampler` — export through
the registry without duplicating their counters (see
:mod:`repro.telemetry.adapters`).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "SNAPSHOT_VERSION",
]

#: Bump when the snapshot()/exposition wire format changes.
SNAPSHOT_VERSION = 1

#: Default histogram bucket upper bounds (NAPI batch sizes fit these).
DEFAULT_BUCKETS: Tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64)

_NAME_OK = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:")


def _check_name(name: str) -> str:
    if not name or name[0].isdigit() or not set(name) <= _NAME_OK:
        raise ValueError(f"invalid metric name {name!r}")
    return name


class MetricFamily:
    """Common machinery: a named metric plus its per-labelset children."""

    kind = "untyped"

    def __init__(self, name: str, help: str,
                 label_names: Sequence[str] = ()) -> None:
        self.name = _check_name(name)
        self.help = help
        self.label_names: Tuple[str, ...] = tuple(label_names)
        for label in self.label_names:
            _check_name(label)
        self._children: Dict[Tuple[str, ...], Any] = {}
        if not self.label_names:
            # The unlabeled family is its own single child.
            self._children[()] = self

    def labels(self, *values: Any):
        """The child for one label-value tuple (created on first use)."""
        if len(values) != len(self.label_names):
            raise ValueError(
                f"{self.name}: expected {len(self.label_names)} label "
                f"value(s) {self.label_names}, got {len(values)}")
        key = tuple(str(v) for v in values)
        child = self._children.get(key)
        if child is None:
            child = self._child()
            self._children[key] = child
        return child

    def _child(self):  # pragma: no cover - overridden
        raise NotImplementedError

    def remove(self, *values: Any) -> None:
        """Forget one child (rarely needed; tests mostly)."""
        self._children.pop(tuple(str(v) for v in values), None)

    def samples(self) -> List[Tuple[Tuple[str, ...], Any]]:
        """``(label_values, child)`` pairs, sorted for stable exposition."""
        return sorted(self._children.items(), key=lambda kv: kv[0])

    def __repr__(self) -> str:
        return (f"<{type(self).__name__} {self.name!r} "
                f"children={len(self._children)}>")


class _CounterChild:
    """One (labelset, value) cell of a counter family."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up (inc {amount})")
        self.value += amount

    def set_total(self, value: float) -> None:
        """Overwrite with a cumulative value scraped from an existing
        accounting source (device rx counters, ``kernel.drops``, CPU
        stats).  The scraped source is itself monotone, so the counter
        contract holds; this avoids double-counting in hot paths that
        already maintain totals."""
        self.value = value


class Counter(MetricFamily):
    """A monotonically increasing count (OpenMetrics ``counter``)."""

    kind = "counter"

    # Unlabeled counters are their own child.
    value: float = 0
    inc = _CounterChild.inc
    set_total = _CounterChild.set_total

    def __init__(self, name: str, help: str,
                 label_names: Sequence[str] = ()) -> None:
        self.value = 0
        super().__init__(name, help, label_names)

    def _child(self) -> _CounterChild:
        return _CounterChild()


class _GaugeChild:
    """One (labelset, value) cell of a gauge family."""

    __slots__ = ("value", "_fn")

    def __init__(self) -> None:
        self.value: float = 0
        self._fn: Optional[Callable[[], float]] = None

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def dec(self, amount: float = 1) -> None:
        self.value -= amount

    def set_function(self, fn: Callable[[], float]) -> None:
        """Collect-time callback: the gauge reads *fn()* when sampled.

        This is how existing accounting objects export through the
        registry without a second set of counters to keep in sync."""
        self._fn = fn

    def current(self) -> float:
        if self._fn is not None:
            value = self._fn()
            self.value = 0 if value is None else value
        return self.value


class Gauge(MetricFamily):
    """A value that can go up and down (OpenMetrics ``gauge``)."""

    kind = "gauge"

    value: float = 0
    _fn: Optional[Callable[[], float]] = None
    set = _GaugeChild.set
    inc = _GaugeChild.inc
    dec = _GaugeChild.dec
    set_function = _GaugeChild.set_function
    current = _GaugeChild.current

    def __init__(self, name: str, help: str,
                 label_names: Sequence[str] = ()) -> None:
        self.value = 0
        self._fn = None
        super().__init__(name, help, label_names)

    def _child(self) -> _GaugeChild:
        return _GaugeChild()


class _HistogramChild:
    """One labelset's bucket counts + sum + count."""

    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets: Tuple[float, ...]) -> None:
        self.buckets = buckets
        self.counts = [0] * (len(buckets) + 1)  # +1 for +Inf
        self.sum: float = 0
        self.count = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    def cumulative(self) -> List[int]:
        """Cumulative bucket counts (OpenMetrics ``le`` semantics)."""
        out, acc = [], 0
        for c in self.counts:
            acc += c
            out.append(acc)
        return out


class Histogram(MetricFamily):
    """A distribution with fixed upper-bound buckets."""

    kind = "histogram"

    def __init__(self, name: str, help: str,
                 label_names: Sequence[str] = (), *,
                 buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.buckets = bounds
        if not label_names:
            # Build the single child before MetricFamily registers `self`.
            self._self_child = _HistogramChild(bounds)
        super().__init__(name, help, label_names)
        if not label_names:
            self._children[()] = self._self_child

    def _child(self) -> _HistogramChild:
        return _HistogramChild(self.buckets)

    def observe(self, value: float) -> None:
        """Observe on the unlabeled family (labelled ones use labels())."""
        if self.label_names:
            raise ValueError(f"{self.name}: labeled histogram — use "
                             ".labels(...).observe(...)")
        self._self_child.observe(value)


class MetricsRegistry:
    """Holds metric families and renders them for export.

    One registry per metered run; families register in creation order and
    that order is the exposition order (children sort by label values),
    so identical runs serialize identically.
    """

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}

    # ------------------------------------------------------------------
    # Family constructors
    # ------------------------------------------------------------------
    def counter(self, name: str, help: str,
                label_names: Sequence[str] = ()) -> Counter:
        return self._register(Counter(name, help, label_names))

    def gauge(self, name: str, help: str,
              label_names: Sequence[str] = ()) -> Gauge:
        return self._register(Gauge(name, help, label_names))

    def histogram(self, name: str, help: str,
                  label_names: Sequence[str] = (), *,
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._register(Histogram(name, help, label_names,
                                        buckets=buckets))

    def _register(self, family: MetricFamily):
        existing = self._families.get(family.name)
        if existing is not None:
            if type(existing) is not type(family) or \
                    existing.label_names != family.label_names:
                raise ValueError(
                    f"metric {family.name!r} already registered with a "
                    "different type or label set")
            return existing
        self._families[family.name] = family
        return family

    def get(self, name: str) -> Optional[MetricFamily]:
        return self._families.get(name)

    def families(self) -> List[MetricFamily]:
        return list(self._families.values())

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """A versioned, JSON-safe dump of every family.

        This is the wire format embedded in ``ExperimentResult.telemetry``
        and consumed by :mod:`repro.telemetry.diff`.
        """
        metrics: Dict[str, Any] = {}
        for family in self._families.values():
            samples = []
            for values, child in family.samples():
                labels = dict(zip(family.label_names, values))
                if family.kind == "histogram":
                    bounds = [*(str(b) for b in child.buckets), "+Inf"]
                    samples.append({
                        "labels": labels,
                        "buckets": dict(zip(bounds, child.cumulative())),
                        "sum": child.sum,
                        "count": child.count,
                    })
                elif family.kind == "gauge":
                    samples.append({"labels": labels,
                                    "value": child.current()})
                else:
                    samples.append({"labels": labels, "value": child.value})
            metrics[family.name] = {
                "type": family.kind,
                "help": family.help,
                "label_names": list(family.label_names),
                "samples": samples,
            }
        return {"version": SNAPSHOT_VERSION, "metrics": metrics}

    def render_openmetrics(self) -> str:
        """OpenMetrics text exposition (delegates to the exposition module)."""
        from repro.telemetry.openmetrics import render_openmetrics
        return render_openmetrics(self)

    def __repr__(self) -> str:
        return f"<MetricsRegistry families={len(self._families)}>"
