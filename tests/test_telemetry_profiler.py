"""Span attribution of the kernel observer: edge attribution, exports.

Driven synthetically through a minimal kernel stand-in (the observer's
span callbacks only touch ``kernel.sim`` and ``kernel.tracer``), so
span timings are exact and every assertion is arithmetic.  Integration
against the real kernel's spans lives in test_telemetry_neutrality.py.
"""

from __future__ import annotations

import json

from repro.obs.observer import KernelObserver
from repro.obs.stacks import (
    folded_lines,
    speedscope_doc,
    write_folded,
    write_speedscope,
)
from repro.sim.engine import Simulator
from repro.trace.tracer import TracePoint, Tracer


class FakeKernel:
    def __init__(self):
        self.sim = Simulator()
        self.tracer = Tracer()


def make():
    kernel = FakeKernel()
    return kernel, kernel.sim, kernel.tracer


def advance(sim, ns):
    """Advance simulated time by *ns*."""
    sim.run(until=sim.now + ns)
    assert sim.now >= ns


class TestEdgeAttribution:
    def test_leaf_gets_elapsed_time(self):
        kernel, sim, tracer = make()
        observer = KernelObserver(kernel)
        tracer.emit(TracePoint.SPAN_BEGIN, track="cpu0", name="outer")
        advance(sim, 100)
        tracer.emit(TracePoint.SPAN_BEGIN, track="cpu0", name="inner")
        advance(sim, 40)
        tracer.emit(TracePoint.SPAN_END, track="cpu0", name="inner")
        advance(sim, 10)
        tracer.emit(TracePoint.SPAN_END, track="cpu0", name="outer")
        observer.detach()
        assert observer.self_ns == {
            ("cpu0", ("outer",)): 110,  # 100 before inner + 10 after
            ("cpu0", ("outer", "inner")): 40,
        }
        assert observer.total_ns() == 150
        assert observer.total_ns("cpu0") == 150
        assert observer.total_ns("cpu1") == 0

    def test_tracks_are_independent(self):
        kernel, sim, tracer = make()
        observer = KernelObserver(kernel)
        tracer.emit(TracePoint.SPAN_BEGIN, track="cpu0", name="a")
        tracer.emit(TracePoint.SPAN_BEGIN, track="cpu1", name="b")
        advance(sim, 50)
        tracer.emit(TracePoint.SPAN_END, track="cpu0", name="a")
        tracer.emit(TracePoint.SPAN_END, track="cpu1", name="b")
        observer.detach()
        assert observer.self_ns[("cpu0", ("a",))] == 50
        assert observer.self_ns[("cpu1", ("b",))] == 50
        assert observer.tracks() == ["cpu0", "cpu1"]

    def test_priority_class_folds_into_frame_name(self):
        kernel, sim, tracer = make()
        observer = KernelObserver(kernel)
        tracer.emit(TracePoint.SPAN_BEGIN, track="cpu0", name="skb:eth",
                    hp=True)
        advance(sim, 30)
        tracer.emit(TracePoint.SPAN_END, track="cpu0", name="skb:eth")
        tracer.emit(TracePoint.SPAN_BEGIN, track="cpu0", name="skb:eth",
                    hp=False)
        advance(sim, 70)
        tracer.emit(TracePoint.SPAN_END, track="cpu0", name="skb:eth")
        observer.detach()
        assert observer.self_ns[("cpu0", ("skb:eth[hp]",))] == 30
        assert observer.self_ns[("cpu0", ("skb:eth[lp]",))] == 70

    def test_finalize_attributes_trailing_open_span(self):
        kernel, sim, tracer = make()
        observer = KernelObserver(kernel)
        tracer.emit(TracePoint.SPAN_BEGIN, track="cpu0", name="open")
        advance(sim, 25)
        observer.detach()  # run ended mid-span
        assert observer.self_ns[("cpu0", ("open",))] == 25
        advance(sim, 10)
        observer.detach()  # a second detach attributes nothing more
        assert observer.self_ns[("cpu0", ("open",))] == 25

    def test_finalize_is_idempotent_and_detaches(self):
        kernel, sim, tracer = make()
        observer = KernelObserver(kernel)
        observer.detach()
        observer.detach()
        assert not tracer.active  # subscriptions released
        tracer.emit(TracePoint.SPAN_BEGIN, track="cpu0", name="late")
        advance(sim, 10)
        assert observer.self_ns == {}  # detached: no further attribution

    def test_stage_totals_key_by_leaf_frame(self):
        kernel, sim, tracer = make()
        observer = KernelObserver(kernel)
        tracer.emit(TracePoint.SPAN_BEGIN, track="cpu0", name="outer")
        advance(sim, 10)
        tracer.emit(TracePoint.SPAN_BEGIN, track="cpu0", name="leaf")
        advance(sim, 5)
        tracer.emit(TracePoint.SPAN_END, track="cpu0", name="leaf")
        tracer.emit(TracePoint.SPAN_END, track="cpu0", name="outer")
        observer.detach()
        assert observer.stage_totals() == {"outer": 10, "leaf": 5}


class TestExports:
    def _profiled(self):
        kernel, sim, tracer = make()
        observer = KernelObserver(kernel)
        tracer.emit(TracePoint.SPAN_BEGIN, track="cpu0", name="outer")
        advance(sim, 60)
        tracer.emit(TracePoint.SPAN_BEGIN, track="cpu0", name="inner")
        advance(sim, 40)
        tracer.emit(TracePoint.SPAN_END, track="cpu0", name="inner")
        tracer.emit(TracePoint.SPAN_END, track="cpu0", name="outer")
        observer.detach()
        return observer

    def test_folded_lines(self):
        observer = self._profiled()
        assert folded_lines(observer.self_ns) == [
            "cpu0;outer 60",
            "cpu0;outer;inner 40",
        ]

    def test_write_folded(self, tmp_path):
        observer = self._profiled()
        out = write_folded(tmp_path / "observer.folded", observer.self_ns)
        assert out.read_text() == "cpu0;outer 60\ncpu0;outer;inner 40\n"

    def test_speedscope_fallback_from_folded_stacks(self, tmp_path):
        observer = self._profiled()
        doc = speedscope_doc(observer.self_ns)
        assert doc["$schema"] == (
            "https://www.speedscope.app/file-format-schema.json")
        (profile,) = doc["profiles"]
        assert profile["type"] == "sampled"
        assert profile["name"] == "cpu0"
        assert profile["weights"] == [60, 40]
        assert profile["endValue"] == 100
        frames = [f["name"] for f in doc["shared"]["frames"]]
        assert [[frames[i] for i in sample]
                for sample in profile["samples"]] == [
            ["outer"], ["outer", "inner"]]
        out = write_speedscope(tmp_path / "observer.speedscope.json",
                               observer.self_ns)
        assert json.loads(out.read_text())["name"] == "repro"
