"""Span instrumentation of a real traced run.

Pins the contract between the kernel's SPAN_BEGIN/SPAN_END emit sites
and the observer: spans balance per CPU track with LIFO names, nest
properly (per-skb stage spans inside net_rx_action), and carry
monotone non-negative durations.
"""

from collections import defaultdict

from repro.trace.tracer import TracePoint, Tracer


class TestTracedSpans:
    def test_spans_pair_without_mismatch(self, traced_small):
        # spans() raises ValueError on any LIFO name violation.
        spans = traced_small.recorder.spans()
        assert spans, "a traced run must record spans"

    def test_span_durations_non_negative(self, traced_small):
        for _track, _name, begin, end in traced_small.recorder.spans():
            assert end >= begin

    def test_spans_live_on_cpu_tracks(self, traced_small):
        tracks = {t for t, _n, _b, _e in traced_small.recorder.spans()}
        assert any(t.startswith("cpu") for t in tracks)

    def test_stage_spans_nest_inside_softirq(self, traced_small):
        """Every per-skb stage span falls inside some net_rx_action (or
        backlog-poll) span on the same CPU track."""
        outer = defaultdict(list)
        stage_spans = []
        for track, name, begin, end in traced_small.recorder.spans():
            if name == "net_rx_action" or name.startswith("poll:"):
                outer[track].append((begin, end))
            elif name.startswith("skb:"):
                stage_spans.append((track, begin, end))
        assert stage_spans, "expected per-skb stage spans"
        for track, begin, end in stage_spans:
            assert any(b <= begin and end <= e for b, e in outer[track]), (
                f"stage span [{begin}, {end}] on {track} not inside any "
                "softirq/poll span")

    def test_softirq_spans_do_not_overlap_per_cpu(self, traced_small):
        """Top-level net_rx_action invocations on one CPU are serial."""
        per_track = defaultdict(list)
        for track, name, begin, end in traced_small.recorder.spans():
            if name == "net_rx_action":
                per_track[track].append((begin, end))
        assert per_track
        for track, intervals in per_track.items():
            intervals.sort()
            for (b1, e1), (b2, e2) in zip(intervals, intervals[1:]):
                assert e1 <= b2, (
                    f"overlapping net_rx_action spans on {track}: "
                    f"[{b1},{e1}] vs [{b2},{e2}]")


class TestGating:
    def test_no_subscribers_means_no_emits(self):
        """has_subscribers gating: an unsubscribed tracer reports False
        for every observability tracepoint, so the kernel hot path
        skips the emit sites entirely."""
        tracer = Tracer()
        for point in (TracePoint.SPAN_BEGIN, TracePoint.SPAN_END,
                      TracePoint.QUEUE_WAIT, TracePoint.SKB_ALLOC,
                      TracePoint.STAGE_DONE, TracePoint.SOCKET_ENQUEUE):
            assert not tracer.has_subscribers(point)

    def test_detach_restores_zero_subscribers(self, traced_small):
        """After the traced run the observer detached itself."""
        observer = traced_small.observer
        assert observer._callbacks == []
        for point in (TracePoint.SPAN_BEGIN, TracePoint.QUEUE_WAIT):
            assert not observer.tracer.has_subscribers(point)


class TestDropInstants:
    def test_every_counted_drop_reaches_the_recorder(self):
        """Kernel.count_drop is the one DROP emit site, so fault drops
        (``fault:<ring>``) are recorded like overflow drops."""
        from repro.bench.experiment import run_traced_experiment
        from repro.prism.mode import StackMode
        from tests.test_fastpath_golden import _config

        config = _config(StackMode.PRISM_SYNC, "overlay", "loss:eth:0.02")
        traced = run_traced_experiment(config)
        drops = traced.observer.kernel.drops
        assert any(site.startswith("fault:") for site in drops)
        recorder = traced.recorder
        assert recorder.evicted == 0
        instants = [e for e in recorder.events()
                    if e.ph == "i" and e.track == "drops"]
        assert len(instants) == sum(drops.values())
