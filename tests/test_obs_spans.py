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


class TestSyncInlineChain:
    """The tracepoints one PRISM-sync fg packet fires on the server.

    The inline stages run inside the NIC stage's span: each fires
    SYNC_INLINE and opens its span nested in the previous one, and the
    spans close innermost first — the nesting the folded stacks read.
    Each stage's STAGE_DONE fires when its own run returns, in pipeline
    order — the milestones ``obs.StageBreakdown`` and ``render_gantt``
    read.  Times are ns after the skb's allocation.
    """

    EXPECTED = [
        (0, "skb_alloc", "eth", None, None),
        (0, "span_begin", None, "cpu0", "skb:eth"),
        (700, "stage_done", "eth", None, "eth"),
        (1150, "sync_inline", "br", None, None),
        (1150, "span_begin", None, "cpu0", "skb:br"),
        (1600, "stage_done", "br", None, "br"),
        (2050, "sync_inline", "backlog:cpu0", None, None),
        (2050, "span_begin", None, "cpu0", "skb:veth"),
        (3152, "socket_enqueue", "server/fg-server:udp:11111", None, None),
        (3152, "stage_done", "backlog:cpu0", None, "veth"),
        (3152, "span_end", None, "cpu0", "skb:veth"),
        (3152, "span_end", None, "cpu0", "skb:br"),
        (3152, "span_end", None, "cpu0", "skb:eth"),
    ]

    def test_first_fg_packet_after_warmup(self):
        from repro.bench.cell import ExperimentCell
        from repro.bench.experiment import ExperimentConfig
        from repro.prism.mode import StackMode

        ms = 1_000_000
        config = ExperimentConfig(
            mode=StackMode.PRISM_SYNC, network="overlay", fg_rate_pps=2_000,
            bg_rate_pps=120_000.0, duration_ns=1 * ms, warmup_ns=3 * ms)
        log = []

        def attach(testbed):
            kernel = testbed.server.kernel
            for point in (TracePoint.SKB_ALLOC, TracePoint.SYNC_INLINE,
                          TracePoint.SPAN_BEGIN, TracePoint.SPAN_END,
                          TracePoint.STAGE_DONE, TracePoint.SOCKET_ENQUEUE):
                def record(point=point, skb=None, **fields):
                    # skbs are pooled: keep what they are now.
                    where = fields.get("device") or fields.get("socket")
                    log.append((kernel.sim.now, point, where,
                                fields.get("track"),
                                fields.get("name") or fields.get("stage"),
                                None if skb is None else
                                (skb.skb_id, skb.is_high_priority)))
                kernel.tracer.attach(point, record)

        cell = ExperimentCell(config, attach=attach)
        cell.run_to(config.warmup_ns + config.duration_ns)
        start = next(i for i, (now, point, *_rest, skb) in enumerate(log)
                     if now >= config.warmup_ns
                     and point == TracePoint.SKB_ALLOC and skb[1])
        alloc_at, skb = log[start][0], log[start][5]
        chain = log[start:start + len(self.EXPECTED)]
        assert [(now - alloc_at, point, where, track, name)
                for now, point, where, track, name, _skb in chain] \
            == self.EXPECTED
        # Every skb-carrying tracepoint of the chain names the fg skb.
        assert all(entry[5] == skb for entry in chain
                   if entry[1] not in ("span_begin", "span_end"))
