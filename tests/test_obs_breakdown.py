"""The Fig. 4 per-stage breakdown and its golden invariants.

Two contracts are pinned here:

1. **Telescoping identity** — the segment means sum to the mean
   end-to-end kernel latency exactly (the decomposition is lossless).
2. **Observer neutrality** — attaching the observability layer must not
   perturb the simulation: the traced run's measurements are
   digest-identical to an untraced run of the same config.
"""


import dataclasses
import functools
import json

import pytest

from repro.bench.experiment import run_experiment, run_traced_experiment
from repro.bench.runner import result_digest
from repro.obs.breakdown import StageBreakdown, StageSegment
from repro.obs.observer import PacketMilestones
from repro.prism.mode import StackMode
from repro.sim.units import MS
from tests.conftest import TRACED_CONFIG


def _packet(skb_id, ring_at, alloc_at, stages, socket_at):
    p = PacketMilestones(skb_id, high_priority=False)
    p.ring_at = ring_at
    p.alloc_at = alloc_at
    p.stages = list(stages)
    p.socket_at = socket_at
    return p


class TestSyntheticBreakdown:
    def test_known_segments(self):
        packets = [
            _packet(1, 0, 10, [("eth", 30), ("br", 60)], 100),
            _packet(2, 100, 120, [("eth", 150), ("br", 200)], 220),
        ]
        b = StageBreakdown.from_packets(packets)
        assert b.path == ("eth", "br")
        assert b.packets == 2 and b.excluded == 0
        by_name = {s.name: s.mean_ns for s in b.segments}
        # Packet 1: ring 10, eth 20, br 30, socket 40.
        # Packet 2: ring 20, eth 30, br 50, socket 20.
        assert by_name == {"ring": 15.0, "eth": 25.0, "br": 40.0,
                           "socket": 30.0}
        assert b.end_to_end_ns == 110.0

    def test_off_path_packets_excluded(self):
        packets = [
            _packet(1, 0, 5, [("eth", 10)], 20),
            _packet(2, 0, 5, [("eth", 10)], 20),
            _packet(3, 0, 5, [("eth", 10), ("br", 15)], 20),  # off-modal
        ]
        b = StageBreakdown.from_packets(packets)
        assert b.path == ("eth",)
        assert b.packets == 2 and b.excluded == 1

    def test_incomplete_packets_ignored(self):
        unfinished = _packet(1, 0, 5, [("eth", 10)], 20)
        unfinished.socket_at = None
        b = StageBreakdown.from_packets([unfinished])
        assert b.packets == 0 and b.segments == ()
        assert b.render() == "(no completed packets)"

    def test_ring_segment_needs_alloc_on_every_packet(self):
        packets = [
            _packet(1, 0, None, [("eth", 10)], 20),
            _packet(2, 0, 5, [("eth", 10)], 20),
        ]
        b = StageBreakdown.from_packets(packets)
        assert [s.name for s in b.segments] == ["eth", "socket"]

    def test_round_trip_dict(self):
        b = StageBreakdown.from_packets(
            [_packet(1, 0, 10, [("eth", 30)], 100)])
        data = b.to_dict()
        assert json.loads(json.dumps(data)) == data
        assert data == {"version": 1, "path": ["eth"],
                        "end_to_end_ns": b.end_to_end_ns, "packets": 1,
                        "excluded": 0,
                        "segments": [{"name": s.name, "mean_ns": s.mean_ns,
                                      "share": s.share}
                                     for s in b.segments]}


class TestGoldenIdentity:
    def test_segment_means_sum_to_end_to_end(self, traced_small):
        """The telescoping invariant on a real traced run."""
        b = traced_small.breakdown
        assert b.packets > 0
        total = sum(s.mean_ns for s in b.segments)
        assert total == pytest.approx(b.end_to_end_ns, rel=1e-12)
        assert sum(s.share for s in b.segments) == pytest.approx(1.0,
                                                                 rel=1e-12)

    def test_overlay_modal_path(self, traced_small):
        """Overlay receive path crosses driver, gro_cells, and veth
        backlog stages (the paper's Fig. 4 pipeline)."""
        assert traced_small.breakdown.path == ("eth", "br", "veth")
        assert [s.name for s in traced_small.breakdown.segments] == \
            ["ring", "eth", "br", "veth", "socket"]

    def test_breakdown_attached_to_result(self, traced_small):
        stored = traced_small.result.stage_breakdown
        assert stored is not None
        assert stored == traced_small.breakdown.to_dict()


class TestPipelineOrder:
    @pytest.mark.parametrize("mode", [
        StackMode.VANILLA, StackMode.PRISM_BATCH, StackMode.PRISM_SYNC,
        StackMode.BYPASS], ids=str)
    def test_fg_path_follows_the_pipeline(self, mode):
        """Each stage's milestone fires when its own run returns, so the
        fg table reads ``eth -> br -> veth`` in every mode; where the
        stages run inline (PRISM-sync, bypass), eth and br still get
        their own time instead of all of it landing on veth."""
        config = dataclasses.replace(TRACED_CONFIG, mode=mode,
                                     duration_ns=6 * MS, warmup_ns=2 * MS)
        fg = run_traced_experiment(config).breakdowns[
            "server/fg-server:udp:11111"]
        assert fg.path == ("eth", "br", "veth")
        means = {s.name: s.mean_ns for s in fg.segments}
        assert means["eth"] > 0 and means["br"] > 0 and means["veth"] > 0


class TestPerSocket:
    def test_groups_by_receiving_socket(self):
        fg = _packet(1, 0, 10, [("eth", 30)], 100)
        bg = [_packet(i, 0, 10, [("eth", 50), ("br", 80)], 200)
              for i in range(2, 5)]
        fg.socket = "srv/fg:udp:1"
        for p in bg:
            p.socket = "srv/bg:udp:2"
        tables = StageBreakdown.per_socket([*bg, fg])
        assert list(tables) == ["srv/bg:udp:2", "srv/fg:udp:1"]
        assert tables["srv/fg:udp:1"] == StageBreakdown.from_packets([fg])
        assert tables["srv/bg:udp:2"].packets == 3

    def test_fg_table_counts_the_fg_requests_on_the_canonical_cell(self):
        """Vanilla never classifies, so only the socket tells the fg
        requests from the 300 kpps background they are averaged into."""
        from repro.__main__ import _canonical_scenario

        traced = _canonical_scenario("vanilla", 300_000).run_traced()
        result = traced.result
        assert list(traced.breakdowns) == [
            "server/bg-server:udp:12222", "server/fg-server:udp:11111"]
        fg, bg = (traced.breakdowns[f"server/{name}"] for name in
                  ("fg-server:udp:11111", "bg-server:udp:12222"))
        fg_received = fg.packets + fg.excluded
        # Every reply answers a request the server received.
        assert 0 < result.fg_replies <= fg_received <= result.fg_sent
        assert bg.packets + bg.excluded > 10_000
        everything = traced.breakdown
        assert (everything.packets + everything.excluded
                == fg_received + bg.packets + bg.excluded)


class TestTruncation:
    def test_complete_tables_say_nothing(self, traced_small):
        assert traced_small.observer.packets_overflowed == 0
        assert "truncated" not in traced_small.render_breakdowns()

    def test_capped_tables_end_with_the_count_and_the_cap(self,
                                                          monkeypatch):
        import repro.obs.observer as observer_module

        monkeypatch.setattr(
            observer_module, "KernelObserver",
            functools.partial(observer_module.KernelObserver,
                              max_packets=200))
        config = dataclasses.replace(TRACED_CONFIG, duration_ns=5 * MS,
                                     warmup_ns=2 * MS)
        traced = run_traced_experiment(config)
        dropped = traced.observer.packets_overflowed
        assert dropped > 0
        tables = sum(b.packets + b.excluded
                     for b in traced.breakdowns.values())
        assert tables <= 200
        assert traced.render_breakdowns().splitlines()[-1] == (
            f"truncated: {dropped:,} packets past the 200-packet "
            f"milestone cap are in no table")


class TestObserverNeutrality:
    def test_traced_run_digest_matches_untraced(self, traced_small):
        """Attaching spans/gauges must not change simulation outcomes."""
        plain = run_experiment(TRACED_CONFIG)
        assert traced_small.result.stage_breakdown is not None
        assert result_digest(traced_small.result) == result_digest(plain)
