"""Unit tests for the sampled flow-export pipeline's building blocks.

Sampler determinism, cache expiry/eviction accounting, record serde,
sink round-trips, the SQLite store's schema gate, the offline queries,
the Scenario ``with_flows`` builders, and the CLI path from a
``--cluster … --flows`` export to ``--flows-query``.  The cross-shard
determinism contract lives in ``test_flows_determinism.py``.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.flows import (
    FLOW_SCHEMA_VERSION,
    FlowCache,
    FlowExportConfig,
    FlowRecord,
    FlowSampler,
    FlowStore,
    JsonlSink,
    MemorySink,
    SqliteSink,
    export_flows,
    flow_record_digest,
    merge_flow_blocks,
    normalize_records,
    open_sink,
)
from repro.flows.query import (
    class_breakdown,
    diff_runs,
    link_utilization,
    load_records,
    run_query,
    top_flows,
)
from repro.scenario import ClusterScenario, Scenario


# ----------------------------------------------------------------------
# Sampler
# ----------------------------------------------------------------------
class TestFlowSampler:
    def test_exact_one_in_n_per_site(self):
        sampler = FlowSampler(rate=8, seed=3, scope="server")
        hits = sum(sampler.take("ring0") for _ in range(800))
        assert hits == 100
        assert sampler.seen == 800 and sampler.sampled == 100

    def test_rate_one_samples_everything(self):
        sampler = FlowSampler(rate=1, seed=0, scope="s")
        assert all(sampler.take("x") for _ in range(10))

    def test_deterministic_per_seed_and_site(self):
        a = FlowSampler(rate=16, seed=7, scope="h0")
        b = FlowSampler(rate=16, seed=7, scope="h0")
        picks_a = [a.take("ring") for _ in range(64)]
        picks_b = [b.take("ring") for _ in range(64)]
        assert picks_a == picks_b

    def test_phase_varies_with_seed_and_site(self):
        sampler = FlowSampler(rate=64, seed=1, scope="h0")
        phases = {sampler.phase(f"site{i}") for i in range(32)}
        assert len(phases) > 1  # sites don't all fire in lockstep
        other = FlowSampler(rate=64, seed=2, scope="h0")
        assert any(sampler.phase(f"site{i}") != other.phase(f"site{i}")
                   for i in range(32))

    def test_counters_shape(self):
        sampler = FlowSampler(rate=4, seed=0, scope="s")
        for _ in range(8):
            sampler.take("a")
        sampler.take("b")
        counters = sampler.counters()
        assert counters["seen"] == 9
        assert counters["rate"] == 4
        assert counters["sites"] == 2


# ----------------------------------------------------------------------
# Records
# ----------------------------------------------------------------------
class TestFlowRecord:
    def _record(self):
        r = FlowRecord("server", "10.0.0.1", "10.0.0.2", 1234, 80, 17, "hi",
                       first_ns=100)
        r.fold(200, 64, "ring0", latency_ns=50)
        r.fold(150, 32, "ring0", drops=1)
        r.fold_site("link:a-b", 64)
        return r

    def test_fold_accounting(self):
        r = self._record()
        assert (r.packets, r.bytes, r.drops) == (2, 96, 1)
        assert r.first_ns == 100 and r.last_ns == 200
        assert r.latency_sum_ns == 50 and r.latency_samples == 1
        assert r.sites["ring0"] == [2, 96, 1]
        assert r.sites["link:a-b"] == [1, 64, 0]

    def test_dict_roundtrip(self):
        r = self._record()
        r.reason = "idle"
        data = r.to_dict()
        assert json.loads(json.dumps(data)) == data
        assert data["schema"] == FLOW_SCHEMA_VERSION
        assert data["reason"] == "idle"

    def test_digest_is_order_invariant(self):
        a, b = self._record().to_dict(), self._record().to_dict()
        b["src"] = "10.0.0.9"
        assert flow_record_digest([a, b]) == flow_record_digest([b, a])
        assert normalize_records([b, a]) == normalize_records([a, b])


# ----------------------------------------------------------------------
# Cache
# ----------------------------------------------------------------------
class TestFlowCache:
    KEY = ("server", "a", "b", 1, 2, 17, "hi")

    def _key(self, i):
        return ("server", f"src{i}", "b", 1, 2, 17, "lo")

    def test_fold_creates_then_updates(self):
        cache = FlowCache(max_flows=4, active_timeout_ns=1000,
                          idle_timeout_ns=100)
        cache.fold(self.KEY, 10, 64, "ring")
        cache.fold(self.KEY, 20, 64, "ring")
        assert cache.counters["flows_created"] == 1
        assert cache.counters["folded"] == 2

    def test_lru_eviction_order_and_reason(self):
        cache = FlowCache(max_flows=2, active_timeout_ns=10**9,
                          idle_timeout_ns=10**9)
        cache.fold(self._key(0), 10, 1, "s")
        cache.fold(self._key(1), 11, 1, "s")
        cache.fold(self._key(0), 12, 1, "s")  # refresh 0: 1 is now LRU
        cache.fold(self._key(2), 13, 1, "s")  # evicts 1
        evicted = cache.drain()
        assert len(evicted) == 1
        assert evicted[0].src == "src1"
        assert evicted[0].reason == "evict"
        assert cache.counters["evicted"] == 1

    def test_idle_and_active_expiry(self):
        cache = FlowCache(max_flows=16, active_timeout_ns=1000,
                          idle_timeout_ns=200)
        cache.fold(self._key(0), 0, 1, "s")
        cache.fold(self._key(1), 0, 1, "s")
        for now in range(0, 1300, 100):
            cache.fold(self._key(1), now, 1, "s")  # 1 stays hot
            cache.expire(now)
        reasons = {r.src: r.reason for r in cache.drain()}
        assert reasons["src0"] == "idle"
        assert reasons["src1"] == "active"
        assert cache.counters["expired_idle"] >= 1
        assert cache.counters["expired_active"] >= 1

    def test_flush_all_final(self):
        cache = FlowCache(max_flows=8, active_timeout_ns=10**9,
                          idle_timeout_ns=10**9)
        cache.fold(self._key(0), 5, 1, "s")
        cache.flush_all()
        records = cache.drain()
        assert [r.reason for r in records] == ["final"]
        assert cache.counters["flushed_final"] == 1
        assert cache.drain() == []  # drained once, gone

    def test_extra_sites_count_packet_once(self):
        cache = FlowCache(max_flows=8, active_timeout_ns=10**9,
                          idle_timeout_ns=10**9)
        cache.fold(self._key(0), 5, 100, "link:a",
                   extra_sites=("link:b", "link:c"))
        cache.flush_all()
        record = cache.drain()[0].to_dict()
        assert record["packets"] == 1
        assert record["sites"]["link:a"] == [1, 100, 0]
        assert record["sites"]["link:b"] == [1, 100, 0]
        assert record["sites"]["link:c"] == [1, 100, 0]


# ----------------------------------------------------------------------
# Config
# ----------------------------------------------------------------------
class TestFlowExportConfig:
    def test_defaults_and_roundtrip(self):
        config = FlowExportConfig()
        assert config.sample_rate == 64
        assert pickle.loads(pickle.dumps(config)) == config

    def test_validation(self):
        with pytest.raises(ValueError):
            FlowExportConfig(sample_rate=0)
        with pytest.raises(ValueError):
            FlowExportConfig(max_flows=0)
        with pytest.raises(ValueError):
            FlowExportConfig(idle_timeout_ns=-1)


# ----------------------------------------------------------------------
# Sinks and store
# ----------------------------------------------------------------------
def _block(n=5):
    records = []
    for i in range(n):
        r = FlowRecord("server", f"10.0.0.{i}", "10.0.0.99", 1000 + i, 80,
                       17, "hi" if i % 2 else "lo", first_ns=i * 10)
        r.fold(i * 10 + 5, 64 * (i + 1), "ring0", latency_ns=100 * (i + 1))
        r.fold_site(f"link:l{i % 2}", 64 * (i + 1))
        r.reason = "final"
        records.append(r.to_dict())
    return merge_flow_blocks(
        [{"scope": "server", "records": records,
          "sampler": {"seen": 100, "sampled": n, "sites": 1},
          "cache": {"folded": n}}],
        sample_rate=8)


class TestSinks:
    def test_open_sink_dispatch(self, tmp_path):
        assert isinstance(open_sink("mem"), MemorySink)
        assert isinstance(open_sink(":memory:"), MemorySink)
        assert isinstance(open_sink(tmp_path / "x.jsonl"), JsonlSink)
        assert isinstance(open_sink(tmp_path / "x.sqlite"), SqliteSink)
        assert isinstance(open_sink(tmp_path / "x.db"), SqliteSink)
        with pytest.raises(ValueError, match="sink"):
            open_sink(tmp_path / "x.csv")

    def test_memory_sink_export(self):
        flows = _block()
        sink = export_flows(flows, "mem", label="t")
        assert len(sink.records) == flows["record_count"]
        assert sink.meta["label"] == "t"
        assert "records" not in sink.meta

    def test_jsonl_roundtrip(self, tmp_path):
        flows = _block()
        path = tmp_path / "run.jsonl"
        export_flows(flows, path, label="t")
        first = json.loads(path.read_text().splitlines()[0])
        assert first["kind"] == "meta" and first["label"] == "t"
        assert flow_record_digest(load_records(path)) == \
            flows["record_digest"]

    def test_sqlite_roundtrip(self, tmp_path):
        flows = _block()
        path = tmp_path / "run.sqlite"
        export_flows(flows, path, label="t")
        assert flow_record_digest(load_records(path)) == \
            flows["record_digest"]

    def test_backends_agree(self, tmp_path):
        flows = _block()
        export_flows(flows, tmp_path / "a.jsonl")
        export_flows(flows, tmp_path / "b.sqlite")
        assert load_records(tmp_path / "a.jsonl") == \
            load_records(tmp_path / "b.sqlite")


class TestFlowStore:
    def test_schema_version_gate(self, tmp_path):
        path = tmp_path / "run.sqlite"
        with FlowStore(path) as store:
            store.begin_run(label="a")
        import sqlite3
        db = sqlite3.connect(path)
        db.execute("UPDATE meta SET value='99' WHERE key='schema_version'")
        db.commit()
        db.close()
        with pytest.raises(ValueError, match="schema"):
            FlowStore(path)

    def test_multiple_runs_and_latest(self, tmp_path):
        flows = _block()
        path = tmp_path / "run.sqlite"
        with FlowStore(path) as store:
            first = store.begin_run(label="first")
            store.add_records(first, flows["records"][:2])
            second = store.begin_run(label="second")
            store.add_records(second, flows["records"])
            assert [r["label"] for r in store.runs()] == ["first", "second"]
            assert store.latest_run() == second
            assert len(store.records(first)) == 2
            assert len(store.records()) == flows["record_count"]


# ----------------------------------------------------------------------
# Queries
# ----------------------------------------------------------------------
class TestQueries:
    def test_top_flows_merges_split_records(self):
        flows = _block()
        records = flows["records"]
        # Split one flow into two records (active-timeout style).
        split = dict(records[0])
        split["first_ns"] = split["last_ns"] + 1
        split["last_ns"] = split["first_ns"] + 5
        top = top_flows(records + [split], k=3, by="packets")
        assert len(top) == 3
        merged = [t for t in top
                  if (t["src"], t["src_port"]) ==
                  (records[0]["src"], records[0]["src_port"])]
        assert merged and merged[0]["packets"] == records[0]["packets"] * 2

    def test_class_breakdown(self):
        classes = {e["cls"]: e for e in class_breakdown(_block()["records"])}
        assert set(classes) == {"hi", "lo"}
        assert classes["hi"]["flows"] == 2 and classes["lo"]["flows"] == 3
        assert classes["hi"]["latency_mean_ns"] > 0

    def test_link_utilization(self):
        links = link_utilization(_block()["records"])
        assert [l["site"] for l in links] == ["link:l0", "link:l1"]
        assert links[0]["bytes"] > links[1]["bytes"]

    def test_diff_runs(self):
        a = _block(3)["records"]
        b = _block(5)["records"]
        diff = diff_runs(a, b)
        assert diff["a"]["flows"] == 3 and diff["b"]["flows"] == 5
        assert len(diff["only_b"]) == 2 and not diff["only_a"]

    def test_run_query_dispatch(self, tmp_path):
        flows = _block()
        path = tmp_path / "run.sqlite"
        export_flows(flows, path)
        assert "top 2 flows" in run_query("top:2", path)
        assert "per-class" in run_query("classes", path)
        assert "link:" in run_query("links", path)
        assert "diff" in run_query("diff", path, path)
        with pytest.raises(ValueError, match="needs 2"):
            run_query("diff", path)
        with pytest.raises(ValueError, match="unknown flow query"):
            run_query("nope", path)


# ----------------------------------------------------------------------
# Scenario builders
# ----------------------------------------------------------------------
class TestWithFlows:
    def test_scenario_builder(self):
        scenario = Scenario().with_flows(32, idle_timeout_ns=1000)
        config = scenario.build().flow_export
        assert config.sample_rate == 32 and config.idle_timeout_ns == 1000
        assert scenario.with_flows(0).build().flow_export is None

    def test_cluster_builder(self):
        cluster = ClusterScenario(4).with_flows(16)
        assert cluster.build().flow_export.sample_rate == 16

    def test_explicit_config_excludes_knobs(self):
        config = FlowExportConfig(sample_rate=4)
        assert Scenario().with_flows(config=config).build().flow_export \
            is config
        with pytest.raises(TypeError):
            Scenario().with_flows(config=config, max_flows=8)
        with pytest.raises(TypeError):
            Scenario().with_flows(0, max_flows=8)


# ----------------------------------------------------------------------
# CLI: export from a cluster run, then query the stores offline
# ----------------------------------------------------------------------
def test_cli_cluster_export_then_canned_queries(tmp_path, capsys):
    from repro.__main__ import main

    stores = {}
    for mode in ("prism-sync", "vanilla"):
        stores[mode] = str(tmp_path / f"flow-{mode}.sqlite")
        assert main(["--cluster", "8", "--topology", "fat-tree",
                     "--users", "500", "--cluster-ms", "3",
                     "--mode", mode, "--flows", stores[mode],
                     "--flow-sample", "8"]) == 0
    capsys.readouterr()

    queries = [[q, stores["prism-sync"]] for q in ("top:10", "classes",
                                                   "links")]
    queries.append(["diff", stores["vanilla"], stores["prism-sync"]])
    for query in queries:
        assert main(["--flows-query", *query]) == 0, query
        assert capsys.readouterr().out.strip(), query
