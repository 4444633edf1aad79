"""Tests for the PRISM priority database, classifier, procfs, and modes."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.kernel.core import Kernel
from repro.packet.addr import Ipv4Address, MacAddress
from repro.packet.skb import PRIORITY_HIGH, SKBuff
from repro.prism.classifier import PriorityClassifier
from repro.prism.mode import StackMode
from repro.prism.priority_db import PriorityDatabase, PriorityRule
from repro.prism.procfs import ProcFs, ProcFsError
from repro.sim import Simulator
from repro.stack.egress import build_udp_packet


def make_packet(src="10.0.0.100", dst="10.0.0.10", sport=30001, dport=5000):
    return build_udp_packet(
        src_mac=MacAddress(1), dst_mac=MacAddress(2),
        src_ip=Ipv4Address(src), dst_ip=Ipv4Address(dst),
        src_port=sport, dst_port=dport, payload=None, payload_len=32)


class TestPriorityRule:
    def test_requires_ip_or_port(self):
        with pytest.raises(ValueError):
            PriorityRule()

    def test_invalid_port(self):
        with pytest.raises(ValueError):
            PriorityRule(port=0)
        with pytest.raises(ValueError):
            PriorityRule(port=70_000)

    def test_negative_level(self):
        with pytest.raises(ValueError):
            PriorityRule(port=80, level=-1)

    def test_matches_endpoint_wildcards(self):
        ip_rule = PriorityRule(ip=Ipv4Address("10.0.0.1"))
        port_rule = PriorityRule(port=80)
        both = PriorityRule(ip=Ipv4Address("10.0.0.1"), port=80)
        assert ip_rule.matches_endpoint(Ipv4Address("10.0.0.1"), 1234)
        assert not ip_rule.matches_endpoint(Ipv4Address("10.0.0.2"), 1234)
        assert port_rule.matches_endpoint(Ipv4Address("1.1.1.1"), 80)
        assert both.matches_endpoint(Ipv4Address("10.0.0.1"), 80)
        assert not both.matches_endpoint(Ipv4Address("10.0.0.1"), 81)


class TestPriorityDatabase:
    def test_classify_by_destination(self):
        db = PriorityDatabase()
        db.add_endpoint(ip="10.0.0.10", port=5000)
        assert db.classify_packet(make_packet()) == PRIORITY_HIGH

    def test_classify_by_source_covers_reply_direction(self):
        db = PriorityDatabase()
        db.add_endpoint(ip="10.0.0.10", port=5000)
        reply = make_packet(src="10.0.0.10", dst="10.0.0.100",
                            sport=5000, dport=30001)
        assert reply is not None
        assert db.classify_packet(reply) == PRIORITY_HIGH

    def test_no_match_returns_none(self):
        db = PriorityDatabase()
        db.add_endpoint(ip="10.0.0.10", port=5000)
        assert db.classify_packet(make_packet(dport=9999)) is None

    def test_empty_db_short_circuits(self):
        db = PriorityDatabase()
        assert db.classify_packet(make_packet()) is None

    def test_wildcard_port_rule(self):
        db = PriorityDatabase()
        db.add_endpoint(ip="10.0.0.10")
        assert db.classify_packet(make_packet(dport=4242)) == PRIORITY_HIGH

    def test_wildcard_ip_rule(self):
        db = PriorityDatabase()
        db.add_endpoint(port=5000)
        assert db.classify_packet(
            make_packet(dst="99.99.99.99")) == PRIORITY_HIGH

    def test_best_level_wins_across_endpoints(self):
        db = PriorityDatabase()
        db.add_endpoint(ip="10.0.0.10", port=5000, level=2)
        db.add_endpoint(port=30001, level=1)
        # src matches level 1, dst matches level 2 -> min = 1.
        assert db.classify_packet(make_packet()) == 1

    def test_remove_rule(self):
        db = PriorityDatabase()
        rule = db.add_endpoint(ip="10.0.0.10", port=5000)
        assert db.remove(rule)
        assert not db.remove(rule)
        assert db.classify_packet(make_packet()) is None

    def test_clear(self):
        db = PriorityDatabase()
        db.add_endpoint(port=80)
        db.clear()
        assert len(db) == 0

    def test_classify_encapsulated_uses_inner_headers(self):
        from repro.stack.egress import EncapInfo, apply_encap
        db = PriorityDatabase()
        db.add_endpoint(ip="10.0.0.10", port=5000)
        encap = EncapInfo(
            vni=42, outer_src_mac=MacAddress(3), outer_dst_mac=MacAddress(4),
            outer_src_ip=Ipv4Address("192.168.1.2"),
            outer_dst_ip=Ipv4Address("192.168.1.1"))
        outer = apply_encap(make_packet(), encap)
        assert db.classify_packet(outer) == PRIORITY_HIGH

    @given(st.integers(1, 65535), st.integers(1, 65535))
    def test_lookup_never_false_positive(self, rule_port, pkt_port):
        db = PriorityDatabase()
        db.add_endpoint(ip="10.0.0.10", port=rule_port)
        packet = make_packet(dport=pkt_port, sport=max(1, (pkt_port + 1) % 65536))
        level = db.classify_packet(packet)
        if rule_port not in (pkt_port, packet.inner_l4.src_port):
            assert level is None


class TestClassifier:
    def _setup(self):
        sim = Simulator()
        kernel = Kernel(sim, n_cpus=1)
        return kernel, PriorityClassifier(kernel.priority_db, kernel.costs)

    def _skb(self):
        return SKBuff(make_packet())

    def test_vanilla_mode_is_inert(self):
        kernel, classifier = self._setup()
        kernel.priority_db.add_endpoint(ip="10.0.0.10", port=5000)
        skb = self._skb()
        cost = classifier.classify(skb, prism=False)
        assert cost == 0
        assert not skb.classified

    def test_prism_mode_stamps_high(self):
        kernel, classifier = self._setup()
        kernel.priority_db.add_endpoint(ip="10.0.0.10", port=5000)
        skb = self._skb()
        cost = classifier.classify(skb, prism=True)
        assert cost == kernel.costs.priority_lookup_ns
        assert skb.is_high_priority
        assert classifier.classified_high == 1

    def test_unmatched_gets_best_effort_level(self):
        kernel, classifier = self._setup()
        kernel.priority_db.add_endpoint(ip="10.0.0.99", port=9999, level=2)
        skb = self._skb()
        classifier.classify(skb, prism=True)
        assert skb.classified
        assert skb.priority_level == 3  # lowest rule level + 1

    def test_classification_is_idempotent(self):
        kernel, classifier = self._setup()
        kernel.priority_db.add_endpoint(ip="10.0.0.10", port=5000)
        skb = self._skb()
        classifier.classify(skb, prism=True)
        assert classifier.classify(skb, prism=True) == 0


class TestProcFs:
    def _setup(self):
        state = {"mode": StackMode.VANILLA}
        db = PriorityDatabase()
        procfs = ProcFs(db, get_mode=lambda: state["mode"],
                        set_mode=lambda m: state.update(mode=m))
        return db, procfs, state

    def test_add_and_read_rules(self):
        db, procfs, _ = self._setup()
        procfs.write("/proc/prism/priority", "add 10.0.0.10 5000")
        assert len(db) == 1
        assert procfs.read("/proc/prism/priority") == "10.0.0.10 5000 0"

    def test_add_with_level_and_wildcards(self):
        db, procfs, _ = self._setup()
        procfs.write("/proc/prism/priority", "add * 80 1")
        procfs.write("/proc/prism/priority", "add 10.0.0.9 * 2")
        rules = db.rules
        assert rules[0].ip is None and rules[0].port == 80 and rules[0].level == 1
        assert rules[1].port is None and rules[1].level == 2

    def test_del_rule(self):
        _db, procfs, _ = self._setup()
        procfs.write("/proc/prism/priority", "add 10.0.0.10 5000")
        procfs.write("/proc/prism/priority", "del 10.0.0.10 5000")
        assert procfs.read("/proc/prism/priority") == ""

    def test_del_missing_rule_errors(self):
        _db, procfs, _ = self._setup()
        with pytest.raises(ProcFsError):
            procfs.write("/proc/prism/priority", "del 10.0.0.10 5000")

    def test_clear_command(self):
        db, procfs, _ = self._setup()
        procfs.write("/proc/prism/priority", "add 10.0.0.10 5000\nadd * 80")
        procfs.write("/proc/prism/priority", "clear")
        assert len(db) == 0

    def test_malformed_commands(self):
        _db, procfs, _ = self._setup()
        for bad in ("bogus 1 2", "add 10.0.0.1", "add 10.0.0.1 notaport"):
            with pytest.raises(ProcFsError):
                procfs.write("/proc/prism/priority", bad)

    def test_mode_switching(self):
        _db, procfs, state = self._setup()
        procfs.write("/proc/prism/mode", "sync")
        assert state["mode"] is StackMode.PRISM_SYNC
        assert procfs.read("/proc/prism/mode") == "prism-sync"
        procfs.write("/proc/prism/mode", "vanilla")
        assert state["mode"] is StackMode.VANILLA

    def test_bad_mode_errors(self):
        _db, procfs, _ = self._setup()
        with pytest.raises(ProcFsError):
            procfs.write("/proc/prism/mode", "warp-speed")

    def test_unknown_path(self):
        _db, procfs, _ = self._setup()
        with pytest.raises(ProcFsError):
            procfs.write("/proc/prism/nope", "x")
        with pytest.raises(ProcFsError):
            procfs.read("/proc/prism/nope")

    def test_paths_listing(self):
        _db, procfs, _ = self._setup()
        assert procfs.paths() == ["/proc/prism/mode", "/proc/prism/priority"]


class TestStackMode:
    def test_parse_canonical_names(self):
        assert StackMode.parse("vanilla") is StackMode.VANILLA
        assert StackMode.parse("prism-batch") is StackMode.PRISM_BATCH
        assert StackMode.parse("PRISM_SYNC") is StackMode.PRISM_SYNC

    def test_parse_aliases(self):
        assert StackMode.parse("batch") is StackMode.PRISM_BATCH
        assert StackMode.parse("sync") is StackMode.PRISM_SYNC
        assert StackMode.parse("prism") is StackMode.PRISM_SYNC

    def test_parse_unknown(self):
        with pytest.raises(ValueError):
            StackMode.parse("turbo")

    def test_is_prism(self):
        assert not StackMode.VANILLA.is_prism
        assert StackMode.PRISM_BATCH.is_prism
        assert StackMode.PRISM_SYNC.is_prism
