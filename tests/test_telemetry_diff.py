"""Run-to-run metric diffing: flattening, deltas, skips, CLI contract."""

from __future__ import annotations

import json

import pytest

from repro.telemetry.diff import (
    diff_metrics,
    flatten_document,
    load_metrics,
    main,
    print_diff,
)


def snapshot_doc(**values):
    """A minimal telemetry snapshot with one labeled counter family."""
    return {
        "version": 1,
        "metrics": {
            "repro_drops": {
                "type": "counter", "help": "", "label_names": ["queue"],
                "samples": [{"labels": {"queue": q}, "value": v}
                            for q, v in values.items()],
            },
        },
    }


class TestFlatten:
    def test_snapshot_series_keys_include_sorted_labels(self):
        flat = flatten_document(snapshot_doc(ring=3))
        assert flat == {'repro_drops{queue="ring"}': 3}

    def test_histogram_flattens_to_sum_and_count(self):
        doc = {"version": 1, "metrics": {"repro_batch": {
            "type": "histogram", "help": "", "label_names": ["napi"],
            "samples": [{"labels": {"napi": "eth"},
                         "buckets": {"1": 1, "+Inf": 2},
                         "sum": 9.0, "count": 2}],
        }}}
        assert flatten_document(doc) == {
            'repro_batch_sum{napi="eth"}': 9.0,
            'repro_batch_count{napi="eth"}': 2,
        }

    def test_experiment_result_shape(self):
        doc = {
            "version": 1,
            "config": {"mode": "vanilla"},
            "fg_delivered_pps": 1000.0,
            "fg_latency": None,
            "drops": {"ring": 5},
            "telemetry": snapshot_doc(ring=5),
        }
        flat = flatten_document(doc)
        assert flat["fg_delivered_pps"] == 1000.0
        assert flat['drops{queue="ring"}'] == 5
        assert flat['repro_drops{queue="ring"}'] == 5
        assert "version" not in flat and "config" not in flat


class TestDiff:
    def test_relative_deltas(self):
        rows, skipped = diff_metrics({"a": 100}, {"a": 110})
        assert rows == [("a", 100, 110, pytest.approx(0.1))]
        assert skipped == []

    def test_missing_baseline_is_skipped_with_warning(self):
        rows, skipped = diff_metrics({}, {"new_metric": 5})
        assert rows == []
        assert skipped == ["new_metric: no baseline value"]

    def test_missing_current_is_skipped_with_warning(self):
        rows, skipped = diff_metrics({"gone": 5}, {})
        assert rows == []
        assert skipped == ["gone: no current value"]

    def test_zero_baseline_is_skipped_not_divided(self):
        rows, skipped = diff_metrics({"z": 0}, {"z": 7})
        assert rows == []
        assert skipped == ["z: baseline is zero (current 7)"]

    def test_zero_to_zero_is_silent(self):
        rows, skipped = diff_metrics({"z": 0}, {"z": 0})
        assert rows == [] and skipped == []

    def test_match_filters_series(self):
        rows, _ = diff_metrics({"keep_me": 1, "other": 1},
                               {"keep_me": 2, "other": 2}, match="keep")
        assert [r[0] for r in rows] == ["keep_me"]

    def test_print_diff_counts_breaches(self, capsys):
        rows, skipped = diff_metrics({"a": 100, "b": 100},
                                     {"a": 130, "b": 101})
        breaches = print_diff(rows, skipped, threshold_pct=10)
        out = capsys.readouterr().out
        assert breaches == 1
        assert "⚠" in out and "FAIL: 1 series" in out

    def test_print_diff_without_threshold_never_fails(self, capsys):
        rows, skipped = diff_metrics({"a": 1}, {"a": 100})
        assert print_diff(rows, skipped, threshold_pct=None) == 0


class TestCli:
    def write(self, tmp_path, name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    def test_exit_zero_when_within_threshold(self, tmp_path, capsys):
        a = self.write(tmp_path, "a.json", snapshot_doc(ring=100))
        b = self.write(tmp_path, "b.json", snapshot_doc(ring=105))
        assert main([a, b, "--threshold", "10"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_exit_one_on_breach(self, tmp_path, capsys):
        a = self.write(tmp_path, "a.json", snapshot_doc(ring=100))
        b = self.write(tmp_path, "b.json", snapshot_doc(ring=200))
        assert main([a, b, "--threshold", "10"]) == 1

    def test_missing_file_exits_two(self, tmp_path, capsys):
        b = self.write(tmp_path, "b.json", snapshot_doc(ring=1))
        absent = str(tmp_path / "absent.json")
        assert main([absent, b, "--threshold", "5"]) == 2
        assert f"{absent}: not found" in capsys.readouterr().err

    def test_unreadable_json_exits_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        good = self.write(tmp_path, "good.json", snapshot_doc(ring=1))
        assert main([str(bad), good]) == 2

    def test_empty_baseline_skips(self, tmp_path, capsys):
        a = self.write(tmp_path, "a.json", {"version": 1, "metrics": {}})
        b = self.write(tmp_path, "b.json", snapshot_doc(ring=1))
        assert main([a, b, "--threshold", "5"]) == 0
        assert "no numeric series" in capsys.readouterr().err

    def test_load_metrics_rejects_non_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(SystemExit):
            load_metrics(path)
