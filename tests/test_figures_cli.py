"""Tests for the programmatic figure registry and the CLI."""

import json

import pytest

from repro.__main__ import main
from repro.bench.figures import FIGURES, reproduce
from repro.bench.report import ReproRow


class TestFigureRegistry:
    def test_registry_covers_key_figures(self):
        assert set(FIGURES) == {
            "fig3", "fig5", "fig6", "fig8", "fig9", "fig10", "fig11",
            "fig12", "fig13", "ablation-batch", "ablation-components",
            "ablation-multilevel", "ablation-nic-rings", "ablation-prio-db"}

    def test_unknown_figure_raises(self):
        with pytest.raises(KeyError):
            reproduce("fig99")

    def test_fig6_reproduces_exactly(self):
        detail, rows = reproduce("fig6")
        assert all(row.holds for row in rows)
        assert "eth" in detail and "veth" in detail


class TestCli:
    def test_no_args_lists_figures(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "fig9" in out

    def test_unknown_figure_exit_code(self, capsys):
        assert main(["fig99"]) == 2

    def test_single_figure_run(self, capsys):
        assert main(["fig6"]) == 0
        out = capsys.readouterr().out
        assert "ok" in out
        assert "Fig. 6a" in out or "Vanilla" in out

    def test_broken_claim_exits_one_and_names_it(self, capsys, monkeypatch):
        def broken(scale):
            return "detail", [
                ReproRow("held claim", "x", "x", True),
                ReproRow("sync p99 vs vanilla", "about -50%", "+3%", False)]

        monkeypatch.setitem(FIGURES, "fig9", ("overlay", broken))
        assert main(["fig9"]) == 1
        out = capsys.readouterr().out
        assert ("MISMATCH fig9: sync p99 vs vanilla "
                "(paper about -50%, measured +3%)") in out
        assert "held claim" not in out.splitlines()[-1]

    def test_observed_outputs_come_from_one_run(self, capsys, tmp_path):
        """--trace and its siblings are output paths of one simulation:
        the result line prints once and every file is written."""
        from repro.obs.chrome import validate_chrome_trace

        paths = {flag: tmp_path / name for flag, name in (
            ("--trace", "run.trace.json"), ("--metrics", "run.prom"),
            ("--metrics-json", "run.metrics.json"),
            ("--folded", "run.folded"),
            ("--speedscope", "run.speedscope.json"))}
        argv = [arg for flag, path in paths.items()
                for arg in (flag, str(path))]
        assert main(argv + ["--mode", "prism-sync"]) == 0
        out = capsys.readouterr().out
        results = [line for line in out.splitlines()
                   if line.startswith("[overlay/prism-sync+bg300k]")]
        assert len(results) == 1 and " fg: " in results[0], results
        validate_chrome_trace(json.loads(paths["--trace"].read_text()))
        assert paths["--metrics"].read_text().endswith("# EOF\n")
        assert json.loads(
            paths["--speedscope"].read_text())["profiles"]
        # The folded totals of each cpuN track equal that core's softirq
        # time in the metrics snapshot within 0.1%.
        folded = {}
        for line in paths["--folded"].read_text().splitlines():
            frames, _, ns = line.rpartition(" ")
            track = frames.split(";")[0]
            folded[track] = folded.get(track, 0) + int(ns)
        metrics = json.loads(paths["--metrics-json"].read_text())["metrics"]
        softirq = {f"cpu{s['labels']['cpu']}": s["value"]
                   for s in metrics["repro_cpu_time_ns"]["samples"]
                   if s["labels"]["context"] == "softirq"}
        assert folded and set(folded) <= set(softirq)
        for track, ns in softirq.items():
            assert abs(folded.get(track, 0) - ns) <= max(1, ns // 1000)
