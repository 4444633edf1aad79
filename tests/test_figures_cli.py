"""Tests for the programmatic figure registry and the CLI."""

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
