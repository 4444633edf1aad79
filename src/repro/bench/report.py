"""Paper-vs-measured reporting tables.

Every ``python -m repro <figure>`` run prints one of these tables: the
quantity the paper reports, the paper's value (usually a ratio or a
qualitative shape), and what this reproduction measured.  EXPERIMENTS.md
is assembled from these outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence

__all__ = ["ReproRow", "format_table", "format_experiment_header"]


@dataclass(frozen=True)
class ReproRow:
    """One paper-vs-measured comparison line."""

    quantity: str
    paper: str
    measured: str
    holds: bool

    @property
    def verdict(self) -> str:
        return "ok" if self.holds else "MISMATCH"


def format_experiment_header(figure: str, title: str) -> str:
    bar = "=" * 72
    return f"{bar}\n{figure}: {title}\n{bar}"


def format_table(rows: Iterable[ReproRow]) -> str:
    """Render rows as an aligned text table."""
    rows = list(rows)
    if not rows:
        return "(no rows)"
    headers = ("quantity", "paper", "measured", "verdict")
    table: List[Sequence[str]] = [headers] + [
        (row.quantity, row.paper, row.measured, row.verdict) for row in rows]
    widths = [max(len(line[col]) for line in table) for col in range(4)]
    lines = []
    for index, line in enumerate(table):
        rendered = "  ".join(cell.ljust(width)
                             for cell, width in zip(line, widths))
        lines.append(rendered.rstrip())
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)
