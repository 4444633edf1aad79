"""OpenMetrics text exposition of a metrics snapshot.

Renders the subset of the OpenMetrics 1.0 text format that the
snapshot's three metric types need: ``# TYPE``/``# HELP`` metadata,
``_total`` suffixed counter samples, plain gauge samples,
``_bucket{le=...}`` / ``_sum`` / ``_count`` histogram series, and the
mandatory ``# EOF`` terminator.  Families render in the snapshot's
order, samples in theirs, and no timestamps are emitted (a simulated
run has no meaningful wall clock).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Tuple

__all__ = ["render_openmetrics", "write_openmetrics"]

#: Label *values* escape backslash, double-quote, and newline (they are
#: rendered inside double quotes).
_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n"}

#: HELP text is not quoted, so per the exposition format only backslash
#: and newline are escaped there — a double quote passes through
#: verbatim.
_HELP_ESCAPES = {"\\": "\\\\", "\n": "\\n"}


def _escape(value: str, escapes: Dict[str, str] = _ESCAPES) -> str:
    return "".join(escapes.get(ch, ch) for ch in value)


def _labels(labels: Iterable[Tuple[str, str]]) -> str:
    parts = [f'{name}="{_escape(value)}"' for name, value in labels]
    return "{" + ",".join(parts) + "}" if parts else ""


def _num(value: Any) -> str:
    """A canonical decimal rendering (ints without the trailing ``.0``)."""
    if isinstance(value, float) and value.is_integer() and \
            abs(value) < 2 ** 53:
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def render_openmetrics(snapshot: Dict[str, Any]) -> str:
    """The full exposition of *snapshot*, ``# EOF`` included."""
    lines = []
    for name, family in snapshot["metrics"].items():
        kind = family["type"]
        lines.append(f"# TYPE {name} {kind}")
        if family["help"]:
            lines.append(f"# HELP {name} "
                         f"{_escape(family['help'], _HELP_ESCAPES)}")
        for sample in family["samples"]:
            labels = list(sample["labels"].items())
            if kind == "histogram":
                for bound, count in sample["buckets"].items():
                    le = bound if bound == "+Inf" else _num(float(bound))
                    lines.append(f"{name}_bucket"
                                 f"{_labels(labels + [('le', le)])} {count}")
                lines.append(f"{name}_sum{_labels(labels)} "
                             f"{_num(sample['sum'])}")
                lines.append(f"{name}_count{_labels(labels)} "
                             f"{sample['count']}")
            else:
                suffix = "_total" if kind == "counter" else ""
                lines.append(f"{name}{suffix}{_labels(labels)} "
                             f"{_num(sample['value'])}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def write_openmetrics(path, snapshot: Dict[str, Any]):
    """Write the exposition of *snapshot* to *path*; returns the path."""
    from pathlib import Path

    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(render_openmetrics(snapshot))
    return out
