"""Run-to-run metric diffing.

Compares two metric documents and reports per-series relative deltas,
optionally failing when any delta exceeds a threshold.  Two input
shapes are understood:

- a **telemetry snapshot** (``{"version": 1, "metrics": {...}}`` — what
  :meth:`MetricsRegistry.snapshot` produces and ``--metrics`` writes
  alongside the ``.prom`` exposition);
- a serialized **ExperimentResult** carrying an embedded ``telemetry``
  snapshot (its scalar measurement fields are diffed too).

Baseline series that are missing or zero are *skipped with a warning*
(a relative delta is undefined), never a traceback — new metrics appear
and old ones drain to zero as the simulator grows, and the diff must
stay usable across those transitions.  A missing or unreadable input
*file* is an error (exit 2): a gate that passes on a typo'd path is no
gate.

CLI: ``python -m repro --metrics-diff a.json b.json`` or
``python -m repro.telemetry.diff a.json b.json [--threshold PCT]``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

__all__ = ["flatten_document", "load_metrics", "diff_metrics",
           "print_diff", "main"]

Number = Union[int, float]


def _series_key(name: str, labels: Dict[str, str]) -> str:
    if not labels:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
    return f"{name}{{{inner}}}"


def _flatten_snapshot(snapshot: Dict[str, Any],
                      out: Dict[str, Number]) -> None:
    for name, family in snapshot.get("metrics", {}).items():
        for sample in family.get("samples", []):
            labels = sample.get("labels", {})
            if family.get("type") == "histogram":
                out[_series_key(f"{name}_sum", labels)] = sample["sum"]
                out[_series_key(f"{name}_count", labels)] = sample["count"]
            else:
                value = sample.get("value")
                if isinstance(value, (int, float)):
                    out[_series_key(name, labels)] = value


def flatten_document(doc: Dict[str, Any]) -> Dict[str, Number]:
    """Any supported document shape -> flat ``{series: value}``."""
    out: Dict[str, Number] = {}
    if "metrics" in doc:
        _flatten_snapshot(doc, out)
        return out
    # A serialized ExperimentResult: scalar fields + embedded telemetry.
    for key, value in doc.items():
        if key in ("version", "config"):
            continue
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            out[key] = value
    drops = doc.get("drops")
    if isinstance(drops, dict):
        for queue, count in drops.items():
            out[_series_key("drops", {"queue": queue})] = count
    telemetry = doc.get("telemetry")
    if isinstance(telemetry, dict):
        _flatten_snapshot(telemetry, out)
    return out


def load_metrics(path: Union[str, Path]) -> Dict[str, Number]:
    """Load and flatten one metrics document from disk."""
    with Path(path).open(encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise SystemExit(f"{path}: expected a JSON object, "
                         f"got {type(doc).__name__}")
    return flatten_document(doc)


def diff_metrics(baseline: Dict[str, Number], current: Dict[str, Number],
                 match: str = "") -> Tuple[List[Tuple[str, Number, Number,
                                                      float]], List[str]]:
    """Per-series relative deltas, plus the skipped-series warnings.

    Returns ``(rows, skipped)`` where each row is
    ``(series, old, new, delta_fraction)`` and *skipped* lists series a
    relative delta could not be computed for (missing or zero baseline,
    missing current).
    """
    rows: List[Tuple[str, Number, Number, float]] = []
    skipped: List[str] = []
    for series in sorted(set(baseline) | set(current)):
        if match and match not in series:
            continue
        old = baseline.get(series)
        new = current.get(series)
        if old is None:
            skipped.append(f"{series}: no baseline value")
            continue
        if new is None:
            skipped.append(f"{series}: no current value")
            continue
        if old == 0:
            if new != 0:
                skipped.append(f"{series}: baseline is zero "
                               f"(current {new:g})")
            continue
        rows.append((series, old, new, (new - old) / old))
    return rows, skipped


def print_diff(rows, skipped, threshold_pct: Optional[float],
               file=None) -> int:
    """Render the diff table; returns the number of threshold breaches."""
    file = file or sys.stdout
    breaches = 0
    flagged = []
    print("| series | baseline | current | delta |", file=file)
    print("|---|---:|---:|---:|", file=file)
    for series, old, new, delta in rows:
        mark = ""
        if threshold_pct is not None and abs(delta) * 100 > threshold_pct:
            breaches += 1
            flagged.append(series)
            mark = " ⚠"
        print(f"| {series} | {old:g} | {new:g} | "
              f"{delta * 100:+.2f}%{mark} |", file=file)
    if skipped:
        print(file=file)
        for warning in skipped:
            print(f"skipped: {warning}", file=file)
    if threshold_pct is not None:
        print(file=file)
        if breaches:
            print(f"FAIL: {breaches} series moved more than "
                  f"{threshold_pct:g}%: {', '.join(flagged)}", file=file)
        else:
            print(f"OK: no series moved more than {threshold_pct:g}%",
                  file=file)
    return breaches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry.diff",
        description=__doc__.split("\n")[0])
    parser.add_argument("baseline", help="baseline metrics JSON")
    parser.add_argument("current", help="current metrics JSON")
    parser.add_argument("--threshold", type=float, metavar="PCT",
                        default=None,
                        help="fail (exit 1) when any series' relative "
                             "delta exceeds PCT percent")
    parser.add_argument("--match", default="",
                        help="only diff series whose name contains this "
                             "substring")
    args = parser.parse_args(argv)
    try:
        baseline = load_metrics(args.baseline)
        current = load_metrics(args.current)
    except FileNotFoundError as exc:
        print(f"metrics-diff: {exc.filename}: not found", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"metrics-diff: unreadable JSON: {exc}", file=sys.stderr)
        return 2
    if not baseline:
        print("metrics-diff: baseline has no numeric series — skipped",
              file=sys.stderr)
        return 0
    rows, skipped = diff_metrics(baseline, current, match=args.match)
    breaches = print_diff(rows, skipped, args.threshold)
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main())
