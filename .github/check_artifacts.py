#!/usr/bin/env python3
"""Fail CI when a generated artifact sneaks into the git index.

Usage: check_artifacts.py [--max-bytes N]

Two checks over ``git ls-files`` (tracked files only — the working tree
may legitimately hold generated output):

1. **Artifact patterns** — trace/telemetry output (``*.trace.json``,
   ``*.prom``, ``*.folded``, ``*.speedscope.json``, ``*.metrics.json``,
   ``*.pstats``) and flow-record stores (``*.sqlite``, ``*.jsonl``)
   must never be committed; they are regenerated on demand
   and bloat history (the repo once carried a stray 14 MB trace dump).
2. **Size cap** — any tracked file above ``--max-bytes`` (default 1 MB)
   fails; committed inputs in this repo are all text and small.
"""

import argparse
import fnmatch
import os
import subprocess
import sys

#: Glob patterns of generated artifacts that must never be tracked.
ARTIFACT_PATTERNS = (
    "*.trace.json",
    "*.prom",
    "*.folded",
    "*.speedscope.json",
    "*.metrics.json",
    "*.pstats",
    "*.report.json",
    # Flow-record stores (repro.flows sinks) are regenerated from any
    # run with --flows; a committed one is always a stray export.
    "*.sqlite",
    "*.jsonl",
)

DEFAULT_MAX_BYTES = 1024 * 1024


def tracked_files(root="."):
    out = subprocess.run(["git", "ls-files", "-z"], cwd=root, check=True,
                         capture_output=True).stdout
    return [p.decode() for p in out.split(b"\0") if p]


def check(root=".", max_bytes=DEFAULT_MAX_BYTES):
    """Return a list of violation messages (empty when clean)."""
    problems = []
    for path in tracked_files(root):
        name = os.path.basename(path)
        for pattern in ARTIFACT_PATTERNS:
            if fnmatch.fnmatch(name, pattern):
                problems.append(
                    f"{path}: matches artifact pattern {pattern!r} — "
                    "generated output must not be committed")
                break
        full = os.path.join(root, path)
        try:
            size = os.path.getsize(full)
        except OSError:
            continue  # deleted in worktree but still indexed — size n/a
        if size > max_bytes:
            problems.append(
                f"{path}: {size:,} bytes exceeds the "
                f"{max_bytes:,}-byte cap for committed files")
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--max-bytes", type=int, default=DEFAULT_MAX_BYTES,
                        help="size cap for tracked files (default: 1 MiB)")
    args = parser.parse_args(argv)
    problems = check(max_bytes=args.max_bytes)
    for problem in problems:
        print(f"ERROR: {problem}", file=sys.stderr)
    if problems:
        print(f"\n{len(problems)} artifact-hygiene violation(s); "
              "remove the file(s) or extend .gitignore", file=sys.stderr)
        return 1
    print("artifact hygiene OK: no committed trace artifacts, "
          f"all tracked files under {args.max_bytes:,} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
