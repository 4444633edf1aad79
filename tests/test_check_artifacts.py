"""The artifact-hygiene checker CI runs before the test suite."""

from __future__ import annotations

import importlib.util
import subprocess
from pathlib import Path


def test_check_artifacts_detects_patterns_and_size(tmp_path):
    """The artifact-hygiene checker flags tracked traces and huge files."""
    spec = importlib.util.spec_from_file_location(
        "check_artifacts",
        Path(__file__).resolve().parents[1] / ".github" /
        "check_artifacts.py")
    check_artifacts = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check_artifacts)

    subprocess.run(["git", "init", "-q", str(tmp_path)], check=True)
    (tmp_path / "ok.py").write_text("x = 1\n")
    (tmp_path / "bad.trace.json").write_text("{}")
    (tmp_path / "huge.txt").write_text("a" * 2048)
    subprocess.run(["git", "-C", str(tmp_path), "add", "-A"], check=True)

    problems = check_artifacts.check(root=str(tmp_path), max_bytes=1024)
    assert any("bad.trace.json" in p and "artifact pattern" in p
               for p in problems)
    assert any("huge.txt" in p and "exceeds" in p for p in problems)
    assert not any("ok.py" in p for p in problems)
