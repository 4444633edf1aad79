"""Layering guard: the packet path knows only the tracer.

The kernel, the devices, the protocol stack and the applications emit
tracepoints; the observer (``repro.obs``), the telemetry hub
(``repro.telemetry``) and the flow tap (``repro.flows``) subscribe to
them.  This walks every ``repro`` import reachable from the packet-path
packages, including imports inside functions and ``TYPE_CHECKING``
blocks, and fails if any of the subscriber packages is among them.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, Set

import repro

SRC = Path(repro.__file__).resolve().parent.parent
PACKET_PATH = ("repro.kernel", "repro.netdev", "repro.stack", "repro.apps")
SUBSCRIBERS = [["repro", "telemetry"], ["repro", "flows"], ["repro", "obs"]]


def _source(module: str) -> Path:
    path = SRC.joinpath(*module.split("."))
    return path / "__init__.py" if path.is_dir() else path.with_suffix(".py")


def _module_of(name: str) -> str:
    """*name* if it is a module, else its package (``from m import f``)."""
    while name and not _source(name).exists():
        name = name.rpartition(".")[0]
    return name


def _imports(module: str) -> Iterator[str]:
    tree = ast.parse(_source(module).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        for name in names:
            if name.startswith("repro."):
                yield _module_of(name)


def _reachable() -> Dict[str, str]:
    """Every repro module reachable from the packet path -> an importer."""
    roots = [".".join(p.relative_to(SRC).with_suffix("").parts)
             for package in PACKET_PATH
             for p in sorted(_source(package).parent.glob("*.py"))]
    seen: Dict[str, str] = {root: "" for root in roots}
    todo = list(roots)
    while todo:
        module = todo.pop()
        for imported in _imports(module):
            if imported not in seen:
                seen[imported] = module
                todo.append(imported)
    return seen


def _chain(seen: Dict[str, str], module: str) -> str:
    links = [module]
    while seen.get(links[-1]):
        links.append(seen[links[-1]])
    return " <- ".join(links)


def test_packet_path_never_imports_a_subscriber_package():
    seen = _reachable()
    leaks: Set[str] = {_chain(seen, module) for module in seen
                       if module.split(".")[:2] in SUBSCRIBERS}
    assert not leaks, "\n".join(sorted(leaks))


def test_walk_covers_the_packet_path():
    seen = _reachable()
    for module in ("repro.kernel.core", "repro.netdev.nic",
                   "repro.stack.sockets", "repro.apps.sockperf",
                   "repro.trace.tracer"):
        assert module in seen
