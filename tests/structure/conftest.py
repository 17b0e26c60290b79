"""The parsed ``src/repro`` tree the structural fences read.

Each test in this directory pins one shape of the real tree — "there is
exactly one X" — with plain ``ast`` (or ``inspect``) against the actual
modules, not a general analyzer: a fence names the files it is about.
The tree is parsed once per session.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro

ROOT = Path(repro.__file__).resolve().parent


@pytest.fixture(scope="session")
def src_tree() -> dict[str, ast.Module]:
    """``{"simulator/engine.py": <parsed module>, ...}`` for ``src/repro``."""
    return {
        path.relative_to(ROOT).as_posix(): ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(ROOT.rglob("*.py"))
    }


@pytest.fixture(scope="session")
def src_calls(src_tree) -> list[tuple[str, str, str, ast.Call]]:
    """``(module, enclosing top-level name, called name, call)`` for
    every call in ``src/repro``."""
    calls = []
    for module, tree in src_tree.items():
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
                    calls.append((module, getattr(top, "name", "<module>"), name, node))
    return calls
