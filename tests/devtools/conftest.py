"""Shared helper: lint an in-memory source tree.

Each test writes fixture modules into a temp directory laid out like
the real repo (``src/repro/...``, ``scripts/...``) so package-scoped
rules (R004, R005) see the dotted module names they key on.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.devtools.lint import lint_paths
from repro.devtools.rules import Finding


class LintTree:
    """A temp source tree plus a one-call lint runner."""

    def __init__(self, root: Path):
        self.root = root

    def write(self, rel_path: str, source: str) -> Path:
        path = self.root / rel_path
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
        return path

    def lint(self, *rel_paths: str) -> list[Finding]:
        paths = [self.root / p for p in rel_paths] if rel_paths else [self.root]
        return lint_paths(paths, root=self.root)

    def rule_ids(self, *rel_paths: str) -> list[str]:
        return [f.rule_id for f in self.lint(*rel_paths)]


@pytest.fixture
def tree(tmp_path: Path) -> LintTree:
    return LintTree(tmp_path)
