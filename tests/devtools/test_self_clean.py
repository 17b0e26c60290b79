"""The repo's own source must satisfy its lint gate.

This is the dogfooding test behind ``make lint`` / the CI lint job:
``src`` and ``scripts`` lint clean, and the determinism rules (which
admit no pragma) are clean outright.
"""

from __future__ import annotations

from pathlib import Path

import pytest

import repro
from repro.devtools.lint import LintReport, lint_paths
from repro.devtools.rules import DETERMINISM_RULES

REPO_ROOT = Path(repro.__file__).resolve().parents[2]


def repo_paths() -> list[Path]:
    paths = [REPO_ROOT / "src"]
    if (REPO_ROOT / "scripts").is_dir():
        paths.append(REPO_ROOT / "scripts")
    return paths


@pytest.fixture(scope="module")
def findings():
    return lint_paths(repo_paths(), root=REPO_ROOT)


def test_src_and_scripts_lint_clean(findings):
    report = LintReport(findings)
    assert report.ok, "lint findings:\n" + report.to_text()


def test_determinism_rules_admit_zero_findings(findings):
    hard = [f for f in findings if f.rule_id in DETERMINISM_RULES]
    assert hard == [], "determinism findings (no pragma applies):\n" + "\n".join(
        f"{f.path}:{f.line}: {f.rule_id} {f.message}" for f in hard
    )
