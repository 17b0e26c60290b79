"""CLI contract: exit codes 0/1/2, reporters, rule selection.

Exercised through ``python -m repro.devtools.lint``'s ``main()`` and,
for the integration path, through ``repro lint`` (``repro.cli.main``).
"""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.cli import main as cli_main
from repro.devtools.lint import main as lint_main

CLEAN = "def add(a, b):\n    return a + b\n"
DIRTY = textwrap.dedent(
    """
    import time

    def stamp():
        return time.time()
    """
).lstrip()


@pytest.fixture
def project(tmp_path, monkeypatch):
    """A minimal repo layout; cwd moved there so default paths resolve."""
    (tmp_path / "src" / "repro" / "scheduling").mkdir(parents=True)
    (tmp_path / "scripts").mkdir()
    monkeypatch.chdir(tmp_path)
    return tmp_path


def write(root, rel, text):
    (root / rel).write_text(text, encoding="utf-8")


def test_exit_0_on_clean_tree(project, capsys):
    write(project, "src/repro/scheduling/ok.py", CLEAN)
    assert lint_main(["src"]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_exit_1_on_findings_with_hint_in_text(project, capsys):
    write(project, "scripts/run.py", DIRTY)
    assert lint_main(["scripts"]) == 1
    out = capsys.readouterr().out
    assert "R001" in out and "hint:" in out and "scripts/run.py:4" in out


def test_default_paths_are_src_and_scripts(project, capsys):
    write(project, "scripts/run.py", DIRTY)
    assert lint_main([]) == 1
    assert "R001" in capsys.readouterr().out


def test_json_report_shape(project, capsys):
    write(project, "scripts/run.py", DIRTY)
    assert lint_main(["scripts", "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    assert payload["counts"] == {"R001": 1}
    (entry,) = payload["findings"]
    assert entry["rule"] == "R001"
    assert entry["path"] == "scripts/run.py"
    assert entry["fingerprint"].startswith("R001:scripts/run.py:")


def test_usage_errors_exit_2(project, capsys):
    assert lint_main(["no/such/dir"]) == 2
    assert lint_main(["src", "--rules", "R999"]) == 2
    assert lint_main(["src", "--rules", "R013"]) == 2  # retired
    assert lint_main(["src", "--format", "yaml"]) == 2  # argparse itself
    capsys.readouterr()


def test_rules_subset(project, capsys):
    write(project, "scripts/run.py", DIRTY)
    assert lint_main(["scripts", "--rules", "R002"]) == 0
    assert lint_main(["scripts", "--rules", "r001,R002"]) == 1
    capsys.readouterr()


def test_list_rules(project, capsys):
    assert lint_main(["--list-rules"]) == 0
    ids = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert ids == ["R001", "R002", "R003", "R004", "R005", "R006"]


def test_repro_cli_lint_subcommand(project, capsys):
    write(project, "scripts/run.py", DIRTY)
    assert cli_main(["lint", "scripts"]) == 1
    assert "R001" in capsys.readouterr().out
    write(project, "scripts/run.py", CLEAN)
    assert cli_main(["lint", "scripts", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True
