"""Baseline round-trips, count budgets, and determinism-rule refusal."""

from __future__ import annotations

import json

import pytest

from repro.devtools.baseline import BASELINE_VERSION, Baseline, BaselineError
from repro.devtools.rules import Finding


def finding(rule_id="R005", path="src/a.py", line=3, snippet="x == y"):
    return Finding(
        rule_id=rule_id,
        path=path,
        line=line,
        col=0,
        message="m",
        hint="h",
        snippet=snippet,
    )


def test_round_trip_write_load_filter(tmp_path):
    path = tmp_path / "baseline.json"
    findings = [finding(), finding(line=9), finding(path="src/b.py")]
    Baseline.from_findings(findings).save(path)

    loaded = Baseline.load(path)
    assert len(loaded) == 3
    # Every baselined finding is absorbed, regardless of line number.
    assert loaded.filter_new(findings) == []
    # A third copy of the same source line exceeds the count budget.
    extra = finding(line=42)
    assert loaded.filter_new([*findings, extra]) == [extra]
    # Unknown fingerprints are always new.
    fresh = finding(rule_id="R006")
    assert loaded.filter_new([fresh]) == [fresh]


def test_fingerprint_is_line_number_free():
    assert finding(line=3).fingerprint() == finding(line=300).fingerprint()
    assert finding(snippet="a == b").fingerprint() != finding().fingerprint()


def test_saved_file_is_stable_json(tmp_path):
    path = tmp_path / "baseline.json"
    Baseline.from_findings([finding(), finding(line=9)]).save(path)
    payload = json.loads(path.read_text())
    assert payload["version"] == BASELINE_VERSION
    assert payload["findings"] == {"R005:src/a.py:x == y": 2}
    # Re-saving an identical baseline is byte-stable (sorted keys).
    before = path.read_text()
    Baseline.load(path).save(path)
    assert path.read_text() == before


@pytest.mark.parametrize("rule_id", ["R001", "R002", "R003", "R004", "R013"])
def test_determinism_rules_cannot_be_written(rule_id):
    # R013 rides along: a wall-clock flow into a replayable artifact is
    # never legacy debt (pragma with justification is the only out).
    with pytest.raises(BaselineError, match="cannot be baselined"):
        Baseline.from_findings([finding(rule_id=rule_id)])


@pytest.mark.parametrize("rule_id", ["R001", "R002", "R003", "R004", "R013"])
def test_determinism_rules_rejected_at_load(tmp_path, rule_id):
    path = tmp_path / "baseline.json"
    path.write_text(
        json.dumps(
            {"version": 1, "findings": {f"{rule_id}:src/a.py:import time": 1}}
        )
    )
    with pytest.raises(BaselineError, match="zero suppressions"):
        Baseline.load(path)


def _two_file_tree(tree):
    tree.write(
        "src/repro/scheduling/score.py",
        "def same(score_a, score_b):\n    return score_a == score_b\n",
    )
    tree.write("src/repro/runner/cfg.py", "def collect(items=[]):\n    return items\n")


def test_cross_file_findings_round_trip_through_a_baseline(tree, tmp_path):
    # Findings from several files baseline and filter as one table.
    _two_file_tree(tree)
    findings = tree.lint()
    assert sorted(f.rule_id for f in findings) == ["R005", "R006"]

    path = tmp_path / "baseline.json"
    Baseline.from_findings(findings).save(path)
    assert Baseline.load(path).filter_new(findings) == []


def test_cross_file_fingerprints_survive_unrelated_edits(tree, tmp_path):
    # Fingerprints are line-number-free: pushing the violating default
    # down the file must not resurrect a baselined R006 finding.
    _two_file_tree(tree)
    path = tmp_path / "baseline.json"
    Baseline.from_findings(tree.lint()).save(path)

    tree.write(
        "src/repro/runner/cfg.py",
        '"""Docstring added above the def."""\n\n'
        "def collect(items=[]):\n    return items\n",
    )
    moved = tree.lint()
    assert any(f.rule_id == "R006" and f.line == 3 for f in moved)
    assert Baseline.load(path).filter_new(moved) == []


def test_fingerprints_are_stable_under_finding_reorder(tree):
    _two_file_tree(tree)
    findings = tree.lint()
    forward = Baseline.from_findings(findings)
    backward = Baseline.from_findings(list(reversed(findings)))
    assert forward.fingerprints == backward.fingerprints


@pytest.mark.parametrize(
    "payload",
    [
        "not json {",
        json.dumps([1, 2]),
        json.dumps({"version": 99, "findings": {}}),
        json.dumps({"version": 1, "findings": [1]}),
        json.dumps({"version": 1, "findings": {"R005:a:b": 0}}),
        json.dumps({"version": 1, "findings": {"R005:a:b": "two"}}),
        # Booleans are ints to isinstance and `True == 1`.
        json.dumps({"version": True, "findings": {}}),
        json.dumps({"version": 1, "findings": {"R005:a:b": True}}),
    ],
)
def test_malformed_baselines_rejected(tmp_path, payload):
    path = tmp_path / "baseline.json"
    path.write_text(payload)
    with pytest.raises(BaselineError):
        Baseline.load(path)
