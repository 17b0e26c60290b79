"""reprolint — determinism & simulation-safety static analysis.

Usage (all equivalent)::

    repro lint [paths ...] [options]
    python -m repro.devtools.lint [paths ...] [options]

With no paths, lints ``src`` and ``scripts`` under the current
directory.  Options::

    --format text|json    report style (default text)
    --baseline PATH       subtract a committed baseline (see baseline.py)
    --write-baseline      rewrite PATH from the current findings and exit
    --rules R001,R004     run a subset of rules
    --list-rules          print the rule table and exit
    --graph               dump the import graph / layering analysis (JSON)

Exit codes: **0** clean (modulo baseline), **1** new findings,
**2** usage error (bad path/format/rule, malformed baseline).

The pass is whole-program: every file is parsed once into the
:class:`~repro.devtools.index.ProjectIndex`, the per-file AST rules
run on parse, and the graph rules (R007 parity, R009 layering, R011
single-writer) run over the module summaries.

Suppression: non-determinism rules honour a
``# reprolint: disable=Rxxx`` pragma on the flagged line (or on the
first line of the flagged multi-line statement); the determinism
rules R001–R004 ignore pragmas *and* baseline entries — those
findings can only be fixed.  R013 accepts a justified pragma but can
never be baselined.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

from repro.devtools.baseline import Baseline, BaselineError
from repro.devtools.index import ProjectIndex
from repro.devtools.rules import (
    DETERMINISM_RULES,
    RULES,
    Finding,
    Rule,
    rule_table,
)

__all__ = [
    "Finding",
    "LintReport",
    "build_index",
    "findings_from_index",
    "lint_paths",
    "main",
    "LintUsageError",
]


class LintUsageError(Exception):
    """Bad invocation (unknown rule, missing path, bad baseline): exit 2."""


# ---------------------------------------------------------------------------
# discovery
# ---------------------------------------------------------------------------


def discover_files(paths: Sequence[str | Path]) -> list[Path]:
    """Python files under the given files/directories, sorted."""
    files: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            files.add(path)
        elif path.is_dir():
            files.update(p for p in path.rglob("*.py"))
        else:
            raise LintUsageError(f"no such file or directory: {path}")
    return sorted(files)


# ---------------------------------------------------------------------------
# the pass
# ---------------------------------------------------------------------------


def _suppressed(finding: Finding, pragmas: Dict[int, Tuple[str, ...]]) -> bool:
    """True when pragma coverage disables this (non-determinism) rule.

    Coverage comes from the module summary: the pragma's own line plus,
    for simple multi-line statements, every continuation line — so a
    pragma on the first line of a wrapped call suppresses findings the
    parser anchors further down.
    """
    if finding.rule_id in DETERMINISM_RULES:
        return False
    return finding.rule_id in pragmas.get(finding.line, ())


def build_index(
    paths: Sequence[str | Path], root: Optional[Path] = None
) -> ProjectIndex:
    """Index every Python file under ``paths`` (all per-file rules run;
    a ``--rules`` subset only filters what is reported)."""
    index = ProjectIndex(root=root or Path.cwd())
    index.build(discover_files(paths), RULES)
    return index


def findings_from_index(
    index: ProjectIndex, rules: Sequence[Rule] = RULES
) -> list[Finding]:
    """Pragma-filtered findings for ``rules`` from a built index."""
    selected = {r.rule_id for r in rules}
    findings: list[Finding] = []
    for rel_path in sorted(index.findings):
        pragmas = index.pragmas_for(rel_path)
        for finding in index.findings[rel_path]:
            if finding.rule_id in selected and not _suppressed(finding, pragmas):
                findings.append(finding)
    for rule in rules:
        for finding in rule.check_index(index):
            if not _suppressed(finding, index.pragmas_for(finding.path)):
                findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    return findings


def lint_paths(
    paths: Sequence[str | Path],
    rules: Sequence[Rule] = RULES,
    root: Optional[Path] = None,
) -> list[Finding]:
    """Run the rule set over every Python file under ``paths``.

    Findings come back sorted by (path, line, rule) and already
    filtered through inline pragmas; baseline subtraction is the
    caller's concern (see :class:`Baseline`).
    """
    return findings_from_index(build_index(paths, root=root), rules)


class LintReport:
    """Findings + baseline arithmetic + reporters."""

    def __init__(self, findings: list[Finding], baseline: Optional[Baseline] = None):
        self.findings = findings
        self.baseline = baseline
        self.new = baseline.filter_new(findings) if baseline else list(findings)

    @property
    def ok(self) -> bool:
        return not self.new

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def to_text(self) -> str:
        lines = []
        for f in self.new:
            lines.append(f"{f.path}:{f.line}:{f.col + 1}: {f.rule_id} {f.message}")
            lines.append(f"    hint: {f.hint}")
        baselined = len(self.findings) - len(self.new)
        summary = f"{len(self.new)} finding(s)"
        if baselined:
            summary += f" ({baselined} baselined occurrence(s) suppressed)"
        lines.append(summary)
        return "\n".join(lines)

    def to_json(self) -> str:
        payload = {
            "version": 1,
            "ok": self.ok,
            "findings": [f.to_dict() for f in self.new],
            "baselined": len(self.findings) - len(self.new),
            "counts": self._counts(),
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def _counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for f in self.new:
            counts[f.rule_id] = counts.get(f.rule_id, 0) + 1
        return counts


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="determinism & simulation-safety static analysis",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files/directories to lint (default: src and scripts)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        dest="fmt",
        help="report format (default text)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="baseline JSON; its findings don't fail the run",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="rewrite --baseline from the current findings and exit 0",
    )
    parser.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule subset (e.g. R001,R004)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule table and exit"
    )
    parser.add_argument(
        "--graph",
        action="store_true",
        help="dump the import graph and layering analysis as JSON "
        "and exit 0",
    )
    return parser


def _select_rules(spec: Optional[str]) -> tuple[Rule, ...]:
    if spec is None:
        return RULES
    wanted = {r.strip().upper() for r in spec.split(",") if r.strip()}
    known = {r.rule_id for r in RULES}
    unknown = wanted - known
    if unknown or not wanted:
        raise LintUsageError(
            f"unknown rule id(s): {sorted(unknown) or spec!r}; "
            f"known: {sorted(known)}"
        )
    return tuple(r for r in RULES if r.rule_id in wanted)


def _default_paths() -> list[str]:
    paths = [p for p in ("src", "scripts") if Path(p).is_dir()]
    if not paths:
        raise LintUsageError(
            "no paths given and neither ./src nor ./scripts exists"
        )
    return paths


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors already
        return int(exc.code or 0)
    if args.list_rules:
        for rule_id, title, _hint in rule_table():
            print(f"{rule_id}  {title}")
        return 0
    try:
        rules = _select_rules(args.rules)
        paths = args.paths or _default_paths()
        index = build_index(paths)
        if args.graph:
            from repro.devtools.graphs import graph_payload

            print(json.dumps(graph_payload(index), indent=2, sort_keys=True))
            return 0
        findings = findings_from_index(index, rules)
        if args.write_baseline:
            if not args.baseline:
                raise LintUsageError("--write-baseline requires --baseline PATH")
            Baseline.from_findings(findings).save(args.baseline)
            print(f"wrote {len(findings)} finding(s) to {args.baseline}")
            return 0
        baseline = Baseline.load(args.baseline) if args.baseline else None
    except (LintUsageError, BaselineError, OSError, SyntaxError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    report = LintReport(findings, baseline)
    print(report.to_json() if args.fmt == "json" else report.to_text())
    return report.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
