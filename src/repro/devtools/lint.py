"""reprolint — determinism & simulation-safety static analysis.

Usage (all equivalent)::

    repro lint [paths ...] [options]
    python -m repro.devtools.lint [paths ...] [options]

With no paths, lints ``src`` and ``scripts`` under the current
directory.  Options::

    --format text|json    report style (default text)
    --rules R001,R004     run a subset of rules
    --list-rules          print the rule table and exit

Exit codes: **0** clean, **1** findings, **2** usage error (bad
path/format/rule).

The pass is one loop over the files: parse, run every rule's
``check``, drop what a pragma covers; :class:`LintReport` renders the
rest.

Suppression: non-determinism rules honour a
``# reprolint: disable=Rxxx`` pragma on the flagged line (or on the
first line of the flagged multi-line statement); the determinism
rules R001–R004 ignore pragmas — those findings can only be fixed.
R013 accepts a pragma only with a justification.
"""

from __future__ import annotations

import argparse
import ast
import json
import re
import sys
from pathlib import Path
from typing import Dict, Optional, Sequence, Set

from repro.devtools.rules import (
    DETERMINISM_RULES,
    RULES,
    Finding,
    ImportMap,
    ModuleContext,
    Rule,
    rule_table,
)

__all__ = [
    "Finding",
    "LintReport",
    "lint_paths",
    "main",
    "LintUsageError",
]

_PRAGMA = re.compile(r"#\s*reprolint:\s*disable=([A-Z0-9, ]+)")


class LintUsageError(Exception):
    """Bad invocation (unknown rule, missing path): exit 2."""


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


def _module_name(rel: Path) -> str:
    """Dotted module name for reporting and rule scoping.

    Files under a ``src`` directory get their package-dotted name
    (``src/repro/cli.py`` -> ``repro.cli``); anything else is rooted at
    its top directory name (``scripts/regen_golden.py`` ->
    ``scripts.regen_golden``).
    """
    parts = list(rel.with_suffix("").parts)
    if "src" in parts:
        parts = parts[parts.index("src") + 1 :]
    elif len(parts) > 1:
        parts = parts[-2:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) or rel.stem


# ---------------------------------------------------------------------------
# pragmas
# ---------------------------------------------------------------------------

#: Compound statements keep pragma coverage on their header line only —
#: extending an `if`/`for` pragma over the whole suite would suppress
#: far more than the author wrote it against.
_SIMPLE_STMTS = (
    ast.Assign,
    ast.AnnAssign,
    ast.AugAssign,
    ast.Expr,
    ast.Return,
    ast.Raise,
    ast.Assert,
    ast.Delete,
    ast.Import,
    ast.ImportFrom,
    ast.Global,
    ast.Nonlocal,
    ast.Pass,
)


def pragma_coverage(lines: Sequence[str], tree: ast.Module) -> Dict[int, Set[str]]:
    """Line -> disabled rule codes, with multi-line statement extents.

    A ``# reprolint: disable=Rxxx`` pragma on the *first* line of a
    simple multi-line statement (a parenthesized call, a wrapped
    comparison) covers every continuation line, so findings anchored to
    a continuation line are suppressed by the pragma the author could
    actually write — black and friends reflow the line the finding
    lands on, not the line the pragma sits on.
    """
    coverage: Dict[int, Set[str]] = {}
    for lineno, text in enumerate(lines, start=1):
        match = _PRAGMA.search(text)
        if match:
            codes = {c.strip() for c in match.group(1).split(",") if c.strip()}
            coverage.setdefault(lineno, set()).update(codes)
    if coverage:
        for node in ast.walk(tree):
            if not isinstance(node, _SIMPLE_STMTS):
                continue
            codes = coverage.get(node.lineno)
            if not codes:
                continue
            for lineno in range(node.lineno + 1, (node.end_lineno or node.lineno) + 1):
                coverage.setdefault(lineno, set()).update(codes)
    return coverage


def _suppressed(finding: Finding, pragmas: Dict[int, Set[str]]) -> bool:
    """True when a pragma covers this (non-determinism) finding."""
    if finding.rule_id in DETERMINISM_RULES:
        return False
    return finding.rule_id in pragmas.get(finding.line, ())


# ---------------------------------------------------------------------------
# the pass
# ---------------------------------------------------------------------------


def lint_paths(
    paths: Sequence[str | Path],
    rules: Sequence[Rule] = RULES,
    root: Optional[Path] = None,
) -> list[Finding]:
    """Run ``rules`` over every Python file under ``paths``.

    Findings come back sorted by (path, line, rule) and already
    filtered through inline pragmas.
    """
    root = Path.cwd() if root is None else Path(root)
    findings: list[Finding] = []
    for path in discover_files(paths):
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
        rel = path.relative_to(root) if path.is_relative_to(root) else path
        module = _module_name(rel)
        lines = source.splitlines()
        ctx = ModuleContext(
            path=path,
            rel_path=rel.as_posix(),
            module=module,
            tree=tree,
            lines=lines,
            imports=ImportMap.collect(tree, module),
        )
        pragmas = pragma_coverage(lines, tree)
        for rule in rules:
            if rule.applies_to(module):
                findings.extend(
                    f for f in rule.check(ctx) if not _suppressed(f, pragmas)
                )
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    return findings


class LintReport:
    """Findings + reporters."""

    def __init__(self, findings: list[Finding]):
        self.findings = findings

    @property
    def ok(self) -> bool:
        return not self.findings

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def to_text(self) -> str:
        lines = []
        for f in self.findings:
            lines.append(f"{f.path}:{f.line}:{f.col + 1}: {f.rule_id} {f.message}")
            lines.append(f"    hint: {f.hint}")
        lines.append(f"{len(self.findings)} finding(s)")
        return "\n".join(lines)

    def to_json(self) -> str:
        payload = {
            "version": 1,
            "ok": self.ok,
            "findings": [f.to_dict() for f in self.findings],
            "counts": self._counts(),
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def _counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for f in self.findings:
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
        "--rules",
        default=None,
        help="comma-separated rule subset (e.g. R001,R004)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule table and exit"
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
        findings = lint_paths(args.paths or _default_paths(), rules)
    except (LintUsageError, OSError, SyntaxError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    report = LintReport(findings)
    print(report.to_json() if args.fmt == "json" else report.to_text())
    return report.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
