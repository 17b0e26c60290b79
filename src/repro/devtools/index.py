"""Whole-program project index for reprolint.

One parse of the tree, many consumers: the :class:`ProjectIndex` turns
every file under the lint paths into a :class:`ModuleSummary` — the
module's resolved import records, its pragma coverage map, every
function signature, and the single-writer call/mutation summary the
serving rules key on — plus the raw per-file findings of the AST
rules.  The cross-module rules (R007 import parity, R009 layering,
R011 single-writer) consume *summaries*, never trees.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.devtools.rules import (
    Finding,
    ImportMap,
    ModuleContext,
    Rule,
)

__all__ = [
    "ImportRecord",
    "ModuleSummary",
    "ProjectIndex",
    "signature_of",
]

_PRAGMA = re.compile(r"#\s*reprolint:\s*disable=([A-Z0-9, ]+)")
_WRITER_MARK = re.compile(r"#\s*reprolint:\s*writer\b")

#: Controller methods the single-writer rule treats as read-only.
READONLY_CONTROLLER_METHODS = frozenset({"state", "ticket", "list_vms"})

#: The attribute name marking a class as a controller owner (R011).
CONTROLLER_ATTR = "controllers"


# ---------------------------------------------------------------------------
# summary model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ImportRecord:
    """One import statement, resolved to its target module."""

    target: str  # resolved dotted module ("repro.oversub.controller")
    line: int
    col: int
    deferred: bool  # inside a function body (runs lazily, not at import)
    type_checking: bool  # under an `if TYPE_CHECKING:` guard
    snippet: str  # stripped source line (finding fingerprints)


@dataclass
class ModuleSummary:
    """Everything the cross-module rules need to know about one file."""

    module: str
    rel_path: str
    imports: List[ImportRecord] = field(default_factory=list)
    #: line -> disabled rule codes; multi-line statements map every
    #: continuation line back to the codes on their first line.
    pragmas: Dict[int, Tuple[str, ...]] = field(default_factory=dict)
    #: "fn" / "Cls.meth" -> {"params": [sig strings], "line": def line}
    #: (R007 kernel parity reads these instead of reparsing).
    signatures: Dict[str, dict] = field(default_factory=dict)
    #: Per controller-owning class: writer annotations, the intra-class
    #: call graph and every controller mutation site (R011).
    writer_classes: Dict[str, dict] = field(default_factory=dict)


def signature_of(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> Tuple[str, ...]:
    """``name[=default]`` per parameter, skipping the first (self/cluster)."""
    args = fn.args
    params = [*args.posonlyargs, *args.args]
    defaults: List[Optional[ast.expr]] = [None] * (
        len(params) - len(args.defaults)
    ) + list(args.defaults)
    out: List[str] = []
    for arg, default in list(zip(params, defaults))[1:]:
        text = arg.arg
        if default is not None:
            text += f"={ast.unparse(default)}"
        out.append(text)
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        text = f"*, {arg.arg}"
        if default is not None:
            text += f"={ast.unparse(default)}"
        out.append(text)
    return tuple(out)


# ---------------------------------------------------------------------------
# summary extraction
# ---------------------------------------------------------------------------


def _collect_imports(ctx: ModuleContext) -> List[ImportRecord]:
    """Every import statement with its resolved target and context."""
    records: List[ImportRecord] = []
    package = ctx.module.rsplit(".", 1)[0] if "." in ctx.module else ""

    def snippet(node: ast.stmt) -> str:
        line = node.lineno - 1
        return ctx.lines[line].strip() if line < len(ctx.lines) else ""

    def resolve_from(node: ast.ImportFrom) -> str:
        base = node.module or ""
        if node.level:
            hops = ctx.module.split(".")
            hops = hops[: len(hops) - node.level]
            base = ".".join(hops + ([node.module] if node.module else []))
            base = base or package
        return base

    def visit(body: Sequence[ast.stmt], deferred: bool, guarded: bool) -> None:
        for node in body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    records.append(
                        ImportRecord(
                            alias.name, node.lineno, node.col_offset,
                            deferred, guarded, snippet(node),
                        )
                    )
            elif isinstance(node, ast.ImportFrom):
                target = resolve_from(node)
                if target:
                    records.append(
                        ImportRecord(
                            target, node.lineno, node.col_offset,
                            deferred, guarded, snippet(node),
                        )
                    )
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(node.body, True, guarded)
            elif isinstance(node, ast.ClassDef):
                visit(node.body, deferred, guarded)
            elif isinstance(node, ast.If):
                test = ast.unparse(node.test)
                is_tc = "TYPE_CHECKING" in test
                visit(node.body, deferred, guarded or is_tc)
                visit(node.orelse, deferred, guarded)
            elif isinstance(node, ast.Try):
                visit(node.body, deferred, guarded)
                for handler in node.handlers:
                    visit(handler.body, deferred, guarded)
                visit(node.orelse, deferred, guarded)
                visit(node.finalbody, deferred, guarded)
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                visit(node.body, deferred, guarded)
            elif isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
                visit(node.body, deferred, guarded)
                visit(node.orelse, deferred, guarded)
    visit(ctx.tree.body, False, False)
    return records


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


def pragma_coverage(
    lines: Sequence[str], tree: Optional[ast.Module] = None
) -> Dict[int, Tuple[str, ...]]:
    """Line -> disabled rule codes, with multi-line statement extents.

    A ``# reprolint: disable=Rxxx`` pragma on the *first* line of a
    simple multi-line statement (a parenthesized call, a wrapped
    comparison) covers every continuation line, so findings anchored to
    a continuation line are suppressed by the pragma the author could
    actually write — black and friends reflow the line the finding
    lands on, not the line the pragma sits on.
    """
    coverage: Dict[int, set] = {}
    for lineno, text in enumerate(lines, start=1):
        match = _PRAGMA.search(text)
        if match:
            codes = {c.strip() for c in match.group(1).split(",") if c.strip()}
            coverage.setdefault(lineno, set()).update(codes)
    if tree is not None and coverage:
        for node in ast.walk(tree):
            if not isinstance(node, _SIMPLE_STMTS):
                continue
            end = getattr(node, "end_lineno", node.lineno)
            if end <= node.lineno:
                continue
            codes = coverage.get(node.lineno)
            if not codes:
                continue
            for lineno in range(node.lineno + 1, end + 1):
                coverage.setdefault(lineno, set()).update(codes)
    return {line: tuple(sorted(codes)) for line, codes in coverage.items()}


def _collect_signatures(ctx: ModuleContext) -> Dict[str, dict]:
    """Module-level functions and one level of class methods."""

    def entry(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> dict:
        return {"params": list(signature_of(fn)), "line": fn.lineno}

    signatures: Dict[str, dict] = {}
    for node in ctx.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            signatures[node.name] = entry(node)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    signatures[f"{node.name}.{item.name}"] = entry(item)
    return signatures


def _is_controllers_attr(node: ast.expr) -> bool:
    """True for ``self.controllers`` (any depth of trailing subscripts)."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return (
        isinstance(node, ast.Attribute)
        and node.attr == CONTROLLER_ATTR
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def _writer_marked(lines: Sequence[str], fn: ast.stmt) -> bool:
    """A ``# reprolint: writer`` marker on the def line or just above."""
    for lineno in (fn.lineno, fn.lineno - 1):
        if 1 <= lineno <= len(lines) and _WRITER_MARK.search(lines[lineno - 1]):
            return True
    return False


def _method_summary(
    ctx: ModuleContext, fn: ast.FunctionDef | ast.AsyncFunctionDef
) -> dict:
    """Call edges + controller mutation sites for one method (R011)."""
    calls: set = set()
    mutations: List[dict] = []
    aliases: set = set()  # local names bound to a controller shard

    def alias_target(target: ast.expr, source: ast.expr) -> None:
        if _is_controllers_attr(source) and isinstance(target, ast.Name):
            aliases.add(target.id)
        # `for i, c in enumerate(self.controllers)` idiom
        if (
            isinstance(source, ast.Call)
            and isinstance(source.func, ast.Name)
            and source.func.id == "enumerate"
            and source.args
            and _is_controllers_attr(source.args[0])
            and isinstance(target, ast.Tuple)
            and len(target.elts) == 2
            and isinstance(target.elts[1], ast.Name)
        ):
            aliases.add(target.elts[1].id)

    # First pass: every alias binding (assignments, loops, comprehension
    # generators) — mutation detection must not depend on AST walk order.
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and isinstance(
                    node.value, ast.Subscript
                ) and _is_controllers_attr(node.value):
                    aliases.add(target.id)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            alias_target(node.target, node.iter)
        elif isinstance(node, ast.comprehension):
            alias_target(node.target, node.iter)

    # Second pass: self-call edges and controller mutations.
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign):
            if any(_is_controllers_attr(t) for t in node.targets):
                if fn.name != "__init__":
                    mutations.append(_mutation(ctx, node, "reassigns self.controllers"))
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute):
                receiver = func.value
                if (
                    isinstance(receiver, ast.Name)
                    and receiver.id == "self"
                ):
                    calls.add(func.attr)
                elif _is_controllers_attr(receiver) or (
                    isinstance(receiver, ast.Name) and receiver.id in aliases
                ):
                    if func.attr not in READONLY_CONTROLLER_METHODS:
                        mutations.append(
                            _mutation(
                                ctx, node,
                                f"calls controller.{func.attr}()",
                            )
                        )
    return {
        "writer": _writer_marked(ctx.lines, fn),
        "line": fn.lineno,
        "calls": sorted(calls),
        "mutations": mutations,
    }


def _mutation(ctx: ModuleContext, node: ast.AST, desc: str) -> dict:
    line = getattr(node, "lineno", 1)
    snippet = ctx.lines[line - 1].strip() if line - 1 < len(ctx.lines) else ""
    return {
        "line": line,
        "col": getattr(node, "col_offset", 0),
        "snippet": snippet,
        "desc": desc,
    }


def _collect_writer_classes(ctx: ModuleContext) -> Dict[str, dict]:
    """Single-writer summaries for classes owning ``self.controllers``."""
    out: Dict[str, dict] = {}
    for node in ctx.tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        owns = any(
            _is_controllers_attr(t)
            for item in ast.walk(node)
            if isinstance(item, ast.Assign)
            for t in item.targets
        ) or any(
            isinstance(item, ast.AnnAssign)
            and _is_controllers_attr(item.target)
            for item in ast.walk(node)
        )
        if not owns:
            continue
        methods = {
            item.name: _method_summary(ctx, item)
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        out[node.name] = {"line": node.lineno, "methods": methods}
    return out


def build_summary(ctx: ModuleContext) -> ModuleSummary:
    """The cross-module summary of one parsed file."""
    return ModuleSummary(
        module=ctx.module,
        rel_path=ctx.rel_path,
        imports=_collect_imports(ctx),
        pragmas=pragma_coverage(ctx.lines, ctx.tree),
        signatures=_collect_signatures(ctx),
        writer_classes=_collect_writer_classes(ctx),
    )


# ---------------------------------------------------------------------------
# the index
# ---------------------------------------------------------------------------


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


class ProjectIndex:
    """Parse-once project model: ``build()`` parses every given file,
    summarizes it and runs the per-file rules on it."""

    def __init__(self, root: Optional[Path] = None):
        self.root = Path(root) if root is not None else Path.cwd()
        self.summaries: Dict[str, ModuleSummary] = {}  # rel_path ->
        self.findings: Dict[str, List[Finding]] = {}  # raw, pre-pragma

    def build(self, files: Sequence[Path], rules: Sequence[Rule]) -> None:
        """Index every file.

        ``rules`` is the per-file rule set to evaluate; the raw findings
        of *all* of them are kept so any subset can be reported.
        """
        for path in files:
            source = path.read_text(encoding="utf-8")
            try:
                rel = path.relative_to(self.root)
            except ValueError:
                rel = path
            rel_posix = rel.as_posix()
            tree = ast.parse(source, filename=str(path))
            module = _module_name(rel)
            ctx = ModuleContext(
                path=path,
                rel_path=rel_posix,
                module=module,
                tree=tree,
                lines=source.splitlines(),
                imports=ImportMap.collect(tree, module),
            )
            raw: List[Finding] = []
            for rule in rules:
                if rule.applies_to(ctx.module):
                    raw.extend(rule.check(ctx))
            self.summaries[rel_posix] = build_summary(ctx)
            self.findings[rel_posix] = raw

    # -- views ---------------------------------------------------------------

    def by_module(self) -> Dict[str, ModuleSummary]:
        """``{dotted module name: summary}`` over the indexed files."""
        return {s.module: s for s in self.summaries.values()}

    def pragmas_for(self, rel_path: str) -> Dict[int, Tuple[str, ...]]:
        summary = self.summaries.get(rel_path)
        return summary.pragmas if summary is not None else {}
