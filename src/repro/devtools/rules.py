"""The reprolint rule set (R001–R006, R013).

Each rule is a small AST pass over one file, tailored to this
codebase's determinism contract: the golden-trace suite proves the
engines' decisions are byte-identical across kernels and worker
counts, and these rules make the coding patterns that could break that
contract a lint failure *before* they become a trace diff.

Rules are intentionally heuristic — they resolve imported names
through a per-module alias table and recognise the repo's own idioms
(set-typed attributes, score/ratio-named floats, ``metrics.*`` emit
sites) rather than attempting whole-program type inference.  A false
positive costs one ``sorted()`` / helper call or, for the
non-determinism rules only, a ``# reprolint: disable=Rxxx`` pragma;
a false negative costs a golden-trace bisection, so the rules lean
strict.

R007–R012 are retired ids, never reused (pragmas name ids).  A rule is for a pattern that can appear in any file; a shape of
this tree ("there is one X") is a structural test in
``tests/structure/``.

Adding a rule: subclass :class:`Rule`, set ``rule_id``/``title``/
``hint`` (and ``packages`` to scope it), implement :meth:`check`,
append it to :data:`RULES`, add good/bad fixtures in
``tests/devtools/`` and a row to the table in ``docs/ARCHITECTURE.md``
§12.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.devtools.taint import wallclock_taint

__all__ = [
    "Finding",
    "ModuleContext",
    "ImportMap",
    "Rule",
    "RULES",
    "DETERMINISM_RULES",
    "rule_table",
]


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule_id: str
    path: str  # repo-relative posix path
    line: int
    col: int
    message: str
    hint: str
    snippet: str  # stripped source line, part of the fingerprint

    def fingerprint(self) -> str:
        """Line-number-free identity of the finding (JSON reports)."""
        return f"{self.rule_id}:{self.path}:{self.snippet}"

    def to_dict(self) -> dict[str, object]:
        return {
            "rule": self.rule_id,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "hint": self.hint,
            "snippet": self.snippet,
            "fingerprint": self.fingerprint(),
        }


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` as written, or None for non-name expressions."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


@dataclass
class ImportMap:
    """Alias table for resolving names back to their defining module."""

    aliases: dict[str, str] = field(default_factory=dict)

    @staticmethod
    def collect(tree: ast.AST, module: str) -> "ImportMap":
        aliases: dict[str, str] = {}
        package = module.rsplit(".", 1)[0] if "." in module else ""
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".", 1)[0]
                    target = alias.name if alias.asname else bound
                    aliases[bound] = target
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    hops = module.split(".")
                    hops = hops[: len(hops) - node.level]
                    base = ".".join(hops + ([node.module] if node.module else []))
                    base = base or package
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name
                    aliases[bound] = f"{base}.{alias.name}" if base else alias.name
        return ImportMap(aliases)

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Fully-resolved dotted name; raw spelling if the root is local."""
        dotted = _dotted(node)
        if dotted is None:
            return None
        root, _, rest = dotted.partition(".")
        base = self.aliases.get(root)
        if base is None:
            return dotted
        return f"{base}.{rest}" if rest else base


@dataclass
class ModuleContext:
    """Everything a rule needs to know about one source file."""

    path: Path
    rel_path: str  # repo-relative posix path, reported in findings
    module: str  # dotted module name ("repro.simulator.engine", "scripts.x")
    tree: ast.Module
    lines: list[str]
    imports: ImportMap

    def finding(self, rule: "Rule", node: ast.AST, message: str) -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        snippet = self.lines[line - 1].strip() if line - 1 < len(self.lines) else ""
        return Finding(rule.rule_id, self.rel_path, line, col, message, rule.hint, snippet)


class Rule:
    """Base class: one rule id, one fix hint, one AST pass."""

    rule_id: str = "R000"
    title: str = ""
    hint: str = ""
    #: Dotted module prefixes the rule applies to; None = every module.
    packages: Optional[tuple[str, ...]] = None
    #: Determinism rules admit no pragmas.
    deterministic: bool = False

    def applies_to(self, module: str) -> bool:
        if self.packages is None:
            return True
        return any(module == p or module.startswith(p + ".") for p in self.packages)

    def check(self, ctx: ModuleContext) -> list[Finding]:
        return []


DECISION_PACKAGES = (
    "repro.scheduling",
    "repro.simulator",
    "repro.localsched",
    "repro.controlplane",
    "repro.obs",
    "repro.runner",
    "repro.sharding",
    "repro.serving",
    "repro.api",
    "repro.hardware",
    "scripts",
)


# ---------------------------------------------------------------------------
# R001 — wall-clock / entropy sources
# ---------------------------------------------------------------------------


class ClockEntropyRule(Rule):
    rule_id = "R001"
    title = "no wall-clock or entropy sources in library code"
    hint = (
        "measure elapsed time with time.perf_counter (monotonic) or the "
        "obs timing shims; derive identifiers from the run's seed, never "
        "from uuid/urandom"
    )
    deterministic = True

    #: Modules allowed to read the wall clock (the timing shims).
    allowed_modules = ("repro.obs.metrics",)

    banned = frozenset(
        {
            "time.time",
            "time.time_ns",
            "time.localtime",
            "time.gmtime",
            "time.monotonic",
            "time.monotonic_ns",
            "datetime.datetime.now",
            "datetime.datetime.utcnow",
            "datetime.datetime.today",
            "datetime.date.today",
            "uuid.uuid1",
            "uuid.uuid4",
            "os.urandom",
        }
    )

    #: Whole modules banned by prefix — every function in them is an
    #: entropy source, so enumerate the module, not its members.
    banned_prefixes = ("secrets.",)

    def check(self, ctx: ModuleContext) -> list[Finding]:
        if ctx.module in self.allowed_modules:
            return []
        found = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                qual = ctx.imports.resolve(node.func)
                if qual is not None and (
                    qual in self.banned
                    or qual.startswith(self.banned_prefixes)
                ):
                    found.append(
                        ctx.finding(
                            self, node, f"call to nondeterministic source {qual}()"
                        )
                    )
        return found


# ---------------------------------------------------------------------------
# R002 — legacy global RNG
# ---------------------------------------------------------------------------


class GlobalRngRule(Rule):
    rule_id = "R002"
    title = "no global RNG (random.*, numpy.random module functions)"
    hint = (
        "thread an explicit numpy.random.Generator (from default_rng(seed) "
        "or SeedSequence.spawn) through the call path instead"
    )
    deterministic = True

    #: numpy.random attributes that construct explicit generators/streams
    #: (fine) rather than touching the legacy global state (banned).
    np_allowed = frozenset(
        {
            "default_rng",
            "Generator",
            "SeedSequence",
            "BitGenerator",
            "PCG64",
            "PCG64DXSM",
            "Philox",
            "SFC64",
            "MT19937",
        }
    )

    def check(self, ctx: ModuleContext) -> list[Finding]:
        found = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qual = ctx.imports.resolve(node.func)
            if qual is None:
                continue
            if qual == "random" or qual.startswith("random."):
                found.append(
                    ctx.finding(
                        self, node, f"stdlib global-RNG call {qual}()"
                    )
                )
            elif qual.startswith("numpy.random."):
                leaf = qual.rsplit(".", 1)[1]
                if leaf not in self.np_allowed:
                    found.append(
                        ctx.finding(
                            self,
                            node,
                            f"legacy numpy global-RNG call {qual}()",
                        )
                    )
        return found


# ---------------------------------------------------------------------------
# R003 — default_rng() needs an explicit seed
# ---------------------------------------------------------------------------


class UnseededRngRule(Rule):
    rule_id = "R003"
    title = "default_rng() must receive an explicit seed"
    hint = "pass the run's seed (or a spawned SeedSequence): default_rng(seed)"
    deterministic = True

    def check(self, ctx: ModuleContext) -> list[Finding]:
        found = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qual = ctx.imports.resolve(node.func)
            if qual in ("numpy.random.default_rng", "default_rng") and not (
                node.args or node.keywords
            ):
                found.append(
                    ctx.finding(
                        self, node, "default_rng() seeded from OS entropy"
                    )
                )
        return found


# ---------------------------------------------------------------------------
# R004 — unordered iteration in decision/serialization paths
# ---------------------------------------------------------------------------

_SET_ANNOTATIONS = frozenset(
    {"set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet"}
)
_ORDER_CONSUMERS = frozenset({"list", "tuple", "iter", "enumerate", "reversed"})


class UnsortedSetIterRule(Rule):
    rule_id = "R004"
    title = "no unordered set/dict.keys() iteration in decision paths"
    hint = (
        "wrap the iterable in sorted(...) — decision and serialization "
        "order must not depend on hash-table layout"
    )
    deterministic = True
    packages = DECISION_PACKAGES

    def check(self, ctx: ModuleContext) -> list[Finding]:
        set_names = self._set_bindings(ctx.tree)
        found = []
        for node in ast.walk(ctx.tree):
            exprs: list[ast.expr] = []
            if isinstance(node, ast.For):
                exprs.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                exprs.extend(gen.iter for gen in node.generators)
            elif isinstance(node, ast.Call):
                qual = ctx.imports.resolve(node.func)
                if qual in _ORDER_CONSUMERS or qual == "numpy.fromiter":
                    if node.args:
                        exprs.append(node.args[0])
            for expr in exprs:
                label = self._unordered(expr, set_names)
                if label:
                    found.append(
                        ctx.finding(
                            self,
                            node,
                            f"iteration over {label} leaks hash order into a "
                            "decision or serialization path",
                        )
                    )
        return found

    @staticmethod
    def _set_bindings(tree: ast.AST) -> frozenset[str]:
        """Identifiers (names and self-attributes) bound to sets."""

        def target_key(target: ast.expr) -> Optional[str]:
            if isinstance(target, ast.Name):
                return target.id
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                return target.attr
            return None

        def setish_value(value: Optional[ast.expr]) -> bool:
            if isinstance(value, ast.Set):
                return True
            if isinstance(value, ast.Call):
                return _dotted(value.func) in ("set", "frozenset")
            return False

        def setish_annotation(ann: Optional[ast.expr]) -> bool:
            if ann is None:
                return False
            head = ann.value if isinstance(ann, ast.Subscript) else ann
            if isinstance(head, ast.Name):
                return head.id in _SET_ANNOTATIONS
            if isinstance(head, ast.Attribute):
                return head.attr in _SET_ANNOTATIONS
            return False

        names: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                if setish_value(node.value):
                    for target in node.targets:
                        key = target_key(target)
                        if key:
                            names.add(key)
            elif isinstance(node, ast.AnnAssign):
                if setish_annotation(node.annotation) or setish_value(node.value):
                    key = target_key(node.target)
                    if key:
                        names.add(key)
        return frozenset(names)

    @staticmethod
    def _unordered(expr: ast.expr, set_names: frozenset[str]) -> Optional[str]:
        """A human label when ``expr`` iterates in hash order, else None."""
        if isinstance(expr, ast.Set):
            return "a set literal"
        if isinstance(expr, ast.Call):
            callee = _dotted(expr.func)
            if callee in ("set", "frozenset"):
                return f"{callee}(...)"
            if isinstance(expr.func, ast.Attribute) and expr.func.attr == "keys":
                return ".keys()"
            return None
        if isinstance(expr, ast.Name) and expr.id in set_names:
            return f"set-typed variable {expr.id!r}"
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
            and expr.attr in set_names
        ):
            return f"set-typed attribute self.{expr.attr}"
        if isinstance(expr, ast.BinOp) and isinstance(
            expr.op, (ast.BitAnd, ast.BitOr, ast.Sub, ast.BitXor)
        ):
            left = UnsortedSetIterRule._unordered(expr.left, set_names)
            right = UnsortedSetIterRule._unordered(expr.right, set_names)
            return left or right
        return None


# ---------------------------------------------------------------------------
# R005 — float ==/!= on scoring expressions
# ---------------------------------------------------------------------------

_FLOAT_HINT = re.compile(
    r"(score|ratio|weight|slack|blend|epsilon|progress)", re.IGNORECASE
)
_FLOAT_CONSTS = frozenset(
    {"math.inf", "numpy.inf", "math.nan", "numpy.nan", "math.pi", "math.e"}
)


class FloatEqualityRule(Rule):
    rule_id = "R005"
    title = "no ==/!= on float-typed scoring expressions"
    hint = (
        "use floats_equal/floats_differ from repro.scheduling.constants "
        "(CAPACITY_EPSILON tolerance), or math.isinf/isnan for sentinels"
    )
    packages = ("repro.scheduling", "repro.simulator")

    def check(self, ctx: ModuleContext) -> list[Finding]:
        found = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            operands = [node.left, *node.comparators]
            floatish = next(
                (o for o in operands if self._floatish(o, ctx.imports)), None
            )
            if floatish is not None:
                desc = _dotted(floatish) or ast.unparse(floatish)
                found.append(
                    ctx.finding(
                        self,
                        node,
                        f"exact float comparison on {desc!r} in a scoring path",
                    )
                )
        return found

    @classmethod
    def _floatish(cls, node: ast.expr, imports: ImportMap) -> bool:
        if isinstance(node, ast.Constant):
            return isinstance(node.value, float)
        if isinstance(node, ast.UnaryOp):
            return cls._floatish(node.operand, imports)
        if isinstance(node, ast.Call):
            return _dotted(node.func) == "float"
        if isinstance(node, ast.Subscript):
            return cls._floatish(node.value, imports)
        if isinstance(node, (ast.Name, ast.Attribute)):
            qual = imports.resolve(node)
            if qual in _FLOAT_CONSTS:
                return True
            terminal = node.attr if isinstance(node, ast.Attribute) else node.id
            return bool(_FLOAT_HINT.search(terminal))
        return False


# ---------------------------------------------------------------------------
# R006 — mutable defaults / frozen-dataclass mutation
# ---------------------------------------------------------------------------

_MUTABLE_FACTORIES = frozenset(
    {
        "list",
        "dict",
        "set",
        "collections.defaultdict",
        "collections.OrderedDict",
        "collections.Counter",
        "collections.deque",
    }
)


class MutableStateRule(Rule):
    rule_id = "R006"
    title = "no mutable default arguments; no frozen-dataclass backdoors"
    hint = (
        "default to None (or a field(default_factory=...)) and build the "
        "container inside the function; mutate frozen dataclasses only "
        "via object.__setattr__ inside __post_init__"
    )

    def check(self, ctx: ModuleContext) -> list[Finding]:
        found: list[Finding] = []

        def visit(node: ast.AST, func: Optional[str]) -> None:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for default in [
                    *node.args.defaults,
                    *[d for d in node.args.kw_defaults if d is not None],
                ]:
                    if self._mutable(default, ctx.imports):
                        found.append(
                            ctx.finding(
                                self,
                                default,
                                f"mutable default argument in {node.name}() is "
                                "shared across calls",
                            )
                        )
                func = node.name
            elif isinstance(node, ast.Call):
                if ctx.imports.resolve(node.func) == "object.__setattr__":
                    if func != "__post_init__":
                        where = f"{func}()" if func else "module scope"
                        found.append(
                            ctx.finding(
                                self,
                                node,
                                "object.__setattr__ outside __post_init__ "
                                f"(in {where}) bypasses dataclass immutability",
                            )
                        )
            for child in ast.iter_child_nodes(node):
                visit(child, func)

        visit(ctx.tree, None)
        return found

    @staticmethod
    def _mutable(node: ast.expr, imports: ImportMap) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set)):
            return True
        if isinstance(node, ast.Call):
            return imports.resolve(node.func) in _MUTABLE_FACTORIES
        return False


# ---------------------------------------------------------------------------
# R013 — determinism taint: wall clock -> replayable artifacts
# ---------------------------------------------------------------------------


class DeterminismTaintRule(Rule):
    rule_id = "R013"
    title = "wall-clock values must not reach replayable artifacts"
    hint = (
        "decision logs, audit logs, checkpoints and fingerprint digests "
        "must be functions of seeds and virtual time only; keep "
        "perf_counter telemetry in metrics/report fields that replay "
        "ignores, or drop it before persisting"
    )
    packages = DECISION_PACKAGES

    def check(self, ctx: ModuleContext) -> list[Finding]:
        found: list[Finding] = []
        for sink in wallclock_taint(ctx.tree, ctx.imports.resolve):
            snippet = (
                ctx.lines[sink.line - 1].strip()
                if sink.line - 1 < len(ctx.lines)
                else ""
            )
            found.append(
                Finding(
                    self.rule_id,
                    ctx.rel_path,
                    sink.line,
                    sink.col,
                    f"wall-clock-derived value flows into {sink.description}",
                    self.hint,
                    snippet,
                )
            )
        return found


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

RULES: tuple[Rule, ...] = (
    ClockEntropyRule(),
    GlobalRngRule(),
    UnseededRngRule(),
    UnsortedSetIterRule(),
    FloatEqualityRule(),
    MutableStateRule(),
    DeterminismTaintRule(),
)

DETERMINISM_RULES: frozenset[str] = frozenset(
    r.rule_id for r in RULES if r.deterministic
)


def rule_table() -> list[tuple[str, str, str]]:
    """``(id, title, hint)`` rows, e.g. for the docs table."""
    return [(r.rule_id, r.title, r.hint) for r in RULES]
