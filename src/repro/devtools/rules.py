"""The reprolint rule set (R001–R013).

Each rule is a small AST or graph pass tailored to this codebase's
determinism contract: the golden-trace suite proves the engines'
decisions are byte-identical across kernels and worker counts, and
these rules make the coding patterns that could break that contract a
lint failure *before* they become a trace diff.

Rules are intentionally heuristic — they resolve imported names
through a per-module alias table and recognise the repo's own idioms
(set-typed attributes, score/ratio-named floats, ``metrics.*`` emit
sites) rather than attempting whole-program type inference.  A false
positive costs one ``sorted()`` / helper call or, for the
non-determinism rules only, a ``# reprolint: disable=Rxxx`` pragma;
a false negative costs a golden-trace bisection, so the rules lean
strict.

Two rule shapes coexist:

* **AST rules** implement :meth:`Rule.check` and see one parsed file
  at a time (R001–R006, R008, R010, R012, R013);
* **graph rules** implement :meth:`Rule.check_index` and see the
  whole-program :class:`~repro.devtools.index.ProjectIndex` — module
  summaries, never trees (R007 kernel parity, R009 layering, R011
  single-writer).

Adding a rule: subclass :class:`Rule`, set ``rule_id``/``title``/
``hint`` (and ``packages`` to scope it), implement :meth:`check` or
:meth:`check_index`, append it to :data:`RULES`, add good/bad
fixtures in ``tests/devtools/`` and a row to the table in
``docs/ARCHITECTURE.md`` §12.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional

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
    snippet: str  # stripped source line, part of the baseline fingerprint

    def fingerprint(self) -> str:
        """Line-number-free identity used by baseline files."""
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
    #: Determinism rules admit no baseline entries and no pragmas.
    deterministic: bool = False

    def applies_to(self, module: str) -> bool:
        if self.packages is None:
            return True
        return any(module == p or module.startswith(p + ".") for p in self.packages)

    def check(self, ctx: ModuleContext) -> list[Finding]:
        return []

    def check_index(self, index) -> list[Finding]:
        """Cross-module checks over a :class:`ProjectIndex`.

        Graph rules implement this instead of :meth:`check`; it runs
        once per lint invocation over the module summaries.
        """
        return []


def _index_finding(
    rule: "Rule",
    rel_path: str,
    line: int,
    col: int,
    message: str,
    snippet: str,
) -> Finding:
    """A finding built from summary data (no live ModuleContext)."""
    return Finding(rule.rule_id, rel_path, line, col, message, rule.hint, snippet)


DECISION_PACKAGES = (
    "repro.scheduling",
    "repro.simulator",
    "repro.localsched",
    "repro.migration",
    "repro.dynamiclevels",
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
# R007 — kernel signature parity (vectorpool vs refkernel)
# ---------------------------------------------------------------------------


class KernelParityRule(Rule):
    rule_id = "R007"
    title = "reference-kernel decision surfaces must match VectorCluster"
    hint = (
        "keep VectorCluster.<name> and refkernel.naive_<name> parameter "
        "names, order and defaults identical — the golden-trace and "
        "kernel-equivalence suites compare the kernels call-for-call"
    )

    ref_module = "repro.simulator.refkernel"
    vec_module = "repro.simulator.vectorpool"
    vec_class = "VectorCluster"
    naive_prefix = "naive_"

    def check_index(self, index) -> list[Finding]:
        modules = index.by_module()
        vec = modules.get(self.vec_module)
        ref = modules.get(self.ref_module)
        if vec is None or ref is None:
            return []  # partial lint run: nothing to compare against
        class_prefix = f"{self.vec_class}."
        methods = {
            name[len(class_prefix):]: info
            for name, info in vec.signatures.items()
            if name.startswith(class_prefix)
        }
        if not methods:
            return [
                _index_finding(
                    self, vec.rel_path, 1, 0,
                    f"class {self.vec_class} not found in {self.vec_module}",
                    f"class:{self.vec_class}",
                )
            ]
        prefix = self.naive_prefix
        mirrors = {
            name[len(prefix):]: info
            for name, info in ref.signatures.items()
            if "." not in name
            and name.startswith(prefix)
            and not name[len(prefix):].startswith("_")
        }
        found: list[Finding] = []
        for name, info in sorted(mirrors.items()):
            snippet = f"def {prefix}{name}"
            method = methods.get(name)
            if method is None:
                found.append(
                    _index_finding(
                        self, ref.rel_path, info["line"], 0,
                        f"refkernel.{prefix}{name} has no "
                        f"{self.vec_class}.{name} counterpart",
                        snippet,
                    )
                )
                continue
            ref_sig = tuple(info["params"])
            vec_sig = tuple(method["params"])
            if ref_sig != vec_sig:
                found.append(
                    _index_finding(
                        self, ref.rel_path, info["line"], 0,
                        f"signature drift on {name}: refkernel.{prefix}{name}"
                        f"({', '.join(ref_sig)}) vs {self.vec_class}.{name}"
                        f"({', '.join(vec_sig)})",
                        snippet,
                    )
                )
        return found


# ---------------------------------------------------------------------------
# R008 — metrics emit sites must use registered constants
# ---------------------------------------------------------------------------


class MetricNameRule(Rule):
    rule_id = "R008"
    title = "metric emit sites must use registered name constants"
    hint = (
        "define the name in repro.obs.names (and ALL_METRIC_NAMES) and "
        "emit via the constant, not an inline string literal"
    )

    kinds = frozenset({"counter", "gauge", "histogram", "timer"})
    exempt_modules = ("repro.obs.metrics", "repro.obs.names")

    def check(self, ctx: ModuleContext) -> list[Finding]:
        if ctx.module in self.exempt_modules:
            return []
        found = []
        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in self.kinds
            ):
                continue
            receiver = _dotted(node.func.value)
            if receiver is None or "metrics" not in receiver.lower():
                continue
            if node.args and isinstance(node.args[0], ast.Constant) and isinstance(
                node.args[0].value, str
            ):
                found.append(
                    ctx.finding(
                        self,
                        node,
                        f"inline metric name {node.args[0].value!r} at a "
                        f".{node.func.attr}() emit site",
                    )
                )
        return found


# ---------------------------------------------------------------------------
# R009 — architecture import layering (graph rule)
# ---------------------------------------------------------------------------


class ImportLayeringRule(Rule):
    rule_id = "R009"
    title = "module-level imports must follow the architecture DAG"
    hint = (
        "import strictly downward through the layers in "
        "repro.devtools.graphs.ARCH_LAYERS; break legitimate late-bound "
        "wiring with an `if TYPE_CHECKING:` guard or a function-scoped "
        "import, and record deliberate exceptions in "
        "MODULE_LAYER_OVERRIDES"
    )

    def check_index(self, index) -> list[Finding]:
        # Deferred import: graphs -> index -> rules would otherwise cycle.
        from repro.devtools.graphs import (
            build_edges,
            find_cycles,
            layering_violations,
        )

        edges = build_edges(index)
        found = [
            _index_finding(
                self,
                v["rel_path"],
                v["line"],
                v["col"],
                v["message"],
                v["snippet"],
            )
            for v in layering_violations(index, edges)
        ]
        modules = index.by_module()
        for cycle in find_cycles(index, edges):
            anchor = modules[cycle[0]]
            chain = " -> ".join([*cycle, cycle[0]])
            found.append(
                _index_finding(
                    self,
                    anchor.rel_path,
                    1,
                    0,
                    f"module-level import cycle: {chain}",
                    f"cycle:{'->'.join(cycle)}",
                )
            )
        return found


# ---------------------------------------------------------------------------
# R010 — async safety in repro.serving
# ---------------------------------------------------------------------------

#: Dotted prefixes whose calls block the event loop.
_BLOCKING_PREFIXES = (
    "subprocess.",
    "socket.",
    "urllib.",
    "requests.",
    "http.client.",
)
_BLOCKING_CALLS = frozenset(
    {"time.sleep", "os.system", "os.popen", "open", "input"}
)
_LOOP_FACTORIES = frozenset(
    {"asyncio.get_event_loop", "asyncio.get_running_loop", "asyncio.new_event_loop"}
)


class AsyncSafetyRule(Rule):
    rule_id = "R010"
    title = "serving coroutines must stay on the virtual clock"
    hint = (
        "inside async code use `await clock.sleep(dt)` / `clock.now()` "
        "(repro.serving.VirtualClock) instead of blocking calls, bare "
        "asyncio.sleep, or loop.time(); await every coroutine you create"
    )
    packages = ("repro.serving",)

    def check(self, ctx: ModuleContext) -> list[Finding]:
        found: list[Finding] = []
        async_defs = self._async_defs(ctx.tree)
        for fn in self._functions(ctx.tree):
            if isinstance(fn, ast.AsyncFunctionDef):
                found.extend(self._check_async_body(ctx, fn))
            found.extend(self._check_unawaited(ctx, fn, async_defs))
        return found

    @staticmethod
    def _functions(tree: ast.Module) -> list[ast.FunctionDef | ast.AsyncFunctionDef]:
        return [
            node
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]

    @staticmethod
    def _async_defs(tree: ast.Module) -> frozenset[str]:
        """Names of every async def in the module (incl. methods)."""
        return frozenset(
            node.name
            for node in ast.walk(tree)
            if isinstance(node, ast.AsyncFunctionDef)
        )

    @staticmethod
    def _own_statements(fn: ast.AST) -> Iterable[ast.AST]:
        """Walk a function body without descending into nested defs."""
        stack: list[ast.AST] = list(ast.iter_child_nodes(fn))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))

    def _check_async_body(
        self, ctx: ModuleContext, fn: ast.AsyncFunctionDef
    ) -> list[Finding]:
        found: list[Finding] = []
        # Bindings first: the statement walk is unordered, so collect
        # every `loop = asyncio.get_event_loop()` name before looking
        # at calls.
        loop_names: set[str] = set()
        for node in self._own_statements(fn):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                if ctx.imports.resolve(node.value.func) in _LOOP_FACTORIES:
                    loop_names.update(
                        t.id for t in node.targets if isinstance(t, ast.Name)
                    )
        for node in self._own_statements(fn):
            if not isinstance(node, ast.Call):
                continue
            qual = ctx.imports.resolve(node.func)
            if qual in _BLOCKING_CALLS or (
                qual is not None and qual.startswith(_BLOCKING_PREFIXES)
            ):
                found.append(
                    ctx.finding(
                        self,
                        node,
                        f"blocking call {qual}() inside async def "
                        f"{fn.name} stalls the event loop",
                    )
                )
            elif qual == "asyncio.sleep" and not self._is_zero_sleep(node):
                found.append(
                    ctx.finding(
                        self,
                        node,
                        "bare asyncio.sleep bypasses VirtualClock "
                        f"in async def {fn.name}",
                    )
                )
            elif isinstance(node.func, ast.Attribute) and node.func.attr == "time":
                receiver = node.func.value
                is_loop = (
                    isinstance(receiver, ast.Name) and receiver.id in loop_names
                ) or (
                    isinstance(receiver, ast.Call)
                    and ctx.imports.resolve(receiver.func) in _LOOP_FACTORIES
                )
                if is_loop:
                    found.append(
                        ctx.finding(
                            self,
                            node,
                            "loop.time() bypasses VirtualClock "
                            f"in async def {fn.name}",
                        )
                    )
        return found

    @staticmethod
    def _is_zero_sleep(node: ast.Call) -> bool:
        """``asyncio.sleep(0)`` — the sanctioned cooperative yield."""
        return (
            len(node.args) == 1
            and not node.keywords
            and isinstance(node.args[0], ast.Constant)
            and node.args[0].value == 0
        )

    def _check_unawaited(
        self,
        ctx: ModuleContext,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        async_defs: frozenset[str],
    ) -> list[Finding]:
        found: list[Finding] = []
        for node in self._own_statements(fn):
            if not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)):
                continue
            call = node.value
            name: Optional[str] = None
            if isinstance(call.func, ast.Name):
                name = call.func.id
            elif (
                isinstance(call.func, ast.Attribute)
                and isinstance(call.func.value, ast.Name)
                and call.func.value.id == "self"
            ):
                name = call.func.attr
            if name in async_defs:
                found.append(
                    ctx.finding(
                        self,
                        node,
                        f"coroutine {name}() created but never awaited "
                        "(the call does nothing)",
                    )
                )
        return found


# ---------------------------------------------------------------------------
# R011 — single-writer scheduler invariant (graph rule)
# ---------------------------------------------------------------------------


class SingleWriterRule(Rule):
    rule_id = "R011"
    title = "controller state has exactly one writer task"
    hint = (
        "route every controller mutation through the annotated scheduler "
        "loop (mark it `# reprolint: writer`); other tasks enqueue work "
        "items instead of touching self.controllers directly"
    )
    packages = ("repro.serving",)

    def check_index(self, index) -> list[Finding]:
        found: list[Finding] = []
        for summary in sorted(
            index.by_module().values(), key=lambda s: s.module
        ):
            if not self.applies_to(summary.module):
                continue
            for cls_name, cls in sorted(summary.writer_classes.items()):
                found.extend(self._check_class(summary, cls_name, cls))
        return found

    def _check_class(self, summary, cls_name: str, cls: dict) -> list[Finding]:
        methods: dict = cls["methods"]
        writers = {n for n, m in methods.items() if m.get("writer")}
        # __init__ builds the fleet before any task exists: implicit
        # setup-phase writer, but it never satisfies the annotation
        # requirement on its own.
        setup_closure = self._closure({"__init__"}, methods)
        writer_closure = self._closure(writers, methods)
        mutating = {
            name: m for name, m in methods.items() if m.get("mutations")
        }
        runtime_mutators = {
            name for name in mutating if name not in setup_closure
        }
        found: list[Finding] = []
        if runtime_mutators and not writers:
            found.append(
                _index_finding(
                    self,
                    summary.rel_path,
                    cls["line"],
                    0,
                    f"class {cls_name} mutates controller state but no "
                    "method is annotated `# reprolint: writer`",
                    f"class:{cls_name}",
                )
            )
            return found
        for name in sorted(runtime_mutators):
            if name in writer_closure:
                continue
            for mutation in mutating[name]["mutations"]:
                found.append(
                    _index_finding(
                        self,
                        summary.rel_path,
                        mutation["line"],
                        mutation["col"],
                        f"{cls_name}.{name} {mutation['desc']} outside the "
                        "single-writer scheduler closure",
                        mutation["snippet"],
                    )
                )
        return found

    @staticmethod
    def _closure(roots: set[str], methods: dict) -> set[str]:
        """Methods reachable from ``roots`` via ``self.<m>()`` calls."""
        seen = set(roots) & set(methods)
        frontier = list(seen)
        while frontier:
            name = frontier.pop()
            for callee in methods.get(name, {}).get("calls", ()):
                if callee in methods and callee not in seen:
                    seen.add(callee)
                    frontier.append(callee)
        return seen


# ---------------------------------------------------------------------------
# R012 — process-boundary hygiene (executor submissions)
# ---------------------------------------------------------------------------

_EXECUTOR_CONSTRUCTORS = frozenset(
    {
        "concurrent.futures.ProcessPoolExecutor",
        "ProcessPoolExecutor",
        "multiprocessing.Pool",
    }
)
_NONTRANSPORTABLE_CONSTRUCTORS = frozenset(
    {
        "open",
        "numpy.random.default_rng",
        "default_rng",
        "numpy.random.Generator",
        "numpy.random.PCG64",
        "numpy.random.SeedSequence",
        "socket.socket",
    }
)


class ProcessBoundaryRule(Rule):
    rule_id = "R012"
    title = "executor submissions must be module-level + JSON-primitive"
    hint = (
        "submit a module-level worker function with JSON-primitive "
        "payload dicts (RunSpec.to_dict() style); reconstruct RNGs and "
        "open files inside the worker from seeds/paths"
    )
    packages = ("repro.sharding", "repro.runner")

    def check(self, ctx: ModuleContext) -> list[Finding]:
        module_defs = {
            node.name
            for node in ctx.tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        found: list[Finding] = []
        for fn in [
            n
            for n in ast.walk(ctx.tree)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]:
            found.extend(self._check_scope(ctx, fn, module_defs))
        return found

    def _check_scope(
        self,
        ctx: ModuleContext,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        module_defs: set[str],
    ) -> list[Finding]:
        executors: set[str] = set()
        tainted: dict[str, str] = {}  # name -> what it holds
        nested_defs = {
            node.name
            for node in ast.walk(fn)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node is not fn
        }
        found: list[Finding] = []

        def note_binding(name: str, value: ast.expr) -> None:
            if not isinstance(value, ast.Call):
                return
            qual = ctx.imports.resolve(value.func)
            if qual in _EXECUTOR_CONSTRUCTORS:
                executors.add(name)
            elif qual in _NONTRANSPORTABLE_CONSTRUCTORS:
                tainted[name] = qual

        for node in ast.walk(fn):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        note_binding(target.id, node.value)
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if isinstance(item.optional_vars, ast.Name):
                        note_binding(item.optional_vars.id, item.context_expr)
            elif isinstance(node, ast.Call):
                func = node.func
                if not (
                    isinstance(func, ast.Attribute)
                    and func.attr in ("submit", "map", "apply_async")
                    and isinstance(func.value, ast.Name)
                    and func.value.id in executors
                ):
                    continue
                if not node.args:
                    continue
                target, *payload = node.args
                found.extend(
                    self._check_callable(ctx, node, target, module_defs, nested_defs)
                )
                for arg in [*payload, *[k.value for k in node.keywords]]:
                    found.extend(self._check_payload(ctx, node, arg, tainted))
        return found

    def _check_callable(
        self,
        ctx: ModuleContext,
        call: ast.Call,
        target: ast.expr,
        module_defs: set[str],
        nested_defs: set[str],
    ) -> list[Finding]:
        if isinstance(target, ast.Lambda):
            return [
                ctx.finding(
                    self,
                    call,
                    "lambda submitted across the process boundary is not "
                    "importable by the worker",
                )
            ]
        if isinstance(target, ast.Name):
            if target.id in nested_defs and target.id not in module_defs:
                return [
                    ctx.finding(
                        self,
                        call,
                        f"nested function {target.id}() submitted across the "
                        "process boundary; move it to module level",
                    )
                ]
            return []
        if isinstance(target, ast.Attribute):
            desc = _dotted(target) or "a bound method"
            return [
                ctx.finding(
                    self,
                    call,
                    f"{desc} submitted across the process boundary; submit a "
                    "module-level function instead of a bound method",
                )
            ]
        return []

    def _check_payload(
        self,
        ctx: ModuleContext,
        call: ast.Call,
        arg: ast.expr,
        tainted: dict[str, str],
    ) -> list[Finding]:
        for node in ast.walk(arg):
            if isinstance(node, ast.Name) and node.id in tainted:
                return [
                    ctx.finding(
                        self,
                        call,
                        f"payload carries {tainted[node.id]}() handle "
                        f"{node.id!r} across the process boundary; pass "
                        "seeds/paths and rebuild in the worker",
                    )
                ]
            if isinstance(node, ast.Call):
                qual = ctx.imports.resolve(node.func)
                if qual in _NONTRANSPORTABLE_CONSTRUCTORS:
                    return [
                        ctx.finding(
                            self,
                            call,
                            f"payload constructs {qual}() inline across the "
                            "process boundary; pass seeds/paths and rebuild "
                            "in the worker",
                        )
                    ]
        return []


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
        from repro.devtools.taint import wallclock_taint

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
    KernelParityRule(),
    MetricNameRule(),
    ImportLayeringRule(),
    AsyncSafetyRule(),
    SingleWriterRule(),
    ProcessBoundaryRule(),
    DeterminismTaintRule(),
)

DETERMINISM_RULES: frozenset[str] = frozenset(
    r.rule_id for r in RULES if r.deterministic
)


def rule_table() -> list[tuple[str, str, str]]:
    """``(id, title, hint)`` rows, e.g. for the docs table."""
    return [(r.rule_id, r.title, r.hint) for r in RULES]
