"""Determinism rules: six per-file ``ast`` checks over ``src`` and ``scripts``.

The golden corpus and the replay fence prove that runs replay byte for
byte; these checks keep out the coding patterns that would break that
before they become a trace diff.  Each is a plain walk over one parsed
module, scoped by the module's dotted name:

* **R001** no wall-clock or entropy source (``time.time``,
  ``datetime.now``, ``uuid4``, ``os.urandom``, ``secrets.*``) outside
  the timing shim :data:`CLOCK_MODULES`; elapsed time is
  ``time.perf_counter``.
* **R002** no global RNG (``random.*``, ``numpy.random`` module
  functions); thread an explicit ``numpy.random.Generator``.
* **R003** ``default_rng()`` gets an explicit seed.
* **R004** no hash-order iteration (a set, ``frozenset``, ``.keys()``
  or a set-typed name) in :data:`DECISION_PACKAGES`; wrap it in
  ``sorted``.
* **R005** no ``==`` / ``!=`` on a float scoring expression in
  :data:`SCORING_PACKAGES`; use ``floats_equal`` / ``floats_differ``
  (``repro.scheduling.constants``).  The exact comparisons that are
  load-bearing are listed in :data:`ALLOWED`, both ways.
* **R006** no mutable default argument, and ``object.__setattr__``
  only inside ``__post_init__`` or :data:`SETATTR_HELPERS`.

Names resolve through each module's import aliases (``from time import
time as wall`` is still ``time.time``).  The checks are heuristic and
lean strict: a false positive costs a ``sorted()`` or a helper call, a
false negative a golden-trace bisection.  Adding a rule is one check
function in :data:`CHECKS`, its real-tree test, and its bad and good
cases in :data:`CASES`.
"""

from __future__ import annotations

import ast
import re
import textwrap
from pathlib import Path
from typing import Callable, Iterator, Optional

import pytest

import repro

REPO = Path(repro.__file__).resolve().parents[2]

#: R001: the timing shim may read the wall clock.
CLOCK_MODULES = ("repro.obs.metrics",)

#: R004: packages whose iteration order reaches decisions or artifacts.
DECISION_PACKAGES = (
    "repro.scheduling",
    "repro.simulator",
    "repro.localsched",
    "repro.obs",
    "repro.runner",
    "repro.sharding",
    "repro.serving",
    "repro.api",
    "repro.hardware",
    "scripts",
)

#: R005: the scoring and simulation packages.
SCORING_PACKAGES = ("repro.scheduling", "repro.simulator")

#: R005 ``module::function`` -> why its exact float comparison is right.
ALLOWED = {
    "repro.simulator.vectorpool::VectorCluster._init_kernel_state": (
        "the fused pooling mask is bit-identical to the per-level loop only "
        "when every level's mem_ratio is exactly equal"
    ),
}

_WALL_CLOCK = frozenset({
    "time.time", "time.time_ns", "time.localtime", "time.gmtime",
    "time.monotonic", "time.monotonic_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
    "uuid.uuid1", "uuid.uuid4", "os.urandom",
})
#: numpy.random names that build explicit generators, not global state.
_EXPLICIT_RNG = frozenset({
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
})
_SET_TYPES = frozenset({"set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet"})
_ORDER_CONSUMERS = frozenset({"list", "tuple", "iter", "enumerate", "reversed", "numpy.fromiter"})
_FLOAT_NAME = re.compile(r"(score|ratio|weight|slack|blend|epsilon|progress)", re.IGNORECASE)
_FLOAT_CONSTS = frozenset({"math.inf", "numpy.inf", "math.nan", "numpy.nan", "math.pi", "math.e"})
_MUTABLE_FACTORIES = frozenset({
    "list", "dict", "set", "collections.defaultdict", "collections.OrderedDict",
    "collections.Counter", "collections.deque",
})


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` as written, or None for a non-name expression."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


class Module:
    """One parsed module: its dotted name, import aliases and every node
    paired with the dotted name of the ``def`` / ``class`` around it."""

    def __init__(self, name: str, tree: ast.Module):
        self.name = name
        self.aliases: dict[str, str] = {}
        self.nodes: list[tuple[ast.AST, str]] = []
        stack: list[tuple[ast.AST, str]] = [(tree, "")]
        while stack:
            node, scope = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                scope = f"{scope}.{node.name}" if scope else node.name
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".", 1)[0]
                    self.aliases[alias.asname or root] = alias.name if alias.asname else root
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:  # relative: climb from this module's package
                    hops = name.split(".")[: -node.level]
                    base = ".".join(hops + ([node.module] if node.module else []))
                for alias in node.names:
                    if alias.name != "*":
                        full = f"{base}.{alias.name}" if base else alias.name
                        self.aliases[alias.asname or alias.name] = full
            for child in ast.iter_child_nodes(node):
                self.nodes.append((child, scope))
                stack.append((child, scope))

    def within(self, packages: tuple[str, ...]) -> bool:
        return any(self.name == p or self.name.startswith(p + ".") for p in packages)

    def resolve(self, node: ast.AST) -> Optional[str]:
        """The dotted name with its root import alias expanded."""
        dotted = _dotted(node)
        if dotted is None:
            return None
        root, dot, rest = dotted.partition(".")
        return self.aliases.get(root, root) + dot + rest

    def calls(self) -> Iterator[tuple[ast.Call, str, str]]:
        """``(call, resolved callee, scope)`` for every named call."""
        for node, scope in self.nodes:
            if isinstance(node, ast.Call):
                callee = self.resolve(node.func)
                if callee is not None:
                    yield node, callee, scope


Hit = tuple[ast.AST, str]  # (offending node, enclosing scope)


def r001_clock_and_entropy(module: Module) -> Iterator[Hit]:
    if module.name not in CLOCK_MODULES:
        for call, callee, scope in module.calls():
            if callee in _WALL_CLOCK or callee.startswith("secrets."):
                yield call, scope


def r002_global_rng(module: Module) -> Iterator[Hit]:
    for call, callee, scope in module.calls():
        if callee == "random" or callee.startswith("random.") or (
            callee.startswith("numpy.random.")
            and callee.rsplit(".", 1)[1] not in _EXPLICIT_RNG
        ):
            yield call, scope


def r003_unseeded_rng(module: Module) -> Iterator[Hit]:
    for call, callee, scope in module.calls():
        if callee in ("numpy.random.default_rng", "default_rng") and not (
            call.args or call.keywords
        ):
            yield call, scope


def _set_bindings(module: Module) -> frozenset[str]:
    """Names and ``self.`` attributes bound to a set value or annotation."""

    def key(target: ast.expr) -> Optional[str]:
        if isinstance(target, ast.Name):
            return target.id
        if isinstance(target, ast.Attribute) and _dotted(target.value) == "self":
            return target.attr
        return None

    def setish(value: Optional[ast.expr]) -> bool:
        return isinstance(value, ast.Set) or (
            isinstance(value, ast.Call) and _dotted(value.func) in ("set", "frozenset")
        )

    def set_annotation(ann: ast.expr) -> bool:
        head = ann.value if isinstance(ann, ast.Subscript) else ann
        name = head.id if isinstance(head, ast.Name) else getattr(head, "attr", None)
        return name in _SET_TYPES

    targets: list[ast.expr] = []
    for node, _ in module.nodes:
        if isinstance(node, ast.Assign) and setish(node.value):
            targets.extend(node.targets)
        elif isinstance(node, ast.AnnAssign) and (
            set_annotation(node.annotation) or setish(node.value)
        ):
            targets.append(node.target)
    return frozenset(name for name in map(key, targets) if name)


def _hash_ordered(expr: ast.expr, set_names: frozenset[str]) -> bool:
    if isinstance(expr, ast.Set):
        return True
    if isinstance(expr, ast.Call):
        return _dotted(expr.func) in ("set", "frozenset") or (
            isinstance(expr.func, ast.Attribute) and expr.func.attr == "keys"
        )
    if isinstance(expr, ast.Name):
        return expr.id in set_names
    if isinstance(expr, ast.Attribute) and _dotted(expr.value) == "self":
        return expr.attr in set_names
    if isinstance(expr, ast.BinOp) and isinstance(
        expr.op, (ast.BitAnd, ast.BitOr, ast.Sub, ast.BitXor)
    ):
        return _hash_ordered(expr.left, set_names) or _hash_ordered(expr.right, set_names)
    return False


def r004_hash_order(module: Module) -> Iterator[Hit]:
    if not module.within(DECISION_PACKAGES):
        return
    set_names = _set_bindings(module)
    for node, scope in module.nodes:
        if isinstance(node, ast.For):
            iterables = [node.iter]
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            iterables = [gen.iter for gen in node.generators]
        elif isinstance(node, ast.Call) and node.args and (
            module.resolve(node.func) in _ORDER_CONSUMERS
        ):
            iterables = [node.args[0]]
        else:
            continue
        if any(_hash_ordered(expr, set_names) for expr in iterables):
            yield node, scope


def _floatish(node: ast.expr, module: Module) -> bool:
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.UnaryOp):
        return _floatish(node.operand, module)
    if isinstance(node, ast.Call):
        return _dotted(node.func) == "float"
    if isinstance(node, ast.Subscript):
        return _floatish(node.value, module)
    if isinstance(node, (ast.Name, ast.Attribute)):
        terminal = node.attr if isinstance(node, ast.Attribute) else node.id
        return module.resolve(node) in _FLOAT_CONSTS or bool(_FLOAT_NAME.search(terminal))
    return False


def r005_float_equality(module: Module) -> Iterator[Hit]:
    if not module.within(SCORING_PACKAGES):
        return
    for node, scope in module.nodes:
        if (
            isinstance(node, ast.Compare)
            and any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
            and any(_floatish(o, module) for o in (node.left, *node.comparators))
        ):
            yield node, scope


#: ``(module, function)`` besides ``__post_init__`` that may write a
#: frozen field: the field-contract walker, which ``__post_init__``
#: bodies call to store a value coerced to its field's type.
SETATTR_HELPERS = {("repro.core.spec", "check_bounds")}


def r006_mutable_state(module: Module) -> Iterator[Hit]:
    for node, scope in module.nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for default in (*node.args.defaults, *node.args.kw_defaults):
                if isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                    isinstance(default, ast.Call)
                    and module.resolve(default.func) in _MUTABLE_FACTORIES
                ):
                    yield default, scope
        elif (
            isinstance(node, ast.Call)
            and module.resolve(node.func) == "object.__setattr__"
            and scope.rpartition(".")[2] != "__post_init__"
            and (module.name, scope) not in SETATTR_HELPERS
        ):
            yield node, scope


CHECKS: dict[str, Callable[[Module], Iterator[Hit]]] = {
    "R001": r001_clock_and_entropy,
    "R002": r002_global_rng,
    "R003": r003_unseeded_rng,
    "R004": r004_hash_order,
    "R005": r005_float_equality,
    "R006": r006_mutable_state,
}


@pytest.fixture(scope="module")
def modules(src_tree) -> list[Module]:
    """``src/repro`` (the session tree) and ``scripts/*.py``, by dotted name."""
    out = []
    for path, tree in src_tree.items():
        name = "repro." + path.removesuffix(".py").replace("/", ".")
        out.append(Module(name.removesuffix(".__init__"), tree))
    for path in sorted((REPO / "scripts").glob("*.py")):
        out.append(Module(f"scripts.{path.stem}", ast.parse(path.read_text(encoding="utf-8"))))
    return out


def _hits(rule: str, modules: list[Module]) -> dict[str, list[int]]:
    """``module::scope`` -> the lines ``rule`` flags there."""
    hits: dict[str, list[int]] = {}
    for module in modules:
        for node, scope in CHECKS[rule](module):
            hits.setdefault(f"{module.name}::{scope or '<module>'}", []).append(node.lineno)
    return hits


def test_r001_no_wall_clock_or_entropy_source(modules):
    assert _hits("R001", modules) == {}


def test_r002_no_global_rng(modules):
    assert _hits("R002", modules) == {}


def test_r003_default_rng_is_seeded(modules):
    assert _hits("R003", modules) == {}


def test_r004_no_hash_order_iteration_in_decision_paths(modules):
    assert _hits("R004", modules) == {}


def test_r005_float_equality_only_where_allowed(modules):
    flagged = set(_hits("R005", modules))
    # (exact comparisons with no reason, ALLOWED entries that match none)
    assert (flagged - set(ALLOWED), set(ALLOWED) - flagged) == (set(), set())
    assert all(reason.strip() for reason in ALLOWED.values())


def test_r006_no_mutable_defaults_or_frozen_backdoors(modules):
    assert _hits("R006", modules) == {}


# -- synthetic cases: (rule, module, source, expected hits) ------------------

CASES = {
    "r001_flags_wall_clock_and_entropy": ("R001", "repro.workload.gen", """
        import time
        import uuid
        import os

        def stamp():
            return time.time(), uuid.uuid4(), os.urandom(8)
        """, 3),
    "r001_resolves_import_aliases": ("R001", "repro.workload.gen", """
        from time import time as wall
        from datetime import datetime

        def stamp():
            return wall(), datetime.now()
        """, 2),
    "r001_allows_perf_counter": ("R001", "repro.workload.gen", """
        import time

        def elapsed(t0):
            return time.perf_counter() - t0
        """, 0),
    "r001_allows_the_timing_shim": ("R001", "repro.obs.metrics", """
        import time

        def now():
            return time.time()
        """, 0),
    # Monotonic reads are still clock state: a replay elsewhere differs.
    "r001_flags_monotonic_clocks": ("R001", "repro.workload.gen", """
        import time

        def stamp():
            return time.monotonic(), time.monotonic_ns()
        """, 2),
    # The whole secrets module is an entropy source.
    "r001_flags_every_secrets_function": ("R001", "repro.workload.gen", """
        import secrets
        from secrets import token_hex

        def ident():
            return token_hex(8), secrets.randbelow(10)
        """, 2),
    "r001_flags_scripts": ("R001", "scripts.run", """
        import time

        def stamp():
            return time.time()
        """, 1),
    "r002_flags_stdlib_and_numpy_global_rng": ("R002", "repro.workload.gen", """
        import random
        import numpy as np

        def draw():
            return random.random(), np.random.rand(3), np.random.shuffle([1])
        """, 3),
    "r002_allows_explicit_generators": ("R002", "repro.workload.gen", """
        import numpy as np

        def draw(seed):
            rng = np.random.default_rng(seed)
            ss = np.random.SeedSequence(seed)
            return rng.random(), np.random.PCG64(seed), ss
        """, 0),
    "r003_flags_unseeded_default_rng": ("R003", "repro.workload.gen", """
        from numpy.random import default_rng

        def draw():
            return default_rng().random()
        """, 1),
    "r003_allows_seeded_default_rng": ("R003", "repro.workload.gen", """
        import numpy as np

        def draw(seed):
            return np.random.default_rng(seed).random()

        def draw_kw(seed):
            return np.random.default_rng(seed=seed).random()
        """, 0),
    "r004_flags_set_iteration_in_decision_package": ("R004", "repro.scheduling.pick", """
        def pick(hosts):
            seen: set[int] = set()
            for h in seen:
                yield h
            return [h for h in {1, 2, 3}]
        """, 2),
    "r004_flags_self_attr_sets_and_keys_and_set_ops": ("R004", "repro.simulator.state", """
        class S:
            def __init__(self):
                self._dirty = set()

            def flush(self, table, other):
                for j in self._dirty:
                    pass
                for k in table.keys():
                    pass
                return list(self._dirty - other)
        """, 3),
    "r004_silent_when_sorted": ("R004", "repro.simulator.state", """
        class S:
            def __init__(self):
                self._dirty = set()

            def flush(self):
                for j in sorted(self._dirty):
                    pass
        """, 0),
    "r004_silent_outside_decision_packages": ("R004", "repro.analysis.report", """
        def tags(items):
            return [t for t in set(items)]
        """, 0),
    "r005_flags_float_equality_on_scores": ("R005", "repro.scheduling.score", """
        import math

        def same(score_a, score_b, ratio):
            if score_a == score_b:
                return True
            return ratio != math.pi
        """, 2),
    "r005_allows_the_tolerance_helpers": ("R005", "repro.scheduling.score", """
        from repro.scheduling.constants import floats_equal

        def same(score_a, score_b):
            return floats_equal(score_a, score_b)
        """, 0),
    "r005_scoped_to_scheduling_and_simulator": ("R005", "repro.analysis.post", """
        def same(score_a, score_b):
            return score_a == score_b
        """, 0),
    "r006_flags_mutable_defaults_and_setattr_backdoor": ("R006", "repro.runner.cfg", """
        def collect(items=[], table={}):
            return items, table

        class Frozen:
            def rewrite(self, value):
                object.__setattr__(self, "x", value)

        def check_bounds(obj):  # the walker's name, but not the walker
            object.__setattr__(obj, "x", 1)
        """, 4),
    "r006_allows_none_default_and_post_init": ("R006", "repro.runner.cfg", """
        def collect(items=None):
            return list(items or [])

        class Frozen:
            def __post_init__(self):
                object.__setattr__(self, "x", 1)
        """, 0),
}


@pytest.mark.parametrize("case", CASES)
def test_case(case):
    rule, name, source, expected = CASES[case]
    module = Module(name, ast.parse(textwrap.dedent(source)))
    # The case's own rule fires `expected` times and no other rule fires.
    assert {r: len(list(check(module))) for r, check in CHECKS.items()} == {
        r: expected if r == rule else 0 for r in CHECKS
    }


def test_every_rule_has_a_bad_and_a_good_case():
    covered = {(rule, expected > 0) for rule, _, _, expected in CASES.values()}
    assert covered == {(rule, bad) for rule in CHECKS for bad in (True, False)}
