"""Every public definition in ``src/repro`` has a caller outside the tests.

A capability that only its own unit tests reach is code nothing runs:
it is documented, reviewed and timed in tier-1, and it guards nothing.

The walk is by name and transitive.  The roots are every name that
``perf/``, ``benchmarks/``, ``examples/`` and ``scripts/`` mention
(their ``tests/`` directories excepted), plus the module-level
statements of ``src/repro`` that define nothing (``__main__`` guards).
A top-level ``def``, ``class`` or assignment is reached once its name
is, and then every name its body mentions is reached too, so a
definition that only unreached definitions use is unreached as well.
A class body reaches its bases, decorators, class-level statements and
dunder methods with the class; every other method (or property) is
reached only when its name is reached as an attribute (``.name``), and
then its own body is reached in turn.  Package ``__init__`` re-exports
and ``__all__`` are not callers: they name everything.

Names match bare: ``foo`` reaches every top-level ``foo``, ``obj.foo``
reaches that and every method ``foo``.  That can only over-count
callers: the fence misses a dead definition that shares its name with a
live one, and never flags a live one.  Top-level assignments (tables,
constants) carry reachability but are not fenced; public ``def`` and
``class`` are, and so are the public methods of public top-level
classes.  Dunders are never fenced.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

REPO = Path(repro.__file__).resolve().parents[2]
CALLERS = ("perf", "benchmarks", "examples", "scripts")

#: ``module::name`` (``module::Class.method`` for a method) -> why a
#: definition with no non-test caller stays: the live path it is the
#: test oracle for, or the fixture or reader it is.
TEST_ONLY = {
    "hardware/topology.py::Topology.core_distance": (
        "oracle for Topology.distance_matrix "
        "(test_distance_matrix_matches_pairwise_function)"
    ),
    "workload/usage.py::UsageProfile.demand_series": (
        "oracle for ClusterUsageMonitor.windows' diurnal_demand matrix "
        "(tests/oversub/test_batch_equivalence.py)"
    ),
    "localsched/vnode.py::VNode.allocated_vcpus": (
        "reader the vNode sizing tests assert through "
        "(tests/localsched/test_vnode.py, test_agent_properties.py)"
    ),
    "obs/records.py::load_jsonl_records": (
        "reader of the golden decision corpus (tests/simulator/test_golden_trace.py)"
    ),
    "hardware/topology.py::small_smp": "fixture topology of tests/hardware",
}


def _names(node: ast.AST) -> list[str]:
    """What ``node`` mentions: ``foo`` for a bare name, ``.foo`` for an attribute."""
    return [
        n.id if isinstance(n, ast.Name) else "." + n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    ]


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _unreached(src_tree: dict[str, ast.Module], callers: list[ast.Module]) -> set[str]:
    """``module::name`` of every fenced definition no root reaches."""
    bodies: dict[str, list[list[str]]] = {}  # name -> what each definition mentions
    fenced: dict[str, str] = {}  # module::name -> the name that reaches it
    roots: list[str] = [name for tree in callers for name in _names(tree)]
    for module, tree in src_tree.items():
        if module.endswith("__init__.py"):
            continue
        for top in tree.body:
            if isinstance(top, (ast.Import, ast.ImportFrom)):
                continue
            own: list[str] = []
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                targets = [top.name]
                if not top.name.startswith("_"):
                    fenced[f"{module}::{top.name}"] = top.name
            elif isinstance(top, (ast.Assign, ast.AnnAssign)):
                nodes = top.targets if isinstance(top, ast.Assign) else [top.target]
                targets = [t.id for t in nodes if isinstance(t, ast.Name)]
                if targets == ["__all__"]:
                    continue
            else:
                targets = []
            if isinstance(top, ast.ClassDef):
                for node in (*top.bases, *top.keywords, *top.decorator_list):
                    own.extend(_names(node))
                for stmt in top.body:
                    if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) or (
                        _is_dunder(stmt.name)
                    ):
                        own.extend(_names(stmt))
                        continue
                    bodies.setdefault("." + stmt.name, []).append(_names(stmt))
                    if not (top.name.startswith("_") or stmt.name.startswith("_")):
                        fenced[f"{module}::{top.name}.{stmt.name}"] = "." + stmt.name
            else:
                own = _names(top)
            if not targets:
                roots.extend(own)
            for target in targets:
                bodies.setdefault(target, []).append(own)
    # One worklist pass: each name is expanded the first time it is reached.
    reached: set[str] = set()
    while roots:
        name = roots.pop()
        if name not in reached:
            reached.add(name)
            if name.startswith("."):  # an attribute reaches the bare name too
                roots.append(name[1:])
            for body in bodies.get(name, ()):
                roots.extend(body)
    return {key for key, name in fenced.items() if name not in reached}


def _caller_trees() -> list[ast.Module]:
    return [
        ast.parse(path.read_text(encoding="utf-8"))
        for directory in CALLERS
        for path in sorted((REPO / directory).rglob("*.py"))
        if "tests" not in path.relative_to(REPO).parts
    ]


def test_every_public_definition_has_a_non_test_caller(src_tree):
    unreached = _unreached(src_tree, _caller_trees())
    # (only tests call it, needs a caller or a TEST_ONLY reason;
    #  listed in TEST_ONLY but now has a real caller, drop the entry)
    assert (unreached - set(TEST_ONLY), set(TEST_ONLY) - unreached) == (set(), set())
    assert all(reason.strip() for reason in TEST_ONLY.values())


_SYNTHETIC = '''
class Engine:
    def __init__(self):
        self.ready = True

    def __repr__(self):
        return "Engine"

    def run(self):
        return self.helper()

    def helper(self):
        return 1

    def only_tests_call_this(self):
        return 2

    def _private(self):
        return 3


def build():
    return Engine()
'''


def test_walker_fences_methods_by_attribute_reach():
    src = {"engine.py": ast.parse(_SYNTHETIC)}
    caller = [ast.parse("from engine import build\nbuild().run()\n")]
    # ``run`` is reached as ``.run``; its body reaches ``.helper``.
    # Dunders and private methods are never fenced.
    assert _unreached(src, caller) == {"engine.py::Engine.only_tests_call_this"}
    # With no caller at all, the class and every public method are flagged.
    assert _unreached(src, []) == {
        "engine.py::build",
        "engine.py::Engine",
        "engine.py::Engine.run",
        "engine.py::Engine.helper",
        "engine.py::Engine.only_tests_call_this",
    }
