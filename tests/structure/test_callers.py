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
Package ``__init__`` re-exports and ``__all__`` are not callers: they
name everything.

Names match bare (``foo`` and ``obj.foo`` both reach every top-level
``foo``).  That can only over-count callers: the fence misses a dead
definition that shares its name with a live one, and never flags a
live one.  Top-level assignments (tables, constants) carry reachability
but are not fenced; ``def`` and ``class`` are.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

REPO = Path(repro.__file__).resolve().parents[2]
CALLERS = ("perf", "benchmarks", "examples", "scripts")

_BOUNDS = 'offline references EXPERIMENTS.md "Optimality gap" reports'

#: ``module::name`` -> why a definition with no non-test caller stays.
TEST_ONLY = {
    "analysis/bounds.py::fractional_bound": _BOUNDS,
    "analysis/bounds.py::bfd_snapshot_bound": _BOUNDS,
    "analysis/bounds.py::peak_alive_set": _BOUNDS,
    "obs/records.py::load_jsonl_records": "reads the golden decision corpus back",
    "hardware/topology.py::small_smp": "fixture topology",
    "serving/generator.py::arrival_times": "traffic-config property harness",
}


def _names(node: ast.AST) -> list[str]:
    return [
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    ]


def _unreached(src_tree: dict[str, ast.Module]) -> set[str]:
    """``module::name`` of every public top-level def/class no root reaches."""
    bodies: dict[str, list[list[str]]] = {}  # name -> what each definition mentions
    fenced: set[str] = set()
    roots: list[str] = []
    for module, tree in src_tree.items():
        if module.endswith("__init__.py"):
            continue
        for top in tree.body:
            if isinstance(top, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                targets = [top.name]
                if not top.name.startswith("_"):
                    fenced.add(f"{module}::{top.name}")
            elif isinstance(top, (ast.Assign, ast.AnnAssign)):
                nodes = top.targets if isinstance(top, ast.Assign) else [top.target]
                targets = [t.id for t in nodes if isinstance(t, ast.Name)]
                if targets == ["__all__"]:
                    continue
            else:
                targets = []
            if not targets:
                roots.extend(_names(top))
            for target in targets:
                bodies.setdefault(target, []).append(_names(top))
    for directory in CALLERS:
        for path in sorted((REPO / directory).rglob("*.py")):
            if "tests" not in path.relative_to(REPO).parts:
                roots.extend(_names(ast.parse(path.read_text(encoding="utf-8"))))
    # One worklist pass: each name is expanded the first time it is reached.
    reached: set[str] = set()
    while roots:
        name = roots.pop()
        if name not in reached:
            reached.add(name)
            for body in bodies.get(name, ()):
                roots.extend(body)
    return {key for key in fenced if key.partition("::")[2] not in reached}


def test_every_public_definition_has_a_non_test_caller(src_tree):
    unreached = _unreached(src_tree)
    # (only tests call it, needs a caller or a TEST_ONLY reason;
    #  listed in TEST_ONLY but now has a real caller, drop the entry)
    assert (unreached - set(TEST_ONLY), set(TEST_ONLY) - unreached) == (set(), set())
    assert all(reason.strip() for reason in TEST_ONLY.values())
