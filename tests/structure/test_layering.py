"""Import layering: the architecture DAG as a table plus an import walk.

Every package has a rank; a module-level import must point strictly
down the ranks or stay inside its own package, and module-level imports
form no cycle.  Function-scoped and ``if TYPE_CHECKING:`` imports are
the sanctioned late-bound wiring and are exempt — but the function-scoped
ones that point *up* are the architecture's debts, and that set only
shrinks.
"""

from __future__ import annotations

import ast
from graphlib import CycleError, TopologicalSorter

import pytest

#: Package -> rank, bottom (imported by everyone) to top.
RANKS = {
    "core": 0,
    "hardware": 1, "workload": 1, "obs": 1,
    "localsched": 2,
    "scheduling": 3, "perfmodel": 3,
    "simulator": 4,
    "analysis": 5,
    "runner": 6,
    "oversub": 7,
    "sharding": 8,
    "api": 9,
    "serving": 10,
    "cli": 11,
    "__main__": 12,
}

#: Modules ranked above their package, each an architectural decision:
#: audit fingerprints hash live scheduler/simulator state, so
#: ``repro.obs.audit`` reads the upper layers on purpose (read-only).
MODULE_RANKS = {"repro.obs.audit": RANKS["api"]}


def _package(module: str) -> str:
    """``repro.<package>...`` -> package; the root ``repro`` package (the
    public re-export surface) has none and no rank."""
    return module.split(".")[1] if "." in module else ""


def _rank(module: str) -> int | None:
    return MODULE_RANKS.get(module, RANKS.get(_package(module)))


@pytest.fixture(scope="module")
def imports(src_tree) -> list[tuple[str, str, str]]:
    """``(importer, imported module, scope)`` for every import of a
    ``repro`` module; scope is ``"module"``, ``"deferred"`` (inside a
    def) or ``"typing"`` (under ``if TYPE_CHECKING:``)."""
    modules = {}
    for path, tree in src_tree.items():
        parts = ["repro", *path.removesuffix(".py").split("/")]
        modules[".".join(parts[:-1] if parts[-1] == "__init__" else parts)] = tree
    edges = []

    def visit(source: str, nodes, scope: str) -> None:
        for node in nodes:
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(node.test):
                visit(source, node.body, "deferred" if scope == "deferred" else "typing")
                visit(source, node.orelse, scope)
                continue
            else:
                inner = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                visit(source, ast.iter_child_nodes(node), "deferred" if inner else scope)
                continue
            for name in names:
                # `from repro.x import y` imports the package unless y is a module.
                target = name if name in modules else name.rpartition(".")[0]
                if target in modules and target != source:
                    edges.append((source, target, scope))

    for source, tree in modules.items():
        visit(source, tree.body, "module")
    return edges


def _upward(imports, scope: str) -> set[tuple[str, str]]:
    """Cross-package ``scope`` imports that do not point down the ranks."""
    return {
        (source, target)
        for source, target, where in imports
        if where == scope
        and _package(source) != _package(target)
        and None not in (_rank(source), _rank(target))
        and _rank(target) >= _rank(source)
    }


def test_arch_layers_name_exactly_the_packages_that_exist(src_tree):
    # An unranked package would slip past the layering check below.
    packages = {
        path.split("/")[0]
        for path in src_tree
        if path.count("/") == 1 and path.endswith("/__init__.py")
    }
    assert set(RANKS) == packages | {"cli", "__main__"}


def test_module_level_imports_point_down_the_layers(imports):
    assert _upward(imports, "module") == set()


def test_module_level_imports_have_no_cycle(imports):
    graph: dict[str, set[str]] = {}
    for source, target, scope in imports:
        if scope == "module":
            graph.setdefault(source, set()).add(target)
    try:
        TopologicalSorter(graph).prepare()
    except CycleError as exc:
        pytest.fail("module-level import cycle: " + " -> ".join(exc.args[1]))


def test_deferred_upward_imports_only_shrink(imports):
    # Empty: the sweep grid lives in the api its cells call.  Keep it so.
    assert _upward(imports, "deferred") == set()
