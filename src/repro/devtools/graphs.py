"""Architecture DAG and import-graph analysis for reprolint (R009).

The repository's layering contract, refined from the coarse picture in
``docs/ARCHITECTURE.md`` (core/workload → simulator/scheduling →
oversub/sharding → api/serving → cli) down to the real package set.
Every package is assigned an integer rank; a module-level import from
package A to package B is legal only when B sits *strictly below* A
(or both live in the same package).  Function-scoped ("deferred") and
``if TYPE_CHECKING:`` imports are exempt — they are the sanctioned
cycle-breakers for late-bound wiring — but module-level back-edges and
import cycles are findings.

One module intentionally lives above its home package and carries an
explicit override rather than a silent exemption: ``repro.obs.audit``
(the cross-layer audit fingerprint that hashes scheduler and simulator
state).  The root ``repro`` package ``__init__`` is the public
re-export surface and is exempt outright.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.devtools.index import ImportRecord, ModuleSummary, ProjectIndex

__all__ = [
    "ARCH_LAYERS",
    "MODULE_LAYER_OVERRIDES",
    "EXEMPT_MODULES",
    "ImportEdge",
    "layer_rank",
    "module_rank",
    "build_edges",
    "layering_violations",
    "find_cycles",
    "graph_payload",
]

#: The architecture DAG, bottom (imported by everyone) to top.  Rank is
#: the tuple index; an import must point strictly downward.
ARCH_LAYERS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("foundation", ("core",)),
    ("substrate", ("hardware", "workload", "obs")),
    ("placement", ("localsched",)),
    ("policy", ("scheduling", "perfmodel")),
    ("engine", ("simulator", "controlplane")),
    ("models", ("analysis", "dynamiclevels", "migration")),
    ("runner", ("runner",)),
    ("oversub", ("oversub",)),
    ("sharding", ("sharding",)),
    ("api", ("api",)),
    ("surface", ("serving", "devtools")),
    ("cli", ("cli",)),
    ("entry", ("__main__",)),
)

#: Modules whose *import behavior* belongs to a higher band than their
#: home package.  Keep this list short and justified — each entry is an
#: architectural decision, not an escape hatch.
MODULE_LAYER_OVERRIDES: Dict[str, str] = {
    # Audit fingerprints hash live scheduler/simulator state, so the
    # module reaches across layers on purpose (read-only).
    "repro.obs.audit": "api",
}

#: Modules excluded from layering entirely (public re-export roots).
EXEMPT_MODULES = frozenset({"repro"})

_PACKAGE_RANK: Dict[str, int] = {
    pkg: rank
    for rank, (_name, pkgs) in enumerate(ARCH_LAYERS)
    for pkg in pkgs
}
_LAYER_RANK: Dict[str, int] = {
    name: rank for rank, (name, _pkgs) in enumerate(ARCH_LAYERS)
}


class ImportEdge:
    """A module-level import edge in the project graph."""

    __slots__ = ("source", "target", "record")

    def __init__(self, source: str, target: str, record: ImportRecord):
        self.source = source
        self.target = target
        self.record = record

    def to_dict(self) -> dict:
        return {
            "from": self.source,
            "to": self.target,
            "line": self.record.line,
            "deferred": self.record.deferred,
            "type_checking": self.record.type_checking,
        }


def _package_of(module: str) -> Optional[str]:
    """Second dotted component of a ``repro.*`` module, else ``None``."""
    if module == "repro" or not module.startswith("repro."):
        return None
    return module.split(".")[1]


def layer_rank(layer_name: str) -> int:
    return _LAYER_RANK[layer_name]


def module_rank(module: str) -> Optional[int]:
    """Layer rank of a module, honoring per-module overrides."""
    override = MODULE_LAYER_OVERRIDES.get(module)
    if override is not None:
        return _LAYER_RANK[override]
    package = _package_of(module)
    if package is None:
        return None
    return _PACKAGE_RANK.get(package)


def _resolve_target(target: str, modules: Dict[str, ModuleSummary]) -> Optional[str]:
    """Map an import target onto an indexed module, if it is one.

    ``from repro.oversub.controller import X`` targets the module
    itself; ``from repro.oversub import controller`` targets the
    package ``__init__`` — both resolve as long as the file is indexed.
    """
    if target in modules:
        return target
    head = target.rsplit(".", 1)[0] if "." in target else None
    if head and head in modules:
        return head
    return None


def build_edges(index: ProjectIndex) -> List[ImportEdge]:
    """All intra-project import edges (including deferred/guarded)."""
    modules = index.by_module()
    edges: List[ImportEdge] = []
    for module, summary in sorted(modules.items()):
        for record in summary.imports:
            resolved = _resolve_target(record.target, modules)
            if resolved is not None and resolved != module:
                edges.append(ImportEdge(module, resolved, record))
    return edges


def layering_violations(
    index: ProjectIndex, edges: Optional[Sequence[ImportEdge]] = None
) -> List[dict]:
    """Back-edges and unknown packages in the module-level graph.

    Returns finding payloads ``{module, rel_path, line, col, snippet,
    message}`` — the R009 rule turns them into :class:`Finding`s.
    """
    if edges is None:
        edges = build_edges(index)
    modules = index.by_module()
    violations: List[dict] = []

    seen_unknown: set = set()
    for module in sorted(modules):
        if module in EXEMPT_MODULES or not module.startswith("repro."):
            continue
        package = _package_of(module)
        if package is not None and package not in _PACKAGE_RANK:
            if package not in seen_unknown:
                seen_unknown.add(package)
                violations.append(
                    {
                        "module": module,
                        "rel_path": modules[module].rel_path,
                        "line": 1,
                        "col": 0,
                        "snippet": f"package:{package}",
                        "message": (
                            f"package 'repro.{package}' is not in the "
                            "architecture DAG (devtools/graphs.py "
                            "ARCH_LAYERS); place it in a layer"
                        ),
                    }
                )

    for edge in edges:
        if edge.record.deferred or edge.record.type_checking:
            continue  # sanctioned late-bound wiring
        if edge.source in EXEMPT_MODULES:
            continue
        src_rank = module_rank(edge.source)
        dst_rank = module_rank(edge.target)
        if src_rank is None or dst_rank is None:
            continue
        src_pkg = _package_of(edge.source)
        dst_pkg = _package_of(edge.target)
        if src_pkg == dst_pkg and src_pkg is not None:
            continue
        if dst_rank < src_rank:
            continue
        summary = index.by_module()[edge.source]
        direction = "same-rank" if dst_rank == src_rank else "upward"
        violations.append(
            {
                "module": edge.source,
                "rel_path": summary.rel_path,
                "line": edge.record.line,
                "col": edge.record.col,
                "snippet": edge.record.snippet,
                "message": (
                    f"{direction} import {edge.source} -> {edge.target} "
                    f"violates the architecture DAG "
                    f"(rank {src_rank} -> {dst_rank}); move the import "
                    "under TYPE_CHECKING or defer it into the function "
                    "that needs it, or fix the layering"
                ),
            }
        )
    return violations


def find_cycles(
    index: ProjectIndex, edges: Optional[Sequence[ImportEdge]] = None
) -> List[List[str]]:
    """Strongly connected components (size > 1) of module-level imports.

    Ranks already forbid cross-package cycles; this catches the case
    ranks cannot see — a cycle between modules of the *same* package.
    Iterative Tarjan, deterministic ordering.
    """
    if edges is None:
        edges = build_edges(index)
    graph: Dict[str, List[str]] = {}
    for edge in edges:
        if edge.record.deferred or edge.record.type_checking:
            continue
        graph.setdefault(edge.source, []).append(edge.target)
        graph.setdefault(edge.target, [])
    for targets in graph.values():
        targets.sort()

    index_of: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: set = set()
    stack: List[str] = []
    counter = [0]
    sccs: List[List[str]] = []

    for root in sorted(graph):
        if root in index_of:
            continue
        work: List[Tuple[str, int]] = [(root, 0)]
        while work:
            node, child_i = work[-1]
            if child_i == 0:
                index_of[node] = lowlink[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            children = graph[node]
            advanced = False
            while child_i < len(children):
                child = children[child_i]
                child_i += 1
                if child not in index_of:
                    work[-1] = (node, child_i)
                    work.append((child, 0))
                    advanced = True
                    break
                if child in on_stack:
                    lowlink[node] = min(lowlink[node], index_of[child])
            if advanced:
                continue
            work.pop()
            if lowlink[node] == index_of[node]:
                scc: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    scc.append(member)
                    if member == node:
                        break
                if len(scc) > 1:
                    sccs.append(sorted(scc))
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return sorted(sccs)


def graph_payload(index: ProjectIndex) -> dict:
    """The ``repro lint --graph`` debug dump (JSON-ready)."""
    edges = build_edges(index)
    modules = index.by_module()
    return {
        "version": 1,
        "layers": [
            {"rank": rank, "name": name, "packages": list(pkgs)}
            for rank, (name, pkgs) in enumerate(ARCH_LAYERS)
        ],
        "overrides": dict(MODULE_LAYER_OVERRIDES),
        "modules": {
            module: {
                "path": summary.rel_path,
                "package": _package_of(module),
                "rank": module_rank(module),
            }
            for module, summary in sorted(modules.items())
        },
        "edges": [edge.to_dict() for edge in edges],
        "violations": layering_violations(index, edges),
        "cycles": find_cycles(index, edges),
    }
