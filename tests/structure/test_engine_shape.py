"""One event loop, one admission formula, one reference-kernel surface,
and one place that builds workloads and sizing searches."""

from __future__ import annotations

import ast
import inspect

from repro.simulator import refkernel
from repro.simulator.vectorpool import VectorCluster


def test_there_is_exactly_one_event_loop(src_calls):
    """``src/repro`` walks a workload's events in one place
    (``run_events``) and builds a ``SimulationResult`` only there and in
    the shard merge — an engine variant is a backend and/or a
    ``before_event`` hook, never another loop."""
    walkers, builders = [], set()
    for module, _top, name, _call in src_calls:
        if name in ("iter_event_batches", "drain") and module != "simulator/events.py":
            walkers.append(module)
        elif name == "SimulationResult":
            builders.add(module)
    assert walkers == ["simulator/engine.py"]
    assert builders == {"simulator/engine.py", "sharding/merge.py"}


def test_there_is_exactly_one_admission_formula(src_tree):
    """The incremental kernel writes its policy scores in one function,
    keeps no per-call scratch attributes, and no class under
    ``src/repro`` subclasses ``VectorCluster`` — an engine variant is a
    backend and/or a ``before_event`` hook, never a second cluster with
    its own sizing or admission rule."""
    vectorpool = src_tree["simulator/vectorpool.py"]
    scorers = {
        func.name
        for func in ast.walk(vectorpool)
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Constant) and node.value == "progress_bestfit"
    }
    scratch = [
        node.attr
        for node in ast.walk(vectorpool)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
        and node.attr.startswith(("_fb_", "_sc_", "_sel_not"))
    ]
    subclasses = [
        f"{module}::{node.name}"
        for module, tree in src_tree.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for base in node.bases
        if ast.unparse(base).rpartition(".")[2] == "VectorCluster"
    ]
    assert (scorers, scratch, subclasses) == ({"_score_rows"}, [], [])


def test_reference_kernel_mirrors_the_vector_kernel_signatures():
    """Each ``refkernel.naive_<x>`` takes exactly the parameters of
    ``VectorCluster.<x>`` (names, kinds, defaults; the cluster / ``self``
    argument aside) — the kernel-equivalence and golden suites call the
    two interchangeably."""
    def params(fn):
        after_first = list(inspect.signature(fn).parameters.values())[1:]
        return [(p.name, p.kind, p.default) for p in after_first]

    mirrored = [name for name in vars(refkernel) if name.startswith("naive_")]
    assert mirrored
    for name in mirrored:
        mirror = getattr(VectorCluster, name.removeprefix("naive_"))
        assert params(getattr(refkernel, name)) == params(mirror), name


def test_workloads_and_sizing_searches_are_built_in_one_place(src_calls):
    """Outside ``repro.workload`` a trace is generated only by
    ``api.build_workload``, and a minimal-cluster search is started only by
    ``api.evaluate`` and ``repro size`` — a front end that wants either
    goes through ``repro.api``."""
    generators, sizers = set(), set()
    for module, top, name, _call in src_calls:
        if name in ("generate_workload", "WorkloadParams"):
            if not module.startswith("workload/"):
                generators.add(module)
        elif name == "minimal_cluster":
            sizers.add(f"{module}:{top}")
    assert generators == {"api/run.py"}
    assert sizers == {"api/run.py:evaluate", "cli.py:_cmd_size"}
