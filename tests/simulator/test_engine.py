"""Tests of the reference (object-path) simulation engine."""

import pytest

from repro.core import LEVEL_1_1, LEVEL_2_1, LEVEL_3_1, SlackVMConfig, VMRequest, VMSpec
from repro.hardware import MachineSpec
from repro.scheduling import first_fit_scheduler, slackvm_scheduler
from repro.simulator import Simulation, build_hosts


MACHINE = MachineSpec("pm", 8, 32.0)


def vm(vm_id, vcpus=2, mem=4.0, level=LEVEL_1_1, arrival=0.0, departure=None):
    return VMRequest(
        vm_id=vm_id, spec=VMSpec(vcpus, mem), level=level,
        arrival=arrival, departure=departure,
    )


def test_all_vms_placed_when_capacity_allows():
    hosts = build_hosts(MACHINE, 2)
    sim = Simulation(hosts, first_fit_scheduler())
    result = sim.run([vm(f"vm-{i}") for i in range(6)])
    assert result.feasible
    assert len(result.placements) == 6


def test_first_fit_fills_hosts_in_order():
    hosts = build_hosts(MACHINE, 3)
    sim = Simulation(hosts, first_fit_scheduler())
    result = sim.run([vm(f"vm-{i}", vcpus=4, mem=4.0) for i in range(4)])
    assert [result.placements[f"vm-{i}"].host for i in range(4)] == [0, 0, 1, 1]


def test_rejection_recorded():
    hosts = build_hosts(MACHINE, 1)
    sim = Simulation(hosts, first_fit_scheduler())
    result = sim.run([vm("big", vcpus=16, mem=8.0)])
    assert result.rejections == ["big"]
    assert not result.feasible


def test_fail_fast_stops_on_first_rejection():
    hosts = build_hosts(MACHINE, 1)
    sim = Simulation(hosts, first_fit_scheduler(), fail_fast=True)
    result = sim.run([vm("big", vcpus=16), vm("ok", arrival=1.0)])
    assert result.rejections == ["big"]
    assert "ok" not in result.placements


def test_departures_free_capacity():
    hosts = build_hosts(MACHINE, 1)
    sim = Simulation(hosts, first_fit_scheduler())
    trace = [
        vm("a", vcpus=8, mem=8.0, arrival=0.0, departure=10.0),
        vm("b", vcpus=8, mem=8.0, arrival=10.0),
    ]
    result = sim.run(trace)
    assert result.feasible


def test_timeline_tracks_allocation():
    hosts = build_hosts(MACHINE, 1)
    sim = Simulation(hosts, first_fit_scheduler())
    result = sim.run([vm("a", vcpus=4, mem=8.0, departure=10.0)])
    times, cpu, mem = result.timeline.as_arrays()
    assert list(times) == [0.0, 10.0]
    assert list(cpu) == [4.0, 0.0]
    assert list(mem) == [8.0, 0.0]


def test_unallocated_at_peak():
    hosts = build_hosts(MACHINE, 1)
    sim = Simulation(hosts, first_fit_scheduler())
    result = sim.run([vm("a", vcpus=4, mem=8.0, departure=10.0)])
    cpu_share, mem_share = result.unallocated_at_peak()
    assert cpu_share == pytest.approx(0.5)
    assert mem_share == pytest.approx(0.75)


def test_pooled_placements_counted():
    cfg = SlackVMConfig(pooling=True)
    hosts = build_hosts(MACHINE, 1, cfg)
    sim = Simulation(hosts, slackvm_scheduler())
    trace = [
        vm("prem", vcpus=6, mem=4.0, level=LEVEL_1_1),
        vm("mid", vcpus=3, mem=4.0, level=LEVEL_2_1, arrival=1.0),
        vm("low", vcpus=1, mem=2.0, level=LEVEL_3_1, arrival=2.0),
    ]
    result = sim.run(trace)
    assert result.feasible
    assert result.pooled_placements == 1
    assert result.placements["low"].hosted_ratio == 2.0


def test_departure_of_rejected_vm_is_ignored():
    hosts = build_hosts(MACHINE, 1)
    sim = Simulation(hosts, first_fit_scheduler())
    trace = [vm("big", vcpus=16, mem=8.0, departure=5.0), vm("ok", arrival=6.0)]
    result = sim.run(trace)
    assert result.rejections == ["big"]
    assert "ok" in result.placements


def _calls_in_src():
    """``(module, enclosing top-level name, called name)`` for every call
    in ``src/repro`` — what the structural fences below read."""
    import ast
    from pathlib import Path

    import repro

    root = Path(repro.__file__).resolve().parent
    for path in sorted(root.rglob("*.py")):
        module = path.relative_to(root).as_posix()
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
                    yield module, getattr(top, "name", "<module>"), name


def test_there_is_exactly_one_event_loop():
    """Structural fence: ``src/repro`` walks a workload's events in one
    place (``run_events``) and builds a ``SimulationResult`` only there
    and in the shard merge — an engine variant is a backend and/or a
    ``before_event`` hook, never another loop."""
    walkers, builders = [], set()
    for module, _top, name in _calls_in_src():
        if name in ("iter_event_batches", "drain") and module != "simulator/events.py":
            walkers.append(module)
        elif name == "SimulationResult":
            builders.add(module)
    assert walkers == ["simulator/engine.py"]
    assert builders == {"simulator/engine.py", "sharding/merge.py"}


def test_there_is_exactly_one_admission_formula():
    """Structural fence: the incremental kernel writes its policy scores
    in one function, keeps no per-call scratch attributes, and the
    dynamic-level variant replaces the sizing rule without carrying its
    own copy of the admission / accounting code."""
    import ast
    from pathlib import Path

    import repro

    def tree(module):
        path = Path(repro.__file__).resolve().parent / module
        return ast.parse(path.read_text(encoding="utf-8"))

    vectorpool = tree("simulator/vectorpool.py")
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
    copied = []
    for node in ast.walk(tree("dynamiclevels/cluster.py")):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in ("AdmissionRecord", "PlacementRecord"):
                copied.append(node.func.id)
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
            if getattr(node.value, "attr", "") == "_placements":
                copied.append("self._placements[...] = ")
        elif isinstance(node, ast.Constant) and node.value == 1e-9:
            copied.append("1e-9")
    assert (scorers, scratch, copied) == ({"_score_rows"}, [], [])


def test_workloads_and_sizing_searches_are_built_in_one_place():
    """Structural fence: outside ``repro.workload`` a trace is generated
    only by ``api.build_workload`` (plus ``oversub/evaluate.py``, whose
    ``samples_per_window=8`` recipe differs from ``RunSpec``'s and is
    the one named exception), and a minimal-cluster search is started
    only by ``api.evaluate`` and ``repro size`` — a front end that
    wants either goes through ``repro.api``."""
    generators, sizers = set(), set()
    for module, top, name in _calls_in_src():
        if name in ("generate_workload", "WorkloadParams"):
            if not module.startswith("workload/"):
                generators.add(module)
        elif name == "minimal_cluster":
            sizers.add(f"{module}:{top}")
    assert generators == {"api/run.py", "oversub/evaluate.py"}
    assert sizers == {"api/run.py:evaluate", "cli.py:_cmd_size"}
