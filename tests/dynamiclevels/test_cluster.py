"""Tests of the dynamic-level cluster."""

import math

import numpy as np
import pytest

from repro.core import (
    LEVEL_1_1,
    LEVEL_3_1,
    ConfigError,
    OversubscriptionLevel,
    SlackVMConfig,
    VMRequest,
    VMSpec,
)
from repro.dynamiclevels import DynamicLevelCluster, DynamicLevelParams, DynamicLevelSimulation
from repro.hardware import MachineSpec
from repro.simulator import VectorCluster


def vm(vm_id, vcpus=3, mem=2.0, level=LEVEL_3_1, kind="stress", param=0.2,
       arrival=0.0, departure=None):
    return VMRequest(vm_id=vm_id, spec=VMSpec(vcpus, mem), level=level,
                     usage_kind=kind, usage_param=param,
                     arrival=arrival, departure=departure)


def machines(n=1, cpus=8, mem=64.0):
    return [MachineSpec(f"pm-{i}", cpus, mem) for i in range(n)]


@pytest.mark.parametrize("field", ["max_ratio", "safety"])
def test_params_reject_nan(field):
    with pytest.raises(ConfigError):
        DynamicLevelParams(**{field: math.nan})


def test_lightly_used_vnode_reserves_below_static():
    cluster = DynamicLevelCluster(machines(), SlackVMConfig(),
                                  DynamicLevelParams(max_ratio=6.0))
    # 12 vCPUs at 3:1 static would need 4 CPUs; peak 12*0.2*1.2 = 2.88.
    for i in range(4):
        cluster.deploy(vm(f"v{i}", vcpus=3, param=0.2), host=0)
    assert cluster.vnode_vcpus[2, 0] == 12
    assert cluster.alloc_cpu[0] == 3  # ceil(2.88), below static 4

    static = VectorCluster(machines(), SlackVMConfig())
    for i in range(4):
        static.deploy(vm(f"v{i}", vcpus=3, param=0.2), host=0)
    assert static.alloc_cpu[0] == 4


def test_max_ratio_floor_bounds_contention():
    cluster = DynamicLevelCluster(machines(), SlackVMConfig(),
                                  DynamicLevelParams(max_ratio=4.0))
    # Nearly idle VMs: predicted peak ~0, but the 4:1 floor holds.
    for i in range(4):
        cluster.deploy(vm(f"v{i}", vcpus=3, kind="idle", param=0.0), host=0)
    assert cluster.alloc_cpu[0] == 3  # ceil(12/4)


def test_premium_level_is_never_dynamic():
    cluster = DynamicLevelCluster(machines(), SlackVMConfig(),
                                  DynamicLevelParams(max_ratio=6.0))
    cluster.deploy(vm("p", vcpus=4, level=LEVEL_1_1, kind="idle", param=0.0), host=0)
    assert cluster.alloc_cpu[0] == 4  # worst-case guarantee preserved


def test_busy_vms_fall_back_to_static_reservation():
    cluster = DynamicLevelCluster(machines(), SlackVMConfig(),
                                  DynamicLevelParams(max_ratio=6.0, safety=1.2))
    # Peak ~ 3*1.0*1.2 capped at vcpus=3: predicted 3 > static ceil(3/3)=1.
    cluster.deploy(vm("hot", vcpus=3, param=1.0), host=0)
    # Dynamic never reserves MORE than static.
    assert cluster.alloc_cpu[0] == 1


def test_remove_restores_zero_state():
    cluster = DynamicLevelCluster(machines(), SlackVMConfig(),
                                  DynamicLevelParams())
    for i in range(3):
        cluster.deploy(vm(f"v{i}"), host=0)
    for i in range(3):
        cluster.remove(f"v{i}")
    assert cluster.alloc_cpu[0] == 0
    assert np.all(cluster.peak_demand == 0)
    assert np.all(cluster.vnode_cpus == 0)


def test_dynamic_admits_more_vms_than_static():
    dyn = DynamicLevelCluster(machines(cpus=8), SlackVMConfig(),
                              DynamicLevelParams(max_ratio=8.0))
    static = VectorCluster(machines(cpus=8), SlackVMConfig())
    n_dyn = n_static = 0
    for i in range(100):
        request = vm(f"v{i}", vcpus=3, mem=0.5, param=0.15)
        if dyn.feasibility(request)[0][0]:
            dyn.deploy(request, 0)
            n_dyn += 1
        request2 = vm(f"w{i}", vcpus=3, mem=0.5, param=0.15)
        if static.feasibility(request2)[0][0]:
            static.deploy(request2, 0)
            n_static += 1
    assert n_dyn > n_static


def test_simulation_end_to_end():
    sim = DynamicLevelSimulation(machines(2), policy="progress")
    trace = [vm(f"v{i}", arrival=float(i), departure=float(i) + 50.0)
             for i in range(10)]
    result = sim.run(trace)
    assert result.feasible
    assert len(result.placements) == 10


def test_pooling_through_dynamic_cluster():
    """§V-B pooling still works when vNodes are demand-sized."""
    from repro.core import LEVEL_2_1

    cluster = DynamicLevelCluster(machines(cpus=8), SlackVMConfig(pooling=True),
                                  DynamicLevelParams(max_ratio=6.0))
    # Fill the PM: premium takes 6 CPUs; a 2:1 vNode with slack.
    cluster.deploy(vm("prem", vcpus=6, mem=4.0, level=LEVEL_1_1,
                      kind="stress", param=1.0), host=0)
    cluster.deploy(vm("mid", vcpus=3, mem=4.0, level=LEVEL_2_1,
                      kind="stress", param=1.0), host=0)
    probe = vm("low", vcpus=1, mem=2.0, level=LEVEL_3_1, kind="stress", param=1.0)
    feasible, _, own = cluster.feasibility(probe)
    record = cluster.deploy(probe, host=0)
    assert record.pooled
    cluster.remove("low")
    assert cluster.vnode_vcpus[1, 0] == 3  # 2:1 vNode restored


def _azure_f_seed3():
    """Azure mix F, population 200, seed 3 on 14 hosts of 32c/128 GB."""
    from repro.api import RunSpec, build_config, build_workload

    spec = RunSpec(provider="azure", mix="F", target_population=200, seed=3)
    trace = build_workload(spec)
    return trace, build_config(spec, trace), machines(14, cpus=32, mem=128.0)


def test_fixed_seed_run_is_pinned():
    """Byte-level fence recorded at the commit before the engines moved
    onto ``run_events``."""
    import hashlib

    from repro.simulator import result_stream

    trace, config, fleet = _azure_f_seed3()
    result = DynamicLevelSimulation(fleet, config, policy="progress").run(trace)
    assert hashlib.sha256(result_stream(result).encode()).hexdigest() == (
        "758dcc39b696aca2fca06b736b48a50cae4d5b192388edb4a2f956a23029a2de"
    )
    assert (len(result.placements), len(result.rejections)) == (659, 0)
    assert result.peak_allocation() == (297.0, 795.0)


@pytest.mark.parametrize("policy", ["progress", "first_fit"])
def test_select_and_totals_answer_from_the_dynamic_tables(policy):
    """``select``/``first_feasible`` and the running totals must follow
    the overridden (peak-demand) admission and accounting, not the
    static-level caches inherited from :class:`VectorCluster`."""
    from repro.simulator.events import EventKind, workload_event_list

    trace, config, fleet = _azure_f_seed3()
    cluster = DynamicLevelCluster(fleet, config)
    alive = set()
    for event in workload_event_list(trace):
        request = event.vm
        if event.kind is EventKind.ARRIVAL:
            feasible, _growth, _own = cluster.feasibility(request)
            expected = (
                int(np.argmax(np.where(feasible, cluster.scores(request, policy), -np.inf)))
                if feasible.any() else None
            )
            assert cluster.select(request, policy) == expected
            if policy == "first_fit":
                assert cluster.first_feasible(request) == expected
            if expected is not None:
                cluster.deploy(request, expected)
                alive.add(request.vm_id)
        elif request.vm_id in alive:
            cluster.remove(request.vm_id)
            alive.discard(request.vm_id)
        assert cluster.total_alloc_cpu == float(cluster.alloc_cpu.sum())
        assert cluster.total_alloc_mem == float(cluster.alloc_mem.sum())
    assert cluster.total_alloc_cpu > 0


def test_dynamic_cluster_inherits_the_base_accounting(monkeypatch):
    """Only the sizing rule differs from :class:`VectorCluster`: deploy /
    remove keep the O(1) running totals (no per-event O(hosts) recount)
    and emit the base class's admission records."""
    from repro.core import LEVEL_2_1
    from repro.obs import MemoryRecorder

    cluster = DynamicLevelCluster(machines(cpus=8), SlackVMConfig(),
                                  DynamicLevelParams(max_ratio=6.0))
    cluster.recorder = MemoryRecorder()
    monkeypatch.setattr(
        cluster, "_recount_mem",
        lambda: pytest.fail("O(hosts) recount on the per-event path"),
    )
    cluster.deploy(vm("prem", vcpus=6, mem=4.0, level=LEVEL_1_1, param=1.0), host=0)
    cluster.deploy(vm("mid", vcpus=3, mem=4.0, level=LEVEL_2_1, param=1.0), host=0)
    cluster.deploy(vm("low", vcpus=1, mem=2.0, param=1.0), host=0)  # pools into 2:1
    assert [(a.vm_id, a.hosted_ratio, a.growth, a.pooled)
            for a in cluster.recorder.admissions] == [
        ("prem", 1.0, 6, False), ("mid", 2.0, 2, False), ("low", 2.0, 0, True),
    ]
    cluster.remove("mid")
    assert cluster.total_alloc_cpu == float(cluster.alloc_cpu.sum()) == 7.0
    assert cluster.total_alloc_mem == float(cluster.alloc_mem.sum()) == 6.0
