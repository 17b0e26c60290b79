"""Property tests: physical capacity invariants hold at every event.

Whatever the policy, pooling setting or workload, the simulator must
never overcommit physical CPUs, never oversubscribe memory, and every
vNode must be sized exactly as Algorithm 1 says: ``ceil(vcpus / ratio)``.
"""

import math

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.core import OversubscriptionLevel, SlackVMConfig, VMRequest, VMSpec
from repro.hardware import MachineSpec
from repro.simulator import EventKind, VectorCluster, workload_events

MACHINE = MachineSpec("pm", 16, 64.0)


@st.composite
def workloads(draw):
    n = draw(st.integers(min_value=1, max_value=50))
    vms = []
    for i in range(n):
        vcpus = draw(st.sampled_from([1, 2, 3, 4, 8]))
        mem = float(draw(st.sampled_from([1, 2, 4, 8, 16, 32])))
        ratio = draw(st.sampled_from([1.0, 2.0, 3.0]))
        arrival = draw(st.floats(min_value=0.0, max_value=50.0))
        departs = draw(st.booleans())
        vms.append(
            VMRequest(
                vm_id=f"vm-{i:03d}",
                spec=VMSpec(vcpus, mem),
                level=OversubscriptionLevel(ratio),
                arrival=arrival,
                departure=arrival + draw(st.floats(min_value=0.1, max_value=30.0))
                if departs
                else None,
            )
        )
    return vms


def check_invariants(cluster: VectorCluster):
    # Physical CPU reservations never exceed machine CPUs.
    assert np.all(cluster.alloc_cpu <= cluster.cap_cpu + 1e-9)
    # Memory is never oversubscribed.
    assert np.all(cluster.alloc_mem <= cluster.cap_mem + 1e-9)
    # Nothing is negative.
    assert np.all(cluster.alloc_cpu >= -1e-9)
    assert np.all(cluster.alloc_mem >= -1e-9)
    assert np.all(cluster.vnode_cpus >= -1e-9)
    assert np.all(cluster.vnode_vcpus >= -1e-9)
    # Each vNode honours its oversubscription guarantee: vcpus <= ratio *
    # cpus, and cpus is the minimal ceil.
    for li, ratio in enumerate(cluster.ratios):
        vcpus = cluster.vnode_vcpus[li]
        cpus = cluster.vnode_cpus[li]
        assert np.all(vcpus <= ratio * cpus + 1e-9)
        for j in range(cluster.num_hosts):
            assert cpus[j] == math.ceil(vcpus[j] / ratio)
    # PM-level CPU allocation is exactly the sum of its vNodes.
    assert np.allclose(cluster.alloc_cpu, cluster.vnode_cpus.sum(axis=0))
    # The O(1) running totals are the array sums, bit for bit.
    assert cluster.total_alloc_cpu == float(cluster.alloc_cpu.sum())
    assert cluster.total_alloc_mem == float(cluster.alloc_mem.sum())


@settings(max_examples=100, deadline=None)
@given(workload=workloads(), pooling=st.booleans(),
       policy=st.sampled_from(["first_fit", "progress"]))
def test_capacity_invariants_hold_at_every_event(workload, pooling, policy):
    cfg = SlackVMConfig(pooling=pooling)
    cluster = VectorCluster([MachineSpec(f"pm-{i}", 16, 64.0) for i in range(3)], cfg)
    alive = set()
    for event in workload_events(workload).drain():
        vm = event.vm
        if event.kind is EventKind.ARRIVAL:
            feasible, _, _ = cluster.feasibility(vm)
            # select == argmax(where(feasible, scores, -inf)), lowest
            # index on ties (np.argmax), None when nobody can host.
            scores = np.where(feasible, cluster.scores(vm, policy), -np.inf)
            expected = int(np.argmax(scores)) if feasible.any() else None
            assert cluster.select(vm, policy) == expected
            if expected is not None:
                cluster.deploy(vm, expected)
                alive.add(vm.vm_id)
        elif vm.vm_id in alive:
            cluster.remove(vm.vm_id)
            alive.discard(vm.vm_id)
        check_invariants(cluster)


@settings(max_examples=100, deadline=None)
@given(workload=workloads())
def test_full_drain_returns_to_empty(workload):
    """Deploy whatever fits, then remove everything: the cluster state
    must return exactly to zero (no accounting leaks)."""
    cfg = SlackVMConfig(pooling=True)
    cluster = VectorCluster([MACHINE], cfg)
    placed = []
    for vm in sorted(workload, key=lambda v: v.vm_id):
        feasible, _, _ = cluster.feasibility(vm)
        if feasible[0]:
            cluster.deploy(vm, 0)
            placed.append(vm.vm_id)
    for vm_id in placed:
        cluster.remove(vm_id)
    assert np.all(cluster.alloc_cpu == 0)
    assert np.all(cluster.alloc_mem == 0)
    assert np.all(cluster.vnode_cpus == 0)
    assert np.all(cluster.vnode_vcpus == 0)


@settings(max_examples=60, deadline=None)
@given(workload=workloads())
def test_feasibility_never_lies(workload):
    """If feasibility() says a host can take the VM, deploy must succeed."""
    cfg = SlackVMConfig(pooling=True)
    cluster = VectorCluster([MachineSpec(f"pm-{i}", 16, 64.0) for i in range(2)], cfg)
    for vm in sorted(workload, key=lambda v: v.vm_id):
        feasible, _, _ = cluster.feasibility(vm)
        for host in np.flatnonzero(feasible):
            # deploy on a copy-free check: deploy then remove restores state
            cluster.deploy(vm, int(host))
            cluster.remove(vm.vm_id)
        if feasible.any():
            cluster.deploy(vm, int(np.flatnonzero(feasible)[0]))
