"""Property tests: the incremental kernel is bit-identical to naive.

Two clusters — one per kernel (``incremental``, ``naive``) — are
driven through the *same* random operation sequence (arrivals,
departures, host failures), and after every step the incremental
kernel's ``feasibility()``/``scores()``/``select()`` must equal the
naive reference **element-wise and bit-exactly** (``np.array_equal``,
no tolerance): the kernel's whole correctness argument is that it
reorders bookkeeping, never arithmetic.

Directed cases cover the states property shrinking tends to miss:
all-empty, all-full, and dead-host clusters (via the same
``kill_host`` drain that :class:`FaultySimulation` uses) — plus the
adversarial cache states the shape cache and candidate masks must
survive: stale entries after bulk departures, every host dirty at once
(``invalidate()``), and ``set_effective_capacity`` shrinking/growing
capacity mid-stream.
"""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import OversubscriptionLevel, SlackVMConfig, VMRequest, VMSpec
from repro.hardware import MachineSpec
from repro.simulator import naive_feasibility, naive_scores
from repro.simulator.vectorpool import POLICIES, VectorCluster

RATIOS = (1.0, 2.0, 3.0)

def _vm(i: int, vcpus: int, mem: float, ratio: float) -> VMRequest:
    return VMRequest(
        vm_id=f"vm-{i:03d}",
        spec=VMSpec(vcpus, mem),
        level=OversubscriptionLevel(ratio),
    )


def _clusters(machines):
    """(incremental, naive-reference) over the same fleet."""
    cfg = SlackVMConfig()
    return (
        VectorCluster(machines, cfg, kernel="incremental"),
        VectorCluster(machines, cfg, kernel="naive"),
    )


def _naive_select(cluster, vm, policy):
    feasible, _g, _o = naive_feasibility(cluster, vm)
    if not feasible.any():
        return None
    if policy == "first_fit":
        return int(np.argmax(feasible))
    masked = np.where(feasible, naive_scores(cluster, vm, policy), -np.inf)
    return int(np.argmax(masked))


def _assert_probe_equal(inc, ref, vm, policy):
    feas_r, growth_r, own_r = naive_feasibility(ref, vm)
    scores_r = naive_scores(ref, vm, policy)
    feas_f, growth_f, own_f = (a.copy() for a in inc.feasibility(vm))
    assert np.array_equal(feas_f, feas_r), vm
    assert np.array_equal(growth_f, growth_r), vm
    assert np.array_equal(own_f, own_r), vm
    # Bit-exact, not approx: the kernels must share every rounding.
    assert np.array_equal(inc.scores(vm, policy), scores_r), vm
    assert inc.select(vm, policy) == _naive_select(ref, vm, policy), vm


@st.composite
def operation_sequence(draw):
    num_hosts = draw(st.integers(min_value=1, max_value=8))
    machines = [
        MachineSpec(
            f"pm-{i}",
            draw(st.sampled_from([4, 8, 16])),
            float(draw(st.sampled_from([16, 32, 64]))),
        )
        for i in range(num_hosts)
    ]
    num_ops = draw(st.integers(min_value=1, max_value=40))
    ops = []
    for i in range(num_ops):
        kind = draw(
            st.sampled_from(
                ["arrive", "arrive", "arrive", "depart", "kill", "capacity"]
            )
        )
        if kind == "arrive":
            ops.append(
                (
                    "arrive",
                    _vm(
                        i,
                        draw(st.sampled_from([1, 2, 4, 8])),
                        float(draw(st.sampled_from([1, 2, 4, 8, 16]))),
                        draw(st.sampled_from(RATIOS)),
                    ),
                )
            )
        elif kind == "depart":
            ops.append(("depart", draw(st.integers(min_value=0, max_value=10**6))))
        elif kind == "kill":
            ops.append(("kill", draw(st.integers(min_value=0, max_value=num_hosts - 1))))
        else:  # mid-stream effective-capacity shrink/grow
            ops.append(("capacity", draw(st.sampled_from([0.5, 0.8, 1.0, 1.25, 2.0]))))
    probe = _vm(
        10**6,
        draw(st.sampled_from([1, 2, 4])),
        float(draw(st.sampled_from([1, 2, 8]))),
        draw(st.sampled_from(RATIOS)),
    )
    return machines, ops, probe


@pytest.mark.slow
@settings(max_examples=80, deadline=None)
@given(case=operation_sequence(), policy=st.sampled_from(POLICIES))
def test_kernels_agree_through_random_operation_sequences(case, policy):
    machines, ops, probe = case
    inc, ref = _clusters(machines)
    dead: set[int] = set()
    for op, arg in ops:
        if op == "arrive":
            _assert_probe_equal(inc, ref, arg, policy)
            host = inc.select(arg, policy)
            if host is not None:
                for c in (inc, ref):
                    c.deploy(arg, host)
        elif op == "depart":
            placed = inc.placed_vm_ids
            if placed:
                vm_id = placed[arg % len(placed)]
                for c in (inc, ref):
                    c.remove(vm_id)
        elif op == "kill":
            # kill: drain like FaultySimulation._fail_host, then fail
            if arg in dead:
                continue
            for vm_id in inc.vms_on(arg):
                for c in (inc, ref):
                    c.remove(vm_id)
            for c in (inc, ref):
                c.kill_host(arg)
            dead.add(arg)
        else:  # capacity: effective-capacity override mid-stream
            eff = inc.physical_cpu * arg
            for c in (inc, ref):
                c.set_effective_capacity(eff.copy())
    _assert_probe_equal(inc, ref, probe, policy)
    assert np.array_equal(inc.alloc_cpu, ref.alloc_cpu)
    assert np.array_equal(inc.alloc_mem, ref.alloc_mem)
    assert np.array_equal(inc.vnode_vcpus, ref.vnode_vcpus)
    assert np.array_equal(inc.vnode_cpus, ref.vnode_cpus)


@pytest.mark.parametrize("policy", POLICIES)
def test_kernels_agree_on_empty_cluster(policy):
    machines = [MachineSpec(f"pm-{i}", 8, 32.0) for i in range(4)]
    inc, ref = _clusters(machines)
    for ratio in RATIOS:
        _assert_probe_equal(inc, ref, _vm(0, 2, 4.0, ratio), policy)


@pytest.mark.parametrize("policy", POLICIES)
def test_kernels_agree_on_full_cluster(policy):
    machines = [MachineSpec(f"pm-{i}", 4, 8.0) for i in range(3)]
    inc, ref = _clusters(machines)
    i = 0
    while True:
        vm = _vm(i, 1, 1.0, 1.0)
        host = inc.select(vm, policy)
        assert host == _naive_select(ref, vm, policy)
        if host is None:
            break
        for c in (inc, ref):
            c.deploy(vm, host)
        i += 1
    assert i > 0  # the loop genuinely filled the cluster
    for ratio in RATIOS:
        _assert_probe_equal(inc, ref, _vm(10**6, 1, 1.0, ratio), policy)


@pytest.mark.parametrize("policy", POLICIES)
def test_kernels_agree_with_dead_hosts(policy):
    machines = [MachineSpec(f"pm-{i}", 8, 32.0) for i in range(4)]
    inc, ref = _clusters(machines)
    for i in range(6):
        vm = _vm(i, 2, 4.0, 2.0)
        host = inc.select(vm, policy)
        assert host is not None
        for c in (inc, ref):
            c.deploy(vm, host)
    for host in (0, 2):
        for vm_id in inc.vms_on(host):
            for c in (inc, ref):
                c.remove(vm_id)
        for c in (inc, ref):
            c.kill_host(host)
    for ratio in RATIOS:
        _assert_probe_equal(inc, ref, _vm(10**6, 2, 4.0, ratio), policy)


def test_all_dead_cluster_rejects_everything():
    machines = [MachineSpec(f"pm-{i}", 8, 32.0) for i in range(2)]
    inc, ref = _clusters(machines)
    for host in range(2):
        for c in (inc, ref):
            c.kill_host(host)
    for policy in POLICIES:
        vm = _vm(0, 1, 1.0, 2.0)
        assert inc.select(vm, policy) is None
        assert _naive_select(ref, vm, policy) is None
        _assert_probe_equal(inc, ref, vm, policy)


# -- adversarial cache states (the shape cache and candidate masks
# -- must survive these without drifting) ------------------------------


@pytest.mark.parametrize("policy", POLICIES)
def test_stale_entries_after_bulk_departures(policy):
    """Warm the caches, then retire most of the fleet's VMs at once.

    The shape cache's mutation-log replay crosses its bulk-rebuild
    threshold here — a stale masked score would surface as a select
    disagreement.
    """
    machines = [MachineSpec(f"pm-{i}", 8, 32.0) for i in range(6)]
    inc, ref = _clusters(machines)
    deployed = []
    for i in range(20):
        vm = _vm(i, 1, 2.0, 2.0)
        _assert_probe_equal(inc, ref, vm, policy)  # warm caches
        host = inc.select(vm, policy)
        if host is None:
            break
        for c in (inc, ref):
            c.deploy(vm, host)
        deployed.append(vm.vm_id)
    assert len(deployed) >= 10
    for vm_id in deployed[:-2]:  # bulk departure wave
        for c in (inc, ref):
            c.remove(vm_id)
    for ratio in RATIOS:
        _assert_probe_equal(inc, ref, _vm(10**6, 2, 4.0, ratio), policy)


@pytest.mark.parametrize("policy", POLICIES)
def test_all_hosts_dirty_after_invalidate(policy):
    """``invalidate()`` marks every host dirty and drops every cache."""
    machines = [MachineSpec(f"pm-{i}", 8, 32.0) for i in range(5)]
    inc, ref = _clusters(machines)
    for i in range(8):
        vm = _vm(i, 2, 4.0, 2.0)
        _assert_probe_equal(inc, ref, vm, policy)
        host = inc.select(vm, policy)
        assert host is not None
        for c in (inc, ref):
            c.deploy(vm, host)
    for c in (inc, ref):
        c.invalidate()
    for ratio in RATIOS:
        _assert_probe_equal(inc, ref, _vm(10**6, 1, 2.0, ratio), policy)


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("factor", [0.5, 1.5])
def test_set_effective_capacity_mid_stream(policy, factor):
    """Shrink/grow effective capacity between arrivals.

    Capacity overrides rewrite ``cap_cpu`` wholesale (the dynamic
    oversubscription controller's path); every cached structure —
    candidate masks included — must be rebuilt before the next
    selection.
    """
    machines = [MachineSpec(f"pm-{i}", 8, 32.0) for i in range(5)]
    inc, ref = _clusters(machines)
    for i in range(6):
        vm = _vm(i, 2, 4.0, 2.0)
        _assert_probe_equal(inc, ref, vm, policy)
        host = inc.select(vm, policy)
        assert host is not None
        for c in (inc, ref):
            c.deploy(vm, host)
    eff = inc.physical_cpu * factor
    for c in (inc, ref):
        c.set_effective_capacity(eff.copy())
    for ratio in RATIOS:
        _assert_probe_equal(inc, ref, _vm(10**6, 2, 2.0, ratio), policy)
    # And back: a second override must not leave stale summaries.
    for c in (inc, ref):
        c.set_effective_capacity(inc.physical_cpu.copy())
    _assert_probe_equal(inc, ref, _vm(10**6 + 1, 1, 1.0, 2.0), policy)
