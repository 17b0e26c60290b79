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
``kill_host`` drain that :class:`FaultySimulation` uses); a first-fit
scan that must cross ``FIRST_FIT_CHUNK`` blocks; and the adversarial
cache states the shape cache and the per-host refresh must survive:
stale entries after bulk departures, one more touched host per probe
up to all of them, every host rebuilt at once (``invalidate()``), and
``set_effective_capacity`` shrinking/growing capacity mid-stream.
More cover the per-shape bookkeeping: more shapes than the shape cache
holds, mutation-log compaction, a VM ratio within ``_LEVEL_RTOL`` of a
level but not equal to it, a refused memory ratio right after a cached
same-size shape, and a deploy and a departure on a killed host before
the next selection.
"""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import OversubscriptionLevel, SlackVMConfig, VMRequest, VMSpec
from repro.core.errors import CapacityError, ConfigError
from repro.hardware import MachineSpec
from repro.scheduling.constants import FIRST_FIT_CHUNK
from repro.simulator import naive_feasibility, naive_scores
from repro.simulator import vectorpool
from repro.simulator.vectorpool import POLICIES, VectorCluster

RATIOS = (1.0, 2.0, 3.0)

#: Level sets the property test draws from: the paper's (memory never
#: oversubscribed) and one with a distinct ``mem_ratio`` per level, which
#: turns off the fused pooling mask and the shape cache.
LEVEL_SETS = (
    tuple(OversubscriptionLevel(r) for r in RATIOS),
    tuple(OversubscriptionLevel(r, m) for r, m in zip(RATIOS, (1.0, 1.5, 2.0))),
)


def _vm(i: int, vcpus: int, mem: float, level) -> VMRequest:
    """``level`` is an :class:`OversubscriptionLevel` or a bare CPU ratio."""
    if not isinstance(level, OversubscriptionLevel):
        level = OversubscriptionLevel(level)
    return VMRequest(vm_id=f"vm-{i:03d}", spec=VMSpec(vcpus, mem), level=level)


def _clusters(machines, cfg=None, host_levels=None):
    """(incremental, naive-reference) over the same fleet."""
    cfg = cfg or SlackVMConfig()
    return (
        VectorCluster(machines, cfg, host_levels, kernel="incremental"),
        VectorCluster(machines, cfg, host_levels, kernel="naive"),
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
    chosen = inc.select(vm, policy)
    assert chosen == _naive_select(ref, vm, policy), vm
    # Same state, same answer: the second call is served by the shape
    # cache when it applies (scored policy, one memory ratio).
    assert inc.select(vm, policy) == chosen, vm


@st.composite
def operation_sequence(draw):
    num_hosts = draw(st.integers(min_value=1, max_value=8))
    machines = [
        MachineSpec(
            f"pm-{i}",
            draw(st.sampled_from([1, 2, 4, 16])),
            float(draw(st.sampled_from([4, 16, 64]))),
        )
        for i in range(num_hosts)
    ]
    levels = draw(st.sampled_from(LEVEL_SETS))
    cfg = SlackVMConfig(levels=levels, pooling=draw(st.booleans()))
    # None = every host offers every level; otherwise a non-empty
    # subset of the ratios per host (dedicated PMs in a mixed fleet).
    host_levels = draw(
        st.none()
        | st.lists(
            st.lists(st.sampled_from(RATIOS), min_size=1, unique=True),
            min_size=num_hosts,
            max_size=num_hosts,
        )
    )
    num_ops = draw(st.integers(min_value=1, max_value=60))
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
                        draw(st.sampled_from(levels)),
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
        draw(st.sampled_from(levels)),
    )
    return machines, cfg, host_levels, ops, probe


@pytest.mark.slow
@settings(max_examples=80, deadline=None)
@given(case=operation_sequence(), policy=st.sampled_from(POLICIES))
def test_kernels_agree_through_random_operation_sequences(case, policy):
    machines, cfg, host_levels, ops, probe = case
    inc, ref = _clusters(machines, cfg, host_levels)
    dead: set[int] = set()
    for op, arg in ops:
        if op == "arrive":
            _assert_probe_equal(inc, ref, arg, policy)
            host = inc.select(arg, policy)
            if host is not None:
                for c in (inc, ref):
                    c.deploy(arg, host)
        elif op == "depart":
            placed = [vm.vm_id for vm, _ in inc.placed_requests()]
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
    # One drawn probe rarely lands on a host that is CPU-full, nearly
    # memory-full and holds pooling slack all at once; sweeping every
    # small shape over the final state makes those verdicts count.
    for level in cfg.levels:
        for vcpus in (1, 2, 4):
            for mem in (1.0, 2.0, 4.0, 8.0, 16.0):
                _assert_probe_equal(inc, ref, _vm(10**6 + 1, vcpus, mem, level), policy)
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


@pytest.mark.parametrize("policy", POLICIES)
def test_pooling_checks_memory_at_the_hosting_levels_ratio(policy):
    """A CPU-full host with slack in its 2:1 vNode and distinct
    ``mem_ratio`` per level: a 3:1 VM can only pool, and whether it fits
    is decided by the *2:1* level's memory ratio (the VM is upgraded
    into that vNode).  Random sequences almost never reach this state."""
    machines = [MachineSpec("pm-0", 2, 16.0), MachineSpec("pm-1", 2, 16.0)]
    cfg = SlackVMConfig(levels=LEVEL_SETS[1])
    one, mid, low = LEVEL_SETS[1]
    inc, ref = _clusters(machines, cfg, host_levels=[RATIOS, (1.0,)])
    for c in (inc, ref):
        c.deploy(_vm(0, 1, 8.0, one), 0)  # 1 CPU, 8 GB
        c.deploy(_vm(1, 1, 3.0, mid), 0)  # 1 CPU (slack 1 vCPU), 3 / 1.5 = 2 GB
    # CPU-full, 6 GB free.  8 GB at 2:1's 1.5 is 5.33 GB: pools.
    fits = _vm(2, 1, 8.0, low)
    feasible, _growth, own_ok = inc.feasibility(fits)
    assert (feasible.tolist(), own_ok.tolist()) == ([True, False], [False, False])
    _assert_probe_equal(inc, ref, fits, policy)
    # 10 GB is 6.67 GB at 1.5 (too much) though only 5 GB at 3:1's own 2.0.
    too_big = _vm(3, 1, 10.0, low)
    assert not inc.feasibility(too_big)[0].any()
    _assert_probe_equal(inc, ref, too_big, policy)
    for c in (inc, ref):
        assert c.deploy(fits, 0).pooled


# -- adversarial cache states (the shape cache and the per-host refresh
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
    """``invalidate()`` rebuilds every host's rows and drops every cache."""
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
    oversubscription controller's path); every cached structure must be
    rebuilt before the next selection.
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


@pytest.mark.parametrize("blocked", ["kill", "fill"])
def test_first_fit_scan_crosses_block_boundaries(blocked):
    """No host of the first two ``FIRST_FIT_CHUNK`` blocks can take a VM
    (dead, or CPU-full with no pooling slack), so first-fit must scan
    into the third block — and past its end when nothing fits."""
    n_blocked = 2 * FIRST_FIT_CHUNK
    machines = [MachineSpec(f"pm-{i}", 1, 4.0) for i in range(n_blocked)] + [
        MachineSpec(f"pm-{n_blocked + i}", 8, 32.0) for i in range(5)
    ]
    inc, ref = _clusters(machines)
    for host in range(n_blocked):
        for c in (inc, ref):
            if blocked == "kill":
                c.kill_host(host)
            else:  # one CPU, a full 2:1 vNode: no growth, no pooling slack
                c.deploy(_vm(host, 2, 1.0, 2.0), host)
    first = n_blocked
    for c in (inc, ref):
        c.deploy(_vm(first, 8, 4.0, 1.0), first)  # CPU-full
        c.deploy(_vm(first + 1, 7, 4.0, 1.0), first + 1)
        c.deploy(_vm(first + 2, 1, 1.0, 2.0), first + 1)  # CPU-full, 2:1 slack 1
    # One vCPU at 2:1 fits the 2:1 vNode's slack at first + 1 and at 3:1
    # pools into it there; at 1:1 it needs an idle CPU, first + 2.
    expected = {1.0: first + 2, 2.0: first + 1, 3.0: first + 1}
    for ratio in RATIOS:
        vm = _vm(10**6, 1, 2.0, ratio)
        assert _naive_select(ref, vm, "first_fit") == expected[ratio]
        assert inc.first_feasible(vm) == expected[ratio]
        _assert_probe_equal(inc, ref, vm, "first_fit")
    for host in range(first, len(machines)):
        for vm_id in inc.vms_on(host):
            for c in (inc, ref):
                c.remove(vm_id)
        for c in (inc, ref):
            c.kill_host(host)
    for ratio in RATIOS:
        vm = _vm(10**6, 1, 2.0, ratio)
        assert _naive_select(ref, vm, "first_fit") is None
        assert inc.first_feasible(vm) is None
        _assert_probe_equal(inc, ref, vm, "first_fit")


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("num_hosts", [3, 16])
def test_dirty_host_count_grows_to_every_host_between_selects(num_hosts, policy):
    """Round ``k`` deploys to or removes from hosts ``0..k-1`` before the
    next probe, so each shape-cache replay sees one more touched host
    than the last — up to all of them — with no ``invalidate()`` in
    between."""
    machines = [MachineSpec(f"pm-{i}", 8, 32.0) for i in range(num_hosts)]
    inc, ref = _clusters(machines)
    seq = 0
    for dirty in range(1, num_hosts + 1):
        for host in range(dirty):
            vm = _vm(seq, 1 + seq % 3, float(1 + seq % 4), RATIOS[seq % 3])
            seq += 1
            placed = inc.vms_on(host)
            leave = (host + dirty) % 2 == 1
            if placed and (leave or not naive_feasibility(ref, vm)[0][host]):
                for c in (inc, ref):
                    c.remove(placed[0])
            else:
                for c in (inc, ref):
                    c.deploy(vm, host)
        for ratio in RATIOS:
            _assert_probe_equal(inc, ref, _vm(10**6, 1, 2.0, ratio), policy)
    assert any(inc.placed_requests())


@pytest.mark.parametrize("policy", POLICIES)
def test_more_shapes_than_the_shape_cache_holds(policy):
    """Eighty distinct shapes against a cache of ``_SHAPE_CACHE_CAP``:
    the shapes past the cap are served straight from the full tables
    while the cached ones keep replaying the mutation log."""
    machines = [MachineSpec(f"pm-{i}", 32, 256.0) for i in range(6)]
    inc, ref = _clusters(machines)
    shapes = [(v, float(m)) for v in range(1, 9) for m in range(1, 11)]
    assert len(shapes) > vectorpool._SHAPE_CACHE_CAP
    live = []
    for rnd in range(2):  # the second round re-requests every shape
        for i, (vcpus, mem) in enumerate(shapes):
            vm = _vm(rnd * len(shapes) + i, vcpus, mem, RATIOS[i % 3])
            _assert_probe_equal(inc, ref, vm, policy)
            host = inc.select(vm, policy)
            if host is not None:
                for c in (inc, ref):
                    c.deploy(vm, host)
                live.append(vm.vm_id)
            if len(live) > 12:
                vm_id = live.pop(0)
                for c in (inc, ref):
                    c.remove(vm_id)
    if policy != "first_fit":
        assert len(inc._shape_cache) == vectorpool._SHAPE_CACHE_CAP


@pytest.mark.parametrize("policy", POLICIES)
def test_mutation_log_compaction(policy, monkeypatch):
    """A tiny compaction threshold: the log is cut under live cache
    entries (both shapes keep arriving), then a shape that stopped
    arriving pins the log and the cache is dropped instead."""
    monkeypatch.setattr(vectorpool, "_MUTLOG_COMPACT", 4)
    machines = [MachineSpec(f"pm-{i}", 8, 32.0) for i in range(5)]
    inc, ref = _clusters(machines)
    live = []
    for i in range(40):
        shape = (1, 2.0, 2.0) if i < 16 or i % 2 else (2, 4.0, 3.0)
        vm = _vm(i, *shape)
        _assert_probe_equal(inc, ref, vm, policy)
        host = inc.select(vm, policy)
        if host is not None:
            for c in (inc, ref):
                c.deploy(vm, host)
            live.append(vm.vm_id)
        if len(live) > 6:
            vm_id = live.pop(0)
            for c in (inc, ref):
                c.remove(vm_id)
    for ratio in RATIOS:
        _assert_probe_equal(inc, ref, _vm(10**6, 2, 4.0, ratio), policy)
    assert len(inc._mutlog) < 4


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("rel", [1 + 5e-10, 1 - 5e-10])
def test_ratio_within_tolerance_of_a_level(policy, rel):
    """A VM ratio that resolves to a configured level without equalling
    it: the pooling trigger and the records read the raw ratio, so the
    shape cache must not serve it the exact level's entry."""
    machines = [MachineSpec(f"pm-{i}", 2, 16.0) for i in range(3)]
    inc, ref = _clusters(machines)
    seq = 0
    for _ in range(4):
        for ratio in RATIOS:
            for raw in (ratio, max(1.0, ratio * rel)):
                vm = _vm(seq, 1 + seq % 2, 2.0, raw)
                seq += 1
                _assert_probe_equal(inc, ref, vm, policy)
                host = inc.select(vm, policy)
                if host is not None:
                    assert inc.deploy(vm, host) == ref.deploy(vm, host)
    assert any(inc.placed_requests())


@pytest.mark.parametrize("policy", POLICIES)
def test_mismatched_mem_ratio_after_a_cached_shape(policy):
    """A VM asking for a memory ratio the cluster does not offer at its
    CPU ratio is refused even when a same-size VM at the offered memory
    ratio was just served from the shape cache."""
    machines = [MachineSpec(f"pm-{i}", 8, 32.0) for i in range(3)]
    inc, ref = _clusters(machines)
    good = _vm(0, 2, 4.0, OversubscriptionLevel(2.0))
    _assert_probe_equal(inc, ref, good, policy)  # builds, then hits the cache
    bad = _vm(1, 2, 4.0, OversubscriptionLevel(2.0, 1.5))
    with pytest.raises(ConfigError):
        inc.select(bad, policy)
    with pytest.raises(ConfigError):
        inc.select(bad, "first_fit")
    with pytest.raises(ConfigError):
        inc.first_feasible(bad)
    with pytest.raises(ConfigError):
        inc.deploy(bad, 0)
    assert not any(inc.placed_requests())
    _assert_probe_equal(inc, ref, good, policy)


@pytest.mark.parametrize("policy", POLICIES)
def test_deploy_and_remove_on_a_killed_host_before_the_next_select(policy):
    """``kill_host`` on a host still holding VMs, then a refused deploy
    and a departure on that same host, with no selection in between."""
    machines = [MachineSpec(f"pm-{i}", 8, 32.0) for i in range(4)]
    inc, ref = _clusters(machines)
    on_zero = []
    for i in range(4):
        vm = _vm(i, 1, 2.0, 2.0)
        _assert_probe_equal(inc, ref, vm, policy)  # warm the shape cache
        for c in (inc, ref):
            c.deploy(vm, 0)
        on_zero.append(vm.vm_id)
    for c in (inc, ref):
        c.deploy(_vm(10, 2, 4.0, 1.0), 1)
        c.kill_host(0)
        with pytest.raises(CapacityError):
            c.deploy(_vm(11, 1, 1.0, 2.0), 0)
        c.remove(on_zero[0])
    for ratio in RATIOS:
        _assert_probe_equal(inc, ref, _vm(10**6, 1, 2.0, ratio), policy)
    for vm_id in on_zero[1:]:
        for c in (inc, ref):
            c.remove(vm_id)
    for c in (inc, ref):
        c.deploy(_vm(12, 1, 1.0, 3.0), 2)
    for ratio in RATIOS:
        _assert_probe_equal(inc, ref, _vm(10**6, 2, 2.0, ratio), policy)
    assert np.array_equal(inc.alloc_cpu, ref.alloc_cpu)
    assert np.array_equal(inc.alloc_mem, ref.alloc_mem)
