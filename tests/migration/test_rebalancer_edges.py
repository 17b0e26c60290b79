"""Edge cases for live-migration consolidation
(:mod:`repro.migration.rebalancer`).

Covers the no-op corners — an empty cluster, a single occupied host,
``max_migrations=0`` — and the contract that a
:class:`MigratingSimulation` whose interval never fires (so its
migration list stays empty) is indistinguishable from the plain
:class:`VectorSimulation`.
"""

import math

import numpy as np
import pytest

from repro.core import ConfigError, OversubscriptionLevel, SlackVMConfig, VMRequest, VMSpec
from repro.hardware import MachineSpec
from repro.migration.rebalancer import MigratingSimulation, Rebalancer
from repro.simulator import VectorSimulation
from repro.simulator.vectorpool import VectorCluster


def _machines(n=4, cpus=16, mem=64.0):
    return [MachineSpec(f"pm-{i}", cpus, mem) for i in range(n)]


def _vm(i, arrival=0.0, departure=None, vcpus=2, mem=4.0, ratio=2.0):
    return VMRequest(
        vm_id=f"vm-{i:03d}",
        spec=VMSpec(vcpus, mem),
        level=OversubscriptionLevel(ratio),
        arrival=arrival,
        departure=departure,
    )


def test_consolidate_empty_cluster_is_a_noop():
    cluster = VectorCluster(_machines(), SlackVMConfig())
    report = Rebalancer().consolidate(cluster)
    assert report.num_migrations == 0
    assert report.hosts_emptied == 0
    assert float(cluster.alloc_cpu.sum()) == 0.0


def test_consolidate_single_occupied_host_is_a_noop():
    cluster = VectorCluster(_machines(), SlackVMConfig())
    cluster.deploy(_vm(0), 1)
    before = cluster.alloc_cpu.copy()
    report = Rebalancer().consolidate(cluster)
    assert report.num_migrations == 0
    assert np.array_equal(cluster.alloc_cpu, before)


def test_consolidate_respects_max_migrations_zero():
    cluster = VectorCluster(_machines(), SlackVMConfig())
    for i, host in enumerate((0, 1, 2, 3)):
        cluster.deploy(_vm(i), host)
    report = Rebalancer(max_migrations=0).consolidate(cluster)
    assert report.num_migrations == 0
    assert report.hosts_emptied == 0


def test_consolidate_preserves_total_allocation_and_empties_sources():
    # Spread light VMs across every host: consolidation must empty at
    # least one and move nothing off a cliff.
    cluster = VectorCluster(_machines(), SlackVMConfig())
    for i, host in enumerate((0, 1, 2, 3, 0, 1)):
        cluster.deploy(_vm(i, vcpus=1, mem=2.0), host)
    cpu_before = float(cluster.alloc_cpu.sum())
    mem_before = float(cluster.alloc_mem.sum())
    report = Rebalancer().consolidate(cluster)
    assert report.hosts_emptied > 0
    for migration in report.migrations:
        assert migration.source != migration.target
    # Memory is conserved exactly; CPU may shrink when a vacated vNode
    # releases slack capacity, but never grows.
    assert float(cluster.alloc_mem.sum()) == pytest.approx(mem_before)
    assert float(cluster.alloc_cpu.sum()) <= cpu_before + 1e-9
    # Each distinct source was emptied once (it may be *refilled* later
    # as the target of a subsequent evacuation — that's consolidation).
    assert report.hosts_emptied == len({m.source for m in report.migrations})
    assert len(cluster.placed_vm_ids) == 6  # nothing lost or duplicated


@pytest.mark.parametrize("policy", ["progress", "first_fit"])
def test_interval_beyond_horizon_matches_plain_vector_simulation(policy):
    workload = [
        _vm(i, arrival=float(i), departure=float(i) + 25.0) for i in range(20)
    ]
    plain = VectorSimulation(_machines(), policy=policy).run(workload)
    migrating = MigratingSimulation(
        _machines(), policy=policy, rebalance_interval=10_000.0
    )
    result = migrating.run(workload)
    assert migrating.total_migrations == 0
    assert {k: (p.host, p.hosted_ratio, p.pooled) for k, p in result.placements.items()} \
        == {k: (p.host, p.hosted_ratio, p.pooled) for k, p in plain.placements.items()}
    assert result.rejections == plain.rejections
    assert result.timeline.times == plain.timeline.times
    assert result.timeline.alloc_cpu == plain.timeline.alloc_cpu
    assert result.timeline.alloc_mem == plain.timeline.alloc_mem


@pytest.mark.parametrize("interval", [0.0, -5.0, math.nan, math.inf])
def test_rebalance_interval_must_be_finite_and_positive(interval):
    # 0 and negative intervals used to spin forever in the pass loop.
    with pytest.raises(ConfigError):
        MigratingSimulation(_machines(), rebalance_interval=interval)


def test_migrating_simulation_updates_placement_records():
    # Force a consolidation pass mid-run and check every migration is
    # reflected in the final placement map.
    workload = [
        _vm(i, arrival=float(i), departure=200.0 + i, vcpus=1, mem=2.0)
        for i in range(8)
    ]
    sim = MigratingSimulation(_machines(), rebalance_interval=10.0)
    result = sim.run(workload)
    if sim.total_migrations:
        final = {m.vm_id: m.target for r in [sim.last_report] for m in r.migrations}
        for vm_id, target in final.items():
            if vm_id in result.placements:
                # The record reflects the post-migration host unless a
                # later pass moved it again (single pass here).
                assert result.placements[vm_id].host == target
    _, cpu, mem = result.timeline.as_arrays()
    assert np.all(cpu >= -1e-9) and np.all(mem >= -1e-9)
