"""Focused tests of MigratingSimulation bookkeeping."""

from repro.core import LEVEL_1_1, SlackVMConfig, VMRequest, VMSpec
from repro.hardware import MachineSpec
from repro.migration import MigratingSimulation


def vm(vm_id, vcpus=4, mem=4.0, arrival=0.0, departure=None):
    return VMRequest(vm_id=vm_id, spec=VMSpec(vcpus, mem), level=LEVEL_1_1,
                     arrival=arrival, departure=departure)


def machines(n, cpus=8, mem=32.0):
    return [MachineSpec(f"pm-{i}", cpus, mem) for i in range(n)]


def test_placement_records_follow_migrations():
    """After a consolidation pass, the result's placement records must
    point at the hosts the VMs actually ended on, and the whole-PM gap
    created by the migration must be usable."""
    sim = MigratingSimulation(machines(2), policy="first_fit",
                              rebalance_interval=10.0)
    trace = [
        vm("a", vcpus=4, departure=5.0),   # host 0, gone before rebalance
        vm("b", vcpus=4),                   # host 0 (now half empty)
        vm("c", vcpus=2, arrival=1.0),      # host 0 full at t=1 -> host 1
        vm("late", vcpus=8, arrival=20.0),  # needs a fully-empty PM
    ]
    result = sim.run(trace)
    # Without migration 'late' (8 vCPUs) fits nowhere (hosts hold 4 and
    # 2); the t=10 consolidation moves 'c' next to 'b' and frees host 1.
    assert result.feasible
    assert sim.total_migrations == 1
    assert result.placements["c"].host == 0  # record updated by the move
    assert result.placements["late"].host == 1


def test_no_migrations_when_already_consolidated():
    sim = MigratingSimulation(machines(2), policy="first_fit",
                              rebalance_interval=5.0)
    trace = [vm("a"), vm("late", arrival=11.0, vcpus=1)]
    sim.run(trace)
    assert sim.total_migrations == 0


def test_multiple_rebalance_intervals_fire():
    sim = MigratingSimulation(machines(3), policy="first_fit",
                              rebalance_interval=5.0)
    trace = [
        vm("a", vcpus=6, departure=30.0),
        vm("b", vcpus=6, arrival=1.0),
        vm("c", vcpus=2, arrival=2.0),
        vm("late", vcpus=1, arrival=21.0),
    ]
    result = sim.run(trace)
    assert result.feasible
    assert sim.last_report is not None


def test_fixed_seed_run_is_pinned():
    """Byte-level fence recorded at the commit before the engines moved
    onto ``run_events``: six daily rebalance ticks over a one-week
    trace on a cluster tight enough to reject and to pool."""
    import hashlib

    from repro.api import RunSpec, build_config, build_workload
    from repro.simulator import result_stream

    spec = RunSpec(provider="azure", mix="E", target_population=120, seed=5)
    trace = build_workload(spec)
    sim = MigratingSimulation(machines(5, cpus=32, mem=128.0),
                              build_config(spec, trace), policy="progress",
                              rebalance_interval=86_400.0)
    result = sim.run(trace)
    assert hashlib.sha256(result_stream(result).encode()).hexdigest() == (
        "b6c1461571a93b7a96c48f27f23af4e238d43ddebf575fbc4d91e1c6de718420"
    )
    assert sim.total_migrations == 137
    assert sim.last_report.num_migrations == 77
    assert (len(result.placements), len(result.rejections)) == (411, 22)
    assert result.pooled_placements == 5
