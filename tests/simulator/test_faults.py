"""Failure-injection tests."""

import numpy as np
import pytest

from repro.core import (
    LEVEL_1_1,
    ConfigError,
    SimulationError,
    SlackVMConfig,
    VMRequest,
    VMSpec,
)
from repro.hardware import MachineSpec
from repro.simulator.faults import FaultySimulation, HostFailure


def vm(vm_id, vcpus=2, mem=4.0, arrival=0.0, departure=None):
    return VMRequest(vm_id=vm_id, spec=VMSpec(vcpus, mem), level=LEVEL_1_1,
                     arrival=arrival, departure=departure)


def machines(n=3, cpus=8, mem=32.0):
    return [MachineSpec(f"pm-{i}", cpus, mem) for i in range(n)]


def test_victims_are_recovered_when_headroom_exists():
    sim = FaultySimulation(machines(3), [HostFailure(time=5.0, host=0)],
                           policy="first_fit")
    trace = [vm("a", vcpus=4), vm("b", vcpus=4),  # both land on host 0
             vm("late", arrival=10.0)]
    result = sim.run(trace)
    assert result.feasible
    assert sim.report.failed_hosts == [0]
    assert sim.report.recovered_vms == 2
    assert sim.report.lost_vms == []
    for vm_id in ("a", "b"):
        assert result.placements[vm_id].host != 0


def test_vms_lost_when_no_headroom():
    sim = FaultySimulation(machines(2, cpus=4), [HostFailure(5.0, 0)],
                           policy="first_fit")
    trace = [vm("a", vcpus=4), vm("b", vcpus=4), vm("probe", arrival=10.0, vcpus=1)]
    result = sim.run(trace)
    # Host 1 is full with 'b': 'a' cannot be recovered.
    assert sim.report.lost_vms == ["a"]
    assert sim.report.recovered_vms == 0


def test_dead_host_receives_no_new_vms():
    sim = FaultySimulation(machines(2), [HostFailure(1.0, 0)],
                           policy="first_fit")
    trace = [vm(f"v{i}", arrival=2.0 + i) for i in range(3)]
    result = sim.run(trace)
    assert all(rec.host == 1 for rec in result.placements.values())


def test_arrivals_rejected_when_cluster_shrinks_too_far():
    sim = FaultySimulation(machines(1), [HostFailure(1.0, 0)],
                           policy="first_fit")
    result = sim.run([vm("late", arrival=5.0)])
    assert result.rejections == ["late"]


def test_departure_of_lost_vm_is_harmless():
    sim = FaultySimulation(machines(2, cpus=4), [HostFailure(5.0, 0)],
                           policy="first_fit")
    trace = [vm("a", vcpus=4, departure=20.0), vm("b", vcpus=4, departure=25.0)]
    result = sim.run(trace)
    assert "a" in sim.report.lost_vms
    assert result is not None  # the departure event did not crash


def test_failures_after_last_event_are_applied():
    sim = FaultySimulation(machines(2), [HostFailure(100.0, 1)],
                           policy="first_fit")
    sim.run([vm("a")])
    assert sim.report.failed_hosts == [1]


def test_invalid_failures_rejected():
    with pytest.raises(SimulationError):
        FaultySimulation(machines(2), [HostFailure(1.0, 5)])
    with pytest.raises(SimulationError):
        HostFailure(-1.0, 0)
    with pytest.raises(ConfigError):
        FaultySimulation(machines(2), [], policy="bogus")


def test_capacity_reported_net_of_failures():
    sim = FaultySimulation(machines(4), [HostFailure(0.5, 2)],
                           policy="first_fit")
    result = sim.run([vm("a", arrival=1.0)])
    assert result.capacity_cpu == pytest.approx(3 * 8)


def test_fixed_seed_run_is_pinned():
    """Byte-level fence recorded at the commit before the engines moved
    onto ``run_events``: two mid-trace failures with victims (some
    recovered, some lost), one failure after the last event."""
    import hashlib

    from repro.api import RunSpec, build_config, build_workload
    from repro.simulator import result_stream

    spec = RunSpec(provider="azure", mix="E", target_population=120, seed=11)
    trace = build_workload(spec)
    assert max(v.departure or v.arrival for v in trace) < 10_000_000.0
    sim = FaultySimulation(
        [MachineSpec(f"pm-{i}", 32, 128.0) for i in range(6)],
        [HostFailure(200_000.0, 2), HostFailure(400_000.0, 0),
         HostFailure(10_000_000.0, 4)],
        build_config(spec, trace),
        policy="progress",
    )
    result = sim.run(trace)
    assert hashlib.sha256(result_stream(result).encode()).hexdigest() == (
        "6b865526d87b3289df3abde2de3746b7d5ae77378c11596ed76a0f452229fee7"
    )
    assert sim.report.failed_hosts == [2, 0, 4]
    assert sim.report.recovered_vms == 46
    assert sim.report.lost_vms == [f"vm-{n}" for n in (
        "00014 00199 00215 00237 00242 00263 00048 00410 00262 00374 00321 00363 "
        "00367 00400 00245 00361 00364 00365 00370 00379 00188 00256 00403"
    ).split()]
    assert (len(result.placements), len(result.rejections)) == (394, 26)
    assert result.pooled_placements == 3
    # The trailing failure's dead host is out of the reported capacity.
    assert result.capacity_cpu == pytest.approx(3 * 32)
    assert result.capacity_mem == pytest.approx(3 * 128.0)
