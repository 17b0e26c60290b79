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

