"""Tests of cluster metrics."""

import pytest

from repro.core import LEVEL_1_1, VMRequest, VMSpec
from repro.hardware import MachineSpec
from repro.scheduling import first_fit_scheduler
from repro.simulator import (
    Simulation,
    build_hosts,
    combine_unallocated,
    pm_savings_percent,
    unallocated_at_peak,
)

MACHINE = MachineSpec("pm", 8, 32.0)


def vm(vm_id, vcpus=2, mem=4.0, arrival=0.0, departure=None):
    return VMRequest(
        vm_id=vm_id, spec=VMSpec(vcpus, mem), level=LEVEL_1_1,
        arrival=arrival, departure=departure,
    )


def run(trace, hosts=1):
    return Simulation(build_hosts(MACHINE, hosts), first_fit_scheduler()).run(trace)


def test_unallocated_at_peak():
    result = run([vm("a", vcpus=4, mem=8.0, departure=5.0), vm("b", vcpus=2, mem=2.0, arrival=6.0)])
    shares = unallocated_at_peak(result)
    assert shares.cpu == pytest.approx(0.5)
    assert shares.mem == pytest.approx(0.75)


def test_combine_unallocated_weights_by_capacity():
    r_small = run([vm("a", vcpus=8, mem=8.0)], hosts=1)  # 0% cpu unalloc
    r_big = run([vm("b", vcpus=8, mem=8.0)], hosts=3)  # 2/3 cpu unalloc
    combined = combine_unallocated([r_small, r_big])
    # 8+8 cpus allocated over 32 total => 0.5 unallocated.
    assert combined.cpu == pytest.approx(0.5)


def test_combine_requires_results():
    with pytest.raises(ValueError):
        combine_unallocated([])


def test_pm_savings_percent():
    assert pm_savings_percent(83, 75) == pytest.approx(9.64, abs=0.01)
    assert pm_savings_percent(10, 10) == 0.0
    assert pm_savings_percent(10, 11) == pytest.approx(-10.0)
    with pytest.raises(ValueError):
        pm_savings_percent(0, 1)


def test_shares_iterate_as_pairs():
    result = run([vm("a")])
    cpu, mem = unallocated_at_peak(result)
    assert 0 <= cpu <= 1 and 0 <= mem <= 1
