"""Tests of the contention-group tick model."""

import numpy as np
import pytest

from repro.core import ConfigError, LEVEL_2_1, VMRequest, VMSpec
from repro.perfmodel import ContentionGroup, CpuSetCapacity, GroupMember


def member(vm_id, vcpus=2, kind="stress", param=0.5):
    vm = VMRequest(
        vm_id=vm_id, spec=VMSpec(vcpus, 4.0), level=LEVEL_2_1,
        usage_kind=kind, usage_param=param,
    )
    return GroupMember.from_request(vm)


def test_no_contention_grants_full_demand():
    cap = CpuSetCapacity(threads=8, physical=8)
    group = ContentionGroup(cap, [member("a", param=0.4), member("b", param=0.2)])
    tick = group.step(0.0)
    assert tick.allocations == pytest.approx(tick.demands)
    assert np.all(tick.slowdowns == 1.0)


def test_saturation_shares_fairly_by_vcpus():
    cap = CpuSetCapacity(threads=2, physical=2)
    group = ContentionGroup(
        cap,
        [member("a", vcpus=2, param=1.0), member("b", vcpus=6, param=1.0)],
    )
    tick = group.step(0.0)
    assert tick.total_allocation == pytest.approx(2.0)
    # Weighted by vCPU count: 1/4 and 3/4 of the pool.
    assert tick.allocations == pytest.approx([0.5, 1.5])


def test_idle_members_have_unit_slowdown():
    cap = CpuSetCapacity(threads=2, physical=2)
    group = ContentionGroup(cap, [member("a", kind="idle", param=0.0)])
    tick = group.step(0.0)
    assert tick.slowdowns[0] == 1.0


def test_smt_pressure_reported():
    cap = CpuSetCapacity(threads=8, physical=4)
    group = ContentionGroup(cap, [member("a", vcpus=8, param=0.8)])
    tick = group.step(0.0)
    assert tick.smt_pressure > 0


def test_utilization_capped_at_one():
    cap = CpuSetCapacity(threads=2, physical=1)
    group = ContentionGroup(cap, [member("a", vcpus=8, param=1.0)])
    assert group.step(0.0).utilization == 1.0


def test_demand_noise_preserves_mean():
    cap = CpuSetCapacity(threads=64, physical=64)
    rng = np.random.default_rng(0)
    group = ContentionGroup(
        cap, [member("a", vcpus=4, param=0.5)], rng=rng, noise_sigma=0.3
    )
    demands = [group.step(float(t)).demands.sum() for t in range(3000)]
    assert np.mean(demands) == pytest.approx(2.0, rel=0.1)
    assert np.std(demands) > 0.05


def test_noise_never_exceeds_vcpus():
    cap = CpuSetCapacity(threads=64, physical=64)
    rng = np.random.default_rng(1)
    group = ContentionGroup(
        cap, [member("a", vcpus=2, param=0.9)], rng=rng, noise_sigma=1.0
    )
    for t in range(500):
        assert group.step(float(t)).demands.sum() <= 2.0 + 1e-9


def test_noise_requires_rng():
    cap = CpuSetCapacity(threads=2, physical=2)
    with pytest.raises(ConfigError):
        ContentionGroup(cap, [member("a")], noise_sigma=0.2)


def test_empty_group_rejected():
    with pytest.raises(ConfigError):
        ContentionGroup(CpuSetCapacity(threads=2, physical=2), [])

