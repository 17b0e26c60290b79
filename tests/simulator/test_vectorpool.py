"""Unit tests of the vectorized cluster state."""

import numpy as np
import pytest

from repro.core import (
    CapacityError,
    ConfigError,
    LEVEL_1_1,
    LEVEL_2_1,
    LEVEL_3_1,
    SlackVMConfig,
    VMRequest,
    VMSpec,
)
from repro.hardware import MachineSpec
from repro.obs.records import NULL_RECORDER, MemoryRecorder
from repro.simulator import (
    KERNELS,
    POLICIES,
    VectorCluster,
    VectorSimulation,
    result_stream,
)


def vm(vm_id, vcpus=2, mem=4.0, level=LEVEL_2_1, arrival=0.0, departure=None):
    return VMRequest(
        vm_id=vm_id, spec=VMSpec(vcpus, mem), level=level,
        arrival=arrival, departure=departure,
    )


def machines(n=2, cpus=8, mem=32.0):
    return [MachineSpec(f"pm-{i}", cpus, mem) for i in range(n)]


@pytest.fixture
def cluster():
    return VectorCluster(machines(), SlackVMConfig())


class TestDeployRemove:
    def test_deploy_updates_arrays(self, cluster):
        cluster.deploy(vm("a", vcpus=3, mem=6.0), host=0)
        assert cluster.alloc_cpu[0] == 2.0  # ceil(3/2)
        assert cluster.alloc_mem[0] == 6.0
        assert cluster.alloc_cpu[1] == 0.0

    def test_remove_restores_state_exactly(self, cluster):
        before = (
            cluster.alloc_cpu.copy(),
            cluster.alloc_mem.copy(),
            cluster.vnode_cpus.copy(),
            cluster.vnode_vcpus.copy(),
        )
        cluster.deploy(vm("a", vcpus=5, mem=10.0, level=LEVEL_3_1), host=1)
        cluster.remove("a")
        after = (
            cluster.alloc_cpu,
            cluster.alloc_mem,
            cluster.vnode_cpus,
            cluster.vnode_vcpus,
        )
        for b, a in zip(before, after):
            assert np.array_equal(b, a)

    def test_duplicate_deploy_rejected(self, cluster):
        cluster.deploy(vm("a"), host=0)
        with pytest.raises(CapacityError):
            cluster.deploy(vm("a"), host=1)

    def test_remove_unknown_rejected(self, cluster):
        with pytest.raises(CapacityError):
            cluster.remove("ghost")

    def test_overfull_host_rejected(self, cluster):
        with pytest.raises(CapacityError):
            cluster.deploy(vm("big", vcpus=1, mem=64.0), host=0)

    def test_unconfigured_level_rejected(self, cluster):
        from repro.core import OversubscriptionLevel

        with pytest.raises(ConfigError):
            cluster.deploy(vm("x", level=OversubscriptionLevel(5.0)), host=0)


class TestFeasibility:
    def test_feasibility_vector_matches_deploy(self, cluster):
        cluster.deploy(vm("fill", vcpus=16, mem=4.0, level=LEVEL_2_1), host=0)
        probe = vm("probe", vcpus=16, mem=4.0, level=LEVEL_2_1)
        feasible, growth, own = cluster.feasibility(probe)
        assert list(feasible) == [False, True]
        assert growth[1] == 8.0

    def test_pooling_feasibility(self):
        cluster = VectorCluster(machines(1), SlackVMConfig(pooling=True))
        cluster.deploy(vm("prem", vcpus=6, mem=4.0, level=LEVEL_1_1), host=0)
        cluster.deploy(vm("mid", vcpus=3, mem=4.0, level=LEVEL_2_1), host=0)
        probe = vm("low", vcpus=1, mem=2.0, level=LEVEL_3_1)
        feasible, _, own = cluster.feasibility(probe)
        assert feasible[0] and not own[0]
        record = cluster.deploy(probe, host=0)
        assert record.pooled and record.hosted_ratio == 2.0

    def test_pooling_disabled(self):
        cluster = VectorCluster(machines(1), SlackVMConfig(pooling=False))
        cluster.deploy(vm("prem", vcpus=6, mem=4.0, level=LEVEL_1_1), host=0)
        cluster.deploy(vm("mid", vcpus=3, mem=4.0, level=LEVEL_2_1), host=0)
        feasible, _, _ = cluster.feasibility(vm("low", vcpus=1, mem=2.0, level=LEVEL_3_1))
        assert not feasible.any()


class TestScores:
    def test_first_fit_scores_are_negative_ranks(self, cluster):
        s = cluster.scores(vm("x"), "first_fit")
        assert list(s) == [0.0, -1.0]

    def test_unknown_policy_rejected(self, cluster):
        with pytest.raises(ConfigError):
            cluster.scores(vm("x"), "random")

    def test_progress_prefers_counterbalancing_host(self):
        cluster = VectorCluster(machines(2, cpus=32, mem=128.0), SlackVMConfig())
        cluster.deploy(vm("c", vcpus=16, mem=16.0, level=LEVEL_1_1), host=0)
        cluster.deploy(vm("m", vcpus=4, mem=64.0, level=LEVEL_1_1), host=1)
        s = cluster.scores(vm("x", vcpus=2, mem=32.0, level=LEVEL_1_1), "progress")
        assert s[0] > s[1]


class TestIntrospection:
    def test_placed_requests_and_vms_on(self, cluster):
        request = vm("a")
        cluster.deploy(request, host=1)
        assert list(cluster.placed_requests()) == [(request, 1)]
        assert cluster.vms_on(1) == ["a"]
        assert cluster.vms_on(0) == []

    def test_request_of_returns_original(self, cluster):
        request = vm("a", vcpus=3, mem=5.0)
        cluster.deploy(request, host=0)
        assert cluster.request_of("a") is request


class TestVectorSimulation:
    def test_policies_constant_is_exhaustive(self):
        sim_ok = [VectorSimulation(machines(), policy=p) for p in POLICIES]
        assert len(sim_ok) == len(POLICIES)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError):
            VectorSimulation(machines(), policy="nope")

    def test_run_places_and_frees(self):
        sim = VectorSimulation(machines(1), policy="first_fit")
        trace = [
            vm("a", vcpus=8, mem=8.0, departure=10.0),
            vm("b", vcpus=8, mem=8.0, arrival=10.0),
        ]
        result = sim.run(trace)
        assert result.feasible
        assert result.placements["a"].host == 0
        assert result.placements["b"].host == 0


def _churn_trace():
    """48 VMs over 2 small hosts: every level, same-timestamp arrival
    and departure bursts, rejections and departures of rejected VMs."""
    levels = (LEVEL_1_1, LEVEL_2_1, LEVEL_3_1)
    return [
        vm(
            f"vm-{i:02d}", vcpus=1 + i % 4, mem=float(1 + i % 5),
            level=levels[i % 3], arrival=float(i // 4),
            departure=None if i % 5 == 0 else float(i // 4 + 1 + i % 3),
        )
        for i in range(48)
    ]


#: One 8-CPU host filled by "a" and "b"; at t=5 "a" departs, "c" (too
#: big even then) is rejected, and "d"/"e" must never be simulated.
_HALTING_TRACE = [
    vm("a", vcpus=4, level=LEVEL_1_1, arrival=0.0, departure=5.0),
    vm("b", vcpus=4, level=LEVEL_1_1, arrival=0.0),
    vm("c", vcpus=8, level=LEVEL_1_1, arrival=5.0),
    vm("d", vcpus=1, level=LEVEL_1_1, arrival=5.0),
    vm("e", vcpus=1, level=LEVEL_1_1, arrival=6.0),
]


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("policy", POLICIES)
def test_recorded_and_unrecorded_runs_agree(policy, kernel):
    def run(trace, hosts, fail_fast, recorder=NULL_RECORDER):
        return VectorSimulation(
            hosts, policy=policy, kernel=kernel, fail_fast=fail_fast,
            recorder=recorder,
        ).run(trace)

    trace = _churn_trace()
    recorder = MemoryRecorder()
    plain = run(trace, machines(2), False)
    recorded = run(trace, machines(2), False, recorder)
    assert result_stream(recorded) == result_stream(plain)
    assert plain.rejections
    assert len(plain.placements) + len(plain.rejections) == len(trace)
    assert len(recorder.decisions) == len(trace)

    recorder = MemoryRecorder()
    plain = run(_HALTING_TRACE, machines(1), True)
    recorded = run(_HALTING_TRACE, machines(1), True, recorder)
    assert result_stream(recorded) == result_stream(plain)
    assert plain.rejections == ["c"] and sorted(plain.placements) == ["a", "b"]
    # Arrivals of a and b, departure of a; the rejected arrival gets no
    # sample and nothing after it runs.
    assert plain.timeline.times == [0.0, 0.0, 5.0]
    assert [d.vm_id for d in recorder.decisions] == ["a", "b", "c"]
