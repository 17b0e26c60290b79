"""Metamorphic relation: placement decisions do not depend on the memory unit.

Scaling every VM's and every host's memory by 2 or by ½ is exact in
binary floating point, so a policy that compares memory only with
memory (capacity checks, GB-per-core ratios against a GB-per-core
target, fill fractions) must place, pool and reject exactly as before.
``progress_bestfit`` is outside the relation: its blend adds a
GB-per-core distance to a unitless fill term (``BESTFIT_BLEND``), so
its choices move with the unit.
"""

import dataclasses

import pytest

from repro.api import RunSpec, build_workload
from repro.hardware import MachineSpec
from repro.simulator import POLICIES, VectorSimulation

#: Every policy but the one whose score mixes units.
UNIT_FREE = ("first_fit", "best_fit", "worst_fit", "progress", "progress_no_factor")


def _decisions(workload, hosts, policy, factor):
    scaled = [
        dataclasses.replace(vm, spec=dataclasses.replace(vm.spec, mem_gb=vm.spec.mem_gb * factor))
        for vm in workload
    ]
    machines = [MachineSpec(f"pm-{i}", 32, 128.0 * factor) for i in range(hosts)]
    result = VectorSimulation(machines, policy=policy).run(scaled)
    placed = [(p.vm_id, p.host, p.pooled) for p in result.placements.values()]
    return placed, result.rejections


@pytest.fixture(scope="module")
def workloads():
    return [build_workload(RunSpec(mix="M", seed=seed, target_population=80))
            for seed in (1, 2)]


def test_every_policy_is_classified():
    assert set(POLICIES) - set(UNIT_FREE) == {"progress_bestfit"}


@pytest.mark.parametrize("factor", [2.0, 0.5])
@pytest.mark.parametrize("policy", UNIT_FREE)
def test_scaling_memory_leaves_decisions_unchanged(workloads, policy, factor):
    # 8 hosts pick among many; 1 host exercises admission and rejection.
    for workload, hosts in ((workloads[0], 8), (workloads[1], 8), (workloads[0], 1)):
        assert (_decisions(workload, hosts, policy, factor)
                == _decisions(workload, hosts, policy, 1.0)), (hosts, policy, factor)
