"""Metamorphic relations of the placement decisions.

*Memory unit.*  Scaling every VM's and every host's memory by 2 or by ½
is exact in binary floating point, so a policy that compares memory
only with memory (capacity checks, GB-per-core ratios against a
GB-per-core target, fill fractions) must place, pool and reject exactly
as before.  ``progress_bestfit`` is outside the relation: its blend adds
a GB-per-core distance to a unitless fill term (``BESTFIT_BLEND``), so
its choices move with the unit.

*Host prefix.*  A host that a run never places on never wins a
selection, and every admission test and score reads its own host only
(the tiebreak reads the host's index), so re-running on the first ``U``
hosts, ``U`` one past the highest host used, places and rejects exactly
as the run on the whole fleet: no selection may depend on the hosts it
does not pick or on the fleet's size.
"""

import dataclasses

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.api import RunSpec, build_workload
from repro.core import OversubscriptionLevel, SlackVMConfig, VMRequest, VMSpec
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


@st.composite
def fleet_and_trace(draw):
    machines = [
        MachineSpec(
            f"pm-{i}",
            draw(st.sampled_from([4, 8, 16])),
            float(draw(st.sampled_from([16, 32, 64]))),
        )
        for i in range(draw(st.integers(min_value=2, max_value=10)))
    ]
    workload, now = [], 0.0
    for i in range(draw(st.integers(min_value=1, max_value=40))):
        now += draw(st.sampled_from([0.0, 1.0, 5.0]))
        life = draw(st.none() | st.sampled_from([2.0, 10.0, 50.0]))
        workload.append(
            VMRequest(
                vm_id=f"vm-{i:03d}",
                spec=VMSpec(
                    draw(st.sampled_from([1, 2, 4, 8])),
                    float(draw(st.sampled_from([1, 2, 4, 8, 16]))),
                ),
                level=OversubscriptionLevel(draw(st.sampled_from([1.0, 2.0, 3.0]))),
                arrival=now,
                departure=None if life is None else now + life,
            )
        )
    return machines, workload


@settings(max_examples=40, deadline=None)
@given(case=fleet_and_trace(), policy=st.sampled_from(POLICIES), pooling=st.booleans())
def test_rerun_on_the_used_host_prefix_decides_the_same(case, policy, pooling):
    machines, workload = case
    config = SlackVMConfig(pooling=pooling)
    full = VectorSimulation(machines, config, policy=policy).run(workload)
    used = 1 + max((p.host for p in full.placements.values()), default=0)
    prefix = VectorSimulation(machines[:used], config, policy=policy).run(workload)
    assert prefix.placements == full.placements
    assert prefix.rejections == full.rejections
