"""Tests for virtual topology export and LLC-sharing isolation."""

import pytest

from repro.core import LEVEL_1_1, LEVEL_2_1, LEVEL_3_1, SlackVMConfig, TopologyError, VMRequest, VMSpec
from repro.hardware import EPYC_7662_DUAL, MachineSpec, epyc_7662_dual
from repro.localsched import (
    LocalScheduler,
    shared_llc_violations,
    virtual_topology,
)


def vm(vm_id, vcpus=2, mem=4.0, level=LEVEL_2_1):
    return VMRequest(vm_id=vm_id, spec=VMSpec(vcpus, mem), level=level)


@pytest.fixture
def agent():
    return LocalScheduler(EPYC_7662_DUAL, SlackVMConfig(), topology=epyc_7662_dual())


def test_virtual_topology_reports_smt_pairs(agent):
    agent.deploy(vm("a", vcpus=8))
    node = agent.vnode_for(LEVEL_2_1)
    vt = virtual_topology(node, agent.topology)
    assert vt.num_cpus == 4
    assert vt.num_physical_cores == 2
    assert vt.smt_pairs == 2


def test_virtual_topology_of_empty_vnode():
    from repro.localsched import VNode

    vt = virtual_topology(VNode("n", LEVEL_2_1), epyc_7662_dual())
    assert vt.num_cpus == 0
    assert vt.smt_pairs == 0


def test_vnodes_do_not_share_llc(agent):
    for i in range(12):
        level = (LEVEL_1_1, LEVEL_2_1, LEVEL_3_1)[i % 3]
        agent.deploy(vm(f"vm-{i}", vcpus=2, level=level))
    assert shared_llc_violations(agent) == 0


def test_naive_allocation_shares_llc():
    agent = LocalScheduler(
        EPYC_7662_DUAL,
        SlackVMConfig(topology_aware=False),
        topology=epyc_7662_dual(),
    )
    for i in range(12):
        level = (LEVEL_1_1, LEVEL_2_1, LEVEL_3_1)[i % 3]
        agent.deploy(vm(f"vm-{i}", vcpus=2, level=level))
    assert shared_llc_violations(agent) > 0


def test_llc_violation_metric_requires_topology():
    agent = LocalScheduler(MachineSpec("pm", 8, 32.0), SlackVMConfig())
    with pytest.raises(TopologyError):
        shared_llc_violations(agent)
