"""Tests for the SlackVM local scheduler agent."""

import pytest

from repro.core import (
    CapacityError,
    LEVEL_1_1,
    LEVEL_2_1,
    LEVEL_3_1,
    SlackVMConfig,
    VMRequest,
    VMSpec,
)
from repro.hardware import MachineSpec, epyc_7662_dual, EPYC_7662_DUAL
from repro.localsched import LocalScheduler


def vm(vm_id="vm", vcpus=2, mem=4.0, level=LEVEL_2_1):
    return VMRequest(vm_id=vm_id, spec=VMSpec(vcpus, mem), level=level)


@pytest.fixture
def machine():
    return MachineSpec(name="pm", cpus=8, mem_gb=32.0)


@pytest.fixture
def agent(machine):
    return LocalScheduler(machine, SlackVMConfig())


class TestDeploy:
    def test_deploy_creates_vnode(self, agent):
        placement = agent.deploy(vm())
        assert placement.hosted_level == LEVEL_2_1
        assert not placement.pooled
        node = agent.vnode_for(LEVEL_2_1)
        assert node is not None and node.num_cpus == 1

    def test_vnode_growth_uses_ceil(self, agent):
        agent.deploy(vm(vm_id="a", vcpus=3, level=LEVEL_2_1))
        assert agent.vnode_for(LEVEL_2_1).num_cpus == 2  # ceil(3/2)
        agent.deploy(vm(vm_id="b", vcpus=1, level=LEVEL_2_1))
        assert agent.vnode_for(LEVEL_2_1).num_cpus == 2  # slack reused

    def test_levels_get_separate_vnodes(self, agent):
        agent.deploy(vm(vm_id="a", level=LEVEL_1_1))
        agent.deploy(vm(vm_id="b", level=LEVEL_2_1))
        agent.deploy(vm(vm_id="c", level=LEVEL_3_1))
        assert len(agent.vnodes) == 3
        assert agent.num_vms == 3

    def test_allocation_counts_physical_reservation(self, agent):
        agent.deploy(vm(vcpus=6, mem=4.0, level=LEVEL_3_1))
        alloc = agent.allocation()
        assert alloc.cpu == 2.0  # ceil(6/3)
        assert alloc.mem == 4.0

    def test_memory_is_never_oversubscribed(self, agent):
        agent.deploy(vm(vm_id="a", vcpus=1, mem=30.0, level=LEVEL_3_1))
        assert not agent.can_deploy(vm(vm_id="b", vcpus=1, mem=4.0, level=LEVEL_3_1))

    def test_cpu_exhaustion_blocks_deploy(self, agent):
        agent.deploy(vm(vm_id="a", vcpus=8, mem=8.0, level=LEVEL_1_1))
        assert agent.allocated_cpus == agent.machine.cpus
        assert not agent.can_deploy(vm(vm_id="b", vcpus=1, mem=1.0, level=LEVEL_1_1))

    def test_deploy_failure_raises(self, agent):
        agent.deploy(vm(vm_id="a", vcpus=8, mem=8.0, level=LEVEL_1_1))
        with pytest.raises(CapacityError):
            agent.deploy(vm(vm_id="b", vcpus=4, mem=1.0, level=LEVEL_1_1))

    def test_unsupported_level_is_not_deployable(self, machine):
        agent = LocalScheduler(machine, SlackVMConfig(levels=(LEVEL_1_1,)))
        assert not agent.supports(LEVEL_2_1)
        assert agent.plan(vm(level=LEVEL_2_1)) is None


class TestPooling:
    def test_pooled_upgrade_into_stricter_vnode(self, machine):
        agent = LocalScheduler(machine, SlackVMConfig(pooling=True))
        # Fill CPUs: 1:1 vNode takes 6 CPUs, 2:1 vNode takes 2 CPUs with
        # 1 vCPU of slack (3 vCPUs over 2 CPUs at 2:1 => slack 1).
        agent.deploy(vm(vm_id="prem", vcpus=6, mem=4.0, level=LEVEL_1_1))
        agent.deploy(vm(vm_id="mid", vcpus=3, mem=4.0, level=LEVEL_2_1))
        assert agent.allocated_cpus == agent.machine.cpus
        low = vm(vm_id="low", vcpus=1, mem=2.0, level=LEVEL_3_1)
        placement = agent.deploy(low)
        assert placement.pooled
        assert placement.hosted_level == LEVEL_2_1
        # Hosted in the stricter vNode, still sold at its own level.
        assert "low" in agent.vnode_for(LEVEL_2_1).vm_ids
        assert low.level == LEVEL_3_1

    def test_pooling_disabled_rejects(self, machine):
        agent = LocalScheduler(machine, SlackVMConfig(pooling=False))
        agent.deploy(vm(vm_id="prem", vcpus=6, mem=4.0, level=LEVEL_1_1))
        agent.deploy(vm(vm_id="mid", vcpus=3, mem=4.0, level=LEVEL_2_1))
        assert not agent.can_deploy(vm(vm_id="low", vcpus=1, mem=2.0, level=LEVEL_3_1))

    def test_premium_vnodes_are_never_pooled(self, machine):
        agent = LocalScheduler(machine, SlackVMConfig(pooling=True))
        # 1:1 vNode with slack... premium has no slack by construction
        # (1 vCPU per CPU), but a 2:1 VM must not land in 1:1 either.
        agent.deploy(vm(vm_id="prem", vcpus=7, mem=4.0, level=LEVEL_1_1))
        # 1 CPU free: a 2-vCPU 2:1 VM fits there via its own vNode.
        ok = agent.plan(vm(vm_id="mid", vcpus=2, mem=2.0, level=LEVEL_2_1))
        assert ok is not None and not ok.pooled

    def test_pooled_vm_departs_cleanly(self, machine):
        agent = LocalScheduler(machine, SlackVMConfig(pooling=True))
        agent.deploy(vm(vm_id="prem", vcpus=6, mem=4.0, level=LEVEL_1_1))
        agent.deploy(vm(vm_id="mid", vcpus=3, mem=4.0, level=LEVEL_2_1))
        agent.deploy(vm(vm_id="low", vcpus=1, mem=2.0, level=LEVEL_3_1))
        agent.remove("low")
        node = agent.vnode_for(LEVEL_2_1)
        assert node.allocated_vcpus == 3
        assert agent.num_vms == 2

    def test_own_level_preferred_over_pooling(self, machine):
        agent = LocalScheduler(machine, SlackVMConfig(pooling=True))
        agent.deploy(vm(vm_id="mid", vcpus=3, mem=4.0, level=LEVEL_2_1))
        # Plenty of free CPUs: the 3:1 VM opens its own vNode.
        placement = agent.deploy(vm(vm_id="low", vcpus=1, mem=2.0, level=LEVEL_3_1))
        assert not placement.pooled
        assert placement.hosted_level == LEVEL_3_1


class TestRemove:
    def test_remove_shrinks_vnode(self, agent):
        agent.deploy(vm(vm_id="a", vcpus=4, level=LEVEL_2_1))
        agent.deploy(vm(vm_id="b", vcpus=4, level=LEVEL_2_1))
        assert agent.allocated_cpus == 4
        agent.remove("a")
        assert agent.allocated_cpus == 2

    def test_remove_last_vm_destroys_vnode(self, agent):
        agent.deploy(vm(vm_id="a"))
        agent.remove("a")
        assert agent.vnode_for(LEVEL_2_1) is None
        assert agent.num_vms == 0
        assert agent.allocated_cpus == 0
        assert agent.allocated_mem == 0.0

    def test_remove_unknown_rejected(self, agent):
        with pytest.raises(CapacityError):
            agent.remove("ghost")

    def test_freed_cpus_are_reusable(self, agent):
        agent.deploy(vm(vm_id="a", vcpus=8, mem=8.0, level=LEVEL_1_1))
        agent.remove("a")
        agent.deploy(vm(vm_id="b", vcpus=8, mem=8.0, level=LEVEL_1_1))
        assert agent.allocated_cpus == 8


class TestPinningEvents:
    def test_pin_generation_only_changes_with_cpu_set(self, agent):
        g0 = agent.pin_generation
        agent.deploy(vm(vm_id="a", vcpus=3, level=LEVEL_2_1))  # grows to 2 CPUs
        g1 = agent.pin_generation
        assert g1 > g0
        agent.deploy(vm(vm_id="b", vcpus=1, level=LEVEL_2_1))  # slack reused
        assert agent.pin_generation == g1
        agent.remove("b")  # no shrink needed
        assert agent.pin_generation == g1
        agent.remove("a")  # vNode destroyed
        assert agent.pin_generation > g1

    # Every VM is pinned to its vNode's whole CPU set (§V), so a VM's
    # pinning is read off the vNode that hosts it.
    @staticmethod
    def pinning(agent, vm_id):
        (node,) = [n for n in agent.vnodes if vm_id in n.vm_ids]
        return node.cpu_ids

    def test_growth_repins_every_resident(self, agent):
        agent.deploy(vm(vm_id="a", vcpus=4))  # 2 CPUs
        before, g0 = self.pinning(agent, "a"), agent.pin_generation
        agent.deploy(vm(vm_id="b", vcpus=4))  # grows to 4 CPUs
        node = agent.vnode_for(LEVEL_2_1)
        assert node.num_cpus == 4 and node.cpu_ids[:2] == before
        assert agent.pin_generation == g0 + 1
        assert self.pinning(agent, "a") == self.pinning(agent, "b") == node.cpu_ids

    def test_slack_reuse_changes_no_pinning(self, agent):
        agent.deploy(vm(vm_id="a", vcpus=3))  # 2 CPUs, 1 vCPU of slack
        before, g0 = self.pinning(agent, "a"), agent.pin_generation
        agent.deploy(vm(vm_id="b", vcpus=1))  # fits in the slack
        assert agent.pin_generation == g0
        assert self.pinning(agent, "a") == self.pinning(agent, "b") == before

    def test_departure_shrinks_the_vnode_under_survivors(self, agent):
        agent.deploy(vm(vm_id="a", vcpus=4))
        agent.deploy(vm(vm_id="b", vcpus=4))
        before, g0 = self.pinning(agent, "b"), agent.pin_generation
        agent.remove("a")  # 4 -> 2 CPUs, most recently added first
        assert self.pinning(agent, "b") == before[:2]
        assert agent.pin_generation == g0 + 1

    def test_levels_do_not_cross_repin(self, agent):
        agent.deploy(vm(vm_id="prem", vcpus=2, level=LEVEL_1_1))
        before = self.pinning(agent, "prem")
        agent.deploy(vm(vm_id="a", vcpus=4, level=LEVEL_2_1))
        agent.deploy(vm(vm_id="b", vcpus=4, level=LEVEL_2_1))
        # Growing the 2:1 vNode never touches the premium VM's pinning.
        assert self.pinning(agent, "prem") == before
        assert not set(before) & set(self.pinning(agent, "a"))


class TestTopologyMode:
    def test_topology_mode_assigns_real_cpus(self):
        agent = LocalScheduler(
            EPYC_7662_DUAL, SlackVMConfig(), topology=epyc_7662_dual()
        )
        agent.deploy(vm(vcpus=4, level=LEVEL_2_1))
        (node,) = agent.vnodes
        assert len(node.cpu_ids) == 2
        assert set(node.cpu_ids) <= set(range(256))

    def test_topology_cpu_count_mismatch_rejected(self, machine):
        from repro.core import ConfigError

        with pytest.raises(ConfigError):
            LocalScheduler(machine, SlackVMConfig(), topology=epyc_7662_dual())
