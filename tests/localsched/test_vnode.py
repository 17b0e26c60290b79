"""Unit tests for vNode accounting."""

import pytest

from repro.core import CapacityError, LEVEL_1_1, LEVEL_2_1, LEVEL_3_1, VMRequest, VMSpec
from repro.localsched import VNode


def vm(vm_id="vm", vcpus=2, mem=4.0, level=LEVEL_2_1):
    return VMRequest(vm_id=vm_id, spec=VMSpec(vcpus, mem), level=level)


class TestSizing:
    def test_cpus_required_rounds_up(self):
        node = VNode("n", LEVEL_3_1)
        node.extend_cpus([0, 1])
        node.add_vm(vm(vcpus=4, level=LEVEL_3_1))
        assert node.cpus_required() == 2  # ceil(4/3)
        assert node.cpus_required(extra_vcpus=3) == 3  # ceil(7/3)

    def test_growth_for_uses_slack_first(self):
        node = VNode("n", LEVEL_2_1)
        node.extend_cpus([0, 1])
        node.add_vm(vm(vcpus=3))
        # Capacity 4 vCPUs, 3 used: a 1-vCPU VM fits with no growth.
        assert node.growth_for(vm(vm_id="b", vcpus=1)) == 0
        assert node.growth_for(vm(vm_id="c", vcpus=3)) == 1

    def test_empty_vnode_needs_zero_cpus(self):
        assert VNode("n", LEVEL_2_1).cpus_required() == 0


class TestAdmission:
    def test_add_updates_accounting(self):
        node = VNode("n", LEVEL_2_1)
        node.extend_cpus([0, 1])
        node.add_vm(vm(vcpus=3, mem=6.0))
        assert node.allocated_vcpus == 3
        assert node.allocated_mem == 6.0
        assert node.vcpu_slack == 1.0

    def test_add_beyond_capacity_rejected(self):
        node = VNode("n", LEVEL_2_1)
        node.extend_cpus([0])
        with pytest.raises(CapacityError):
            node.add_vm(vm(vcpus=3))

    def test_duplicate_vm_rejected(self):
        node = VNode("n", LEVEL_2_1)
        node.extend_cpus([0, 1])
        node.add_vm(vm(vm_id="a"))
        with pytest.raises(CapacityError):
            node.add_vm(vm(vm_id="a"))

    def test_stricter_vnode_hosts_looser_vm(self):
        # §V-B: a 2:1 vNode may host a VM sold at 3:1.
        node = VNode("n", LEVEL_2_1)
        node.extend_cpus([0])
        node.add_vm(vm(vcpus=2, level=LEVEL_3_1))
        assert node.vm_ids == ("vm",)
        assert node.allocated_vcpus == 2

    def test_looser_vnode_rejects_stricter_vm(self):
        node = VNode("n", LEVEL_3_1)
        node.extend_cpus([0])
        with pytest.raises(CapacityError):
            node.add_vm(vm(vcpus=1, level=LEVEL_2_1))

    def test_allocation_vector_counts_owned_cpus(self):
        node = VNode("n", LEVEL_3_1)
        node.extend_cpus([0, 1])
        node.add_vm(vm(vcpus=5, mem=3.0, level=LEVEL_3_1))
        alloc = node.allocation()
        assert alloc.cpu == 2.0
        assert alloc.mem == 3.0


class TestRemoval:
    def test_remove_restores_accounting(self):
        node = VNode("n", LEVEL_2_1)
        node.extend_cpus([0, 1])
        node.add_vm(vm(vm_id="a", vcpus=2, mem=4.0))
        node.add_vm(vm(vm_id="b", vcpus=2, mem=2.0))
        node.remove_vm("a")
        assert node.allocated_vcpus == 2
        assert node.allocated_mem == 2.0
        assert node.vm_ids == ("b",)

    def test_remove_unknown_vm_rejected(self):
        node = VNode("n", LEVEL_2_1)
        with pytest.raises(CapacityError):
            node.remove_vm("ghost")

    def test_empty_vnode_resets_memory_drift(self):
        node = VNode("n", LEVEL_2_1)
        node.extend_cpus([0])
        node.add_vm(vm(vcpus=1, mem=0.1 + 0.2))
        node.remove_vm("vm")
        assert node.allocated_mem == 0.0
        assert node.is_empty


class TestCpuSet:
    def test_extend_rejects_duplicates(self):
        node = VNode("n", LEVEL_2_1)
        node.extend_cpus([0, 1])
        with pytest.raises(CapacityError):
            node.extend_cpus([1, 2])

    def test_release_is_lifo(self):
        node = VNode("n", LEVEL_2_1)
        node.extend_cpus([5, 3, 8])
        assert node.release_cpus(2) == [3, 8]
        assert node.cpu_ids == (5,)

    def test_release_protecting_guarantee(self):
        node = VNode("n", LEVEL_2_1)
        node.extend_cpus([0, 1])
        node.add_vm(vm(vcpus=3))
        with pytest.raises(CapacityError):
            node.release_cpus(1)  # would leave 1 CPU for 3 vCPUs at 2:1
        assert node.cpu_ids == (0, 1)  # restored after failure

    def test_release_more_than_owned_rejected(self):
        node = VNode("n", LEVEL_2_1)
        node.extend_cpus([0])
        with pytest.raises(CapacityError):
            node.release_cpus(2)

    def test_release_zero_is_noop(self):
        node = VNode("n", LEVEL_2_1)
        node.extend_cpus([0])
        assert node.release_cpus(0) == []
