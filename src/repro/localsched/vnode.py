"""vNode: a dynamically-sized partition of one PM's resources.

Each vNode owns an exclusive set of logical CPUs and hosts the VMs of a
single oversubscription level (paper §IV/§V).  A vNode at level ``n:1``
with ``k`` CPUs may expose up to ``n * k`` vCPUs; memory is reserved at
``mem_gb / mem_ratio`` (face value in the paper's evaluation, where
memory is never oversubscribed).  The vNode grows and shrinks as VMs
arrive and depart — sizing is always the minimal CPU count that honours
the level's contention guarantee: ``ceil(allocated_vcpus / n)``.
"""

from __future__ import annotations

import math

from repro.core.errors import CapacityError
from repro.core.types import OversubscriptionLevel, ResourceVector, VMRequest

__all__ = ["VNode"]


class VNode:
    """One oversubscription level's resource partition on one PM."""

    __slots__ = ("node_id", "level", "_cpus", "_vms", "_vcpus", "_mem")

    def __init__(self, node_id: str, level: OversubscriptionLevel):
        self.node_id = node_id
        self.level = level
        self._cpus: list[int] = []
        self._vms: dict[str, VMRequest] = {}
        self._vcpus = 0
        self._mem = 0.0

    # -- inventory --------------------------------------------------------

    @property
    def cpu_ids(self) -> tuple[int, ...]:
        """Logical CPUs currently owned by this vNode (exclusive)."""
        return tuple(self._cpus)

    @property
    def num_cpus(self) -> int:
        return len(self._cpus)

    @property
    def allocated_vcpus(self) -> int:
        return self._vcpus

    @property
    def allocated_mem(self) -> float:
        """Physical memory reserved (virtual memory / the level's
        memory-oversubscription ratio)."""
        return self._mem

    @property
    def capacity_vcpus(self) -> float:
        """vCPUs this vNode may expose with its current CPU set."""
        return self.level.ratio * len(self._cpus)

    @property
    def vcpu_slack(self) -> float:
        """vCPUs that could still be hosted without growing the CPU set."""
        return self.capacity_vcpus - self._vcpus

    @property
    def is_empty(self) -> bool:
        return not self._vms

    @property
    def vm_ids(self) -> tuple[str, ...]:
        return tuple(self._vms)

    def allocation(self) -> ResourceVector:
        """Physical resources consumed: owned CPUs + hosted memory."""
        return ResourceVector(float(len(self._cpus)), self._mem)

    # -- sizing -----------------------------------------------------------

    def cpus_required(self, extra_vcpus: int = 0) -> int:
        """Minimal CPU count for the current vCPUs plus ``extra_vcpus``."""
        total = self._vcpus + extra_vcpus
        if total == 0:
            return 0
        return math.ceil(total / self.level.ratio)

    def growth_for(self, vm: VMRequest) -> int:
        """Additional CPUs needed to admit ``vm`` (0 if slack suffices)."""
        return max(0, self.cpus_required(vm.spec.vcpus) - len(self._cpus))

    # -- mutation ---------------------------------------------------------

    def extend_cpus(self, cpu_ids: list[int]) -> None:
        overlap = set(cpu_ids) & set(self._cpus)
        if overlap:
            raise CapacityError(f"vNode {self.node_id} already owns CPUs {sorted(overlap)}")
        self._cpus.extend(cpu_ids)

    def release_cpus(self, count: int) -> list[int]:
        """Give back ``count`` CPUs (most recently added first) and return them."""
        if count < 0 or count > len(self._cpus):
            raise CapacityError(
                f"cannot release {count} CPUs from a vNode owning {len(self._cpus)}"
            )
        if count == 0:
            return []
        released = self._cpus[len(self._cpus) - count :]
        del self._cpus[len(self._cpus) - count :]
        if self.cpus_required() > len(self._cpus):
            # Restore before failing: never leave the vNode undersized.
            self._cpus.extend(released)
            raise CapacityError(
                f"releasing {count} CPUs would violate the {self.level.name} guarantee"
            )
        return released

    def add_vm(self, vm: VMRequest) -> None:
        """Account ``vm`` into this vNode.

        The caller must have grown the CPU set first; admission enforces
        the oversubscription guarantee against the *current* CPU set.
        ``vm.level`` is the offer the customer bought; it can be looser
        than the vNode's own level when §V-B pooling upgraded the VM.
        """
        if vm.vm_id in self._vms:
            raise CapacityError(f"VM {vm.vm_id} already hosted in vNode {self.node_id}")
        if not self.level.satisfies(vm.level):
            raise CapacityError(
                f"vNode level {self.level.name} cannot honour a VM sold at {vm.level.name}"
            )
        if self._vcpus + vm.spec.vcpus > self.capacity_vcpus + 1e-9:
            raise CapacityError(
                f"vNode {self.node_id}: {vm.spec.vcpus} vCPUs exceed slack "
                f"{self.vcpu_slack:.2f} at level {self.level.name}"
            )
        self._vms[vm.vm_id] = vm
        self._vcpus += vm.spec.vcpus
        self._mem += self.level.physical_mem_for(vm.spec.mem_gb)

    def remove_vm(self, vm_id: str) -> VMRequest:
        try:
            vm = self._vms.pop(vm_id)
        except KeyError:
            raise CapacityError(f"VM {vm_id} not hosted in vNode {self.node_id}") from None
        self._vcpus -= vm.spec.vcpus
        self._mem -= self.level.physical_mem_for(vm.spec.mem_gb)
        if not self._vms:
            self._mem = 0.0  # guard against float drift on empty nodes
        return vm

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"VNode({self.node_id}, level={self.level.name}, cpus={len(self._cpus)}, "
            f"vcpus={self._vcpus}/{self.capacity_vcpus:g}, mem={self._mem:g}GB)"
        )
