"""The SlackVM *local scheduler* (paper §V).

One :class:`LocalScheduler` manages one PM.  It segregates the PM's
logical CPUs into per-level vNodes and dynamically grows/shrinks them on
VM arrival/departure.  Every VM of a vNode is pinned to the vNode's
whole CPU set, so ``VNode.cpu_ids`` *is* the pinning, and
``pin_generation`` counts its changes; no hypervisor is driven.

Two operating modes, which differ only in which CPUs a vNode gets:

* **topology mode** — pass a :class:`~repro.hardware.topology.Topology`
  with ``SlackVMConfig.topology_aware`` (the default); CPU ids are real
  logical CPUs and :class:`~repro.localsched.allocator.CoreAllocator`
  selects them by Algorithm 1.  Used by the performance-model testbed
  and the pinning examples.
* **index order** — no topology (accounting mode, the at-scale
  simulation's default), or a topology with ``topology_aware=False``
  (the ablation baseline): the lowest free CPU ids are picked.
  Capacity bookkeeping is identical, since packing results depend only
  on allocation arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.core.config import SlackVMConfig
from repro.core.errors import CapacityError, ConfigError
from repro.core.types import OversubscriptionLevel, ResourceVector, VMRequest
from repro.hardware.machine import MachineSpec
from repro.hardware.topology import Topology
from repro.localsched.allocator import CoreAllocator
from repro.core.constants import CAPACITY_EPSILON
from repro.localsched.vnode import VNode
from repro.obs.records import AdmissionRecord, DecisionRecorder

__all__ = ["DeployPlan", "Placement", "LocalScheduler"]


class _SlotAllocator:
    """Index-order CPU allocator: always the lowest free ids.

    Mirrors :class:`CoreAllocator`'s interface without needing a
    topology — the hot path of the at-scale simulation.
    """

    def __init__(self, num_cpus: int):
        self._free: list[int] = list(range(num_cpus - 1, -1, -1))  # pop() -> lowest id
        self._free_set: set[int] = set(range(num_cpus))

    @property
    def num_free(self) -> int:
        return len(self._free)

    def pick_grow(self, anchor: Sequence[int], count: int) -> list[int]:
        if count > len(self._free):
            raise CapacityError(
                f"requested {count} CPUs but only {len(self._free)} are free"
            )
        chosen = [self._free.pop() for _ in range(count)]
        self._free_set.difference_update(chosen)
        return chosen

    def pick_seed(self, count: int, occupied: Sequence[int]) -> list[int]:
        return self.pick_grow((), count)

    def release(self, cpu_ids: Iterable[int]) -> None:
        ids = list(cpu_ids)
        dup = [c for c in ids if c in self._free_set]
        if dup:
            raise CapacityError(f"CPUs {dup} are already free")
        self._free_set.update(ids)
        self._free.extend(ids)
        # Keep pop() returning the lowest free id for determinism.
        self._free.sort(reverse=True)


@dataclass(frozen=True, slots=True)
class DeployPlan:
    """A feasible (non-mutating) admission decision for one VM."""

    hosted_ratio: float  # ratio of the vNode that will host the VM
    growth: int  # CPUs the vNode must acquire
    pooled: bool  # True when §V-B pooling upgrades the VM


@dataclass(frozen=True, slots=True)
class Placement:
    """The result of an effective deployment."""

    hosted_level: OversubscriptionLevel
    pooled: bool


class LocalScheduler:
    """Per-PM agent managing vNodes for every oversubscription level."""

    def __init__(
        self,
        machine: MachineSpec,
        config: SlackVMConfig | None = None,
        topology: Optional[Topology] = None,
    ):
        self.machine = machine
        self.config = config or SlackVMConfig()
        self.topology = topology
        #: Observability sink (repro.obs): receives one admission record
        #: per deploy when set and enabled; the simulation wires it.
        self.recorder: Optional[DecisionRecorder] = None
        if topology is not None and topology.num_cpus != machine.cpus:
            raise ConfigError(
                f"topology has {topology.num_cpus} CPUs, machine spec says {machine.cpus}"
            )
        if topology is not None and self.config.topology_aware:
            self._alloc: CoreAllocator | _SlotAllocator = CoreAllocator(topology)
        else:
            self._alloc = _SlotAllocator(machine.cpus)
        self._vnodes: dict[float, VNode] = {}
        self._vm_home: dict[str, float] = {}  # vm_id -> hosting vNode ratio
        self._mem_used = 0.0
        self._seq = 0
        #: Incremented whenever any vNode's CPU set changes (pinning events).
        self.pin_generation = 0

    # -- state reporting ---------------------------------------------------

    @property
    def vnodes(self) -> tuple[VNode, ...]:
        return tuple(self._vnodes.values())

    def vnode_for(self, level: OversubscriptionLevel) -> Optional[VNode]:
        return self._vnodes.get(level.ratio)

    @property
    def num_vms(self) -> int:
        return len(self._vm_home)

    @property
    def allocated_cpus(self) -> int:
        """Logical CPUs reserved by vNodes (the PM-level CPU allocation)."""
        return sum(v.num_cpus for v in self._vnodes.values())

    @property
    def allocated_mem(self) -> float:
        return self._mem_used

    @property
    def free_mem(self) -> float:
        return self.machine.mem_gb - self._mem_used

    def allocation(self) -> ResourceVector:
        """PM-level allocation vector consumed by Algorithm 2.

        CPU counts *physical* reservations (vNode CPU sets), so a 3:1
        vNode hosting 9 vCPUs contributes 3 CPUs — oversubscribed
        vNodes are "considered through the PM allocation" (§VI).
        """
        return ResourceVector(float(self.allocated_cpus), self._mem_used)

    # -- admission ----------------------------------------------------------

    def supports(self, level: OversubscriptionLevel) -> bool:
        """Whether this PM is configured to offer ``level``.

        Dedicated-cluster baselines configure each PM with a single
        level; SlackVM PMs are configured with all of them.
        """
        return any(
            lv.ratio == level.ratio and lv.mem_ratio == level.mem_ratio
            for lv in self.config.levels
        )

    def plan(self, vm: VMRequest) -> Optional[DeployPlan]:
        """Non-mutating feasibility check; None when the VM cannot fit.

        Tries the VM's own level first (growing its vNode if needed),
        then — when pooling is enabled — the slack of stricter
        *oversubscribed* vNodes (§V-B upgrade), without growing them.
        """
        if not self.supports(vm.level):
            return None
        own = self._vnodes.get(vm.level.ratio) or VNode("probe", vm.level)
        growth = own.growth_for(vm)
        own_mem = vm.level.physical_mem_for(vm.spec.mem_gb)
        if growth <= self._alloc.num_free and own_mem <= self.free_mem + CAPACITY_EPSILON:
            return DeployPlan(vm.level.ratio, growth, pooled=False)
        if self.config.pooling and vm.level.ratio > 1:
            host = self._pooling_candidate(vm)
            if host is not None:
                return DeployPlan(host.level.ratio, 0, pooled=True)
        return None

    def _pooling_candidate(self, vm: VMRequest) -> Optional[VNode]:
        """Strictest-fit oversubscribed vNode whose slack can absorb ``vm``.

        Only levels with ratio in (1, vm.ratio) qualify: premium 1:1
        resources are never pooled, and a looser vNode cannot honour a
        stricter guarantee.  Among candidates we prefer the loosest
        qualifying level (the smallest "upgrade").
        """
        candidates = [
            node
            for ratio, node in self._vnodes.items()
            if 1 < ratio < vm.level.ratio
            and node.vcpu_slack >= vm.spec.vcpus
            and node.level.physical_mem_for(vm.spec.mem_gb) <= self.free_mem + CAPACITY_EPSILON
        ]
        if not candidates:
            return None
        return max(candidates, key=lambda n: n.level.ratio)

    def can_deploy(self, vm: VMRequest) -> bool:
        return self.plan(vm) is not None

    # -- deployment ----------------------------------------------------------

    def deploy(self, vm: VMRequest) -> Placement:
        plan = self.plan(vm)
        if plan is None:
            raise CapacityError(
                f"PM {self.machine.name}: cannot host VM {vm.vm_id} "
                f"({vm.spec.vcpus} vCPU / {vm.spec.mem_gb} GB @ {vm.level.name})"
            )
        node = self._vnodes.get(plan.hosted_ratio)
        new_cpus: list[int] = []
        if node is None:
            node = VNode(f"{self.machine.name}/vnode-{self._seq}", vm.level)
            self._seq += 1
            self._vnodes[vm.level.ratio] = node
        if plan.growth:
            if node.num_cpus:
                new_cpus = self._alloc.pick_grow(node.cpu_ids, plan.growth)
            else:
                occupied = [c for v in self._vnodes.values() for c in v.cpu_ids]
                new_cpus = self._alloc.pick_seed(plan.growth, occupied)
            # §V: "extending the pinning of all hosted VMs in that vNode
            # to the new range" — every resident follows node.cpu_ids.
            node.extend_cpus(new_cpus)
            self.pin_generation += 1
        node.add_vm(vm)
        self._vm_home[vm.vm_id] = node.level.ratio
        self._mem_used += node.level.physical_mem_for(vm.spec.mem_gb)
        if self.recorder is not None and self.recorder.enabled:
            self.recorder.record_admission(
                AdmissionRecord(
                    vm_id=vm.vm_id,
                    host=self.machine.name,
                    hosted_ratio=node.level.ratio,
                    growth=len(new_cpus),
                    pooled=plan.pooled,
                )
            )
        return Placement(hosted_level=node.level, pooled=plan.pooled)

    def remove(self, vm_id: str) -> None:
        """Remove a VM, shrink its vNode, destroy it when empty."""
        try:
            ratio = self._vm_home.pop(vm_id)
        except KeyError:
            raise CapacityError(f"VM {vm_id} is not hosted on {self.machine.name}") from None
        node = self._vnodes[ratio]
        gone = node.remove_vm(vm_id)
        self._mem_used -= node.level.physical_mem_for(gone.spec.mem_gb)
        if self._mem_used < CAPACITY_EPSILON:
            self._mem_used = 0.0
        excess = node.num_cpus - node.cpus_required()
        if excess:
            self._alloc.release(node.release_cpus(excess))
            self.pin_generation += 1
        if node.is_empty:
            del self._vnodes[ratio]
