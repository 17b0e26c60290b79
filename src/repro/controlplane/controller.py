"""An online control plane over a SlackVM cluster.

The simulation packages replay *traces*; this module is the service
view — an OpenStack-Nova-like API a provider integrates against:

* ``request(spec, level)`` places a VM through the vector engine's
  kernel (:class:`~repro.simulator.vectorpool.VectorBackend`) and returns
  a ticket (ACTIVE on success, PENDING when no host currently fits);
* ``delete(vm_id)`` releases the VM and opportunistically retries the
  pending queue (capacity just freed up);
* inspection calls expose cluster state, per-host vNode reports and an
  audit log of every scheduling decision.

Single-threaded by design: the paper's control planes serialize
placement decisions per cluster, and so do we.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from repro.core.config import SlackVMConfig
from repro.core.errors import CapacityError, ConfigError
from repro.core.spec import check_int
from repro.core.types import OversubscriptionLevel, ResourceVector, VMRequest, VMSpec
from repro.hardware.machine import MachineSpec
from repro.simulator.vectorpool import VectorBackend, VectorCluster, check_policy

__all__ = ["VMState", "VMTicket", "ClusterState", "CloudController"]


class VMState(str, Enum):
    ACTIVE = "active"  # placed and running
    PENDING = "pending"  # admitted to the queue, waiting for capacity
    DELETED = "deleted"


@dataclass
class VMTicket:
    """The controller's record of one VM request."""

    vm_id: str
    spec: VMSpec
    level: OversubscriptionLevel
    state: VMState
    host: Optional[int] = None
    pooled: bool = False
    tenant: Optional[str] = None


@dataclass(frozen=True)
class ClusterState:
    """Aggregate snapshot for dashboards/capacity planning."""

    num_hosts: int
    active_vms: int
    pending_vms: int
    allocated: ResourceVector
    capacity: ResourceVector

    @property
    def cpu_allocation_share(self) -> float:
        return self.allocated.cpu / self.capacity.cpu

    @property
    def mem_allocation_share(self) -> float:
        return self.allocated.mem / self.capacity.mem


class CloudController:
    """VM lifecycle service over one :class:`VectorBackend` bound to
    ``policy`` (one of :data:`~repro.simulator.vectorpool.POLICIES`)."""

    def __init__(
        self,
        machines: Sequence[MachineSpec],
        config: SlackVMConfig | None = None,
        policy: str = "progress",
        max_pending: int = 1000,
    ):
        if not machines:
            raise ConfigError("a controller needs at least one machine")
        self.max_pending = check_int("max_pending", max_pending, 0)
        check_policy(policy)
        self.config = config or SlackVMConfig()
        self.hosts: list[MachineSpec] = list(machines)
        self.scheduler = VectorBackend(VectorCluster(self.hosts, self.config), policy)
        self._tickets: dict[str, VMTicket] = {}
        self._pending: list[str] = []  # FIFO of vm_ids awaiting capacity
        self._hosted: dict[str, int] = {}  # active vm_id -> hosting level index
        self._ids = itertools.count()
        #: Append-only audit log of (action, vm_id, detail) tuples.
        self.audit_log: list[tuple[str, str, str]] = []

    # -- lifecycle API -------------------------------------------------------

    def request(
        self,
        spec: VMSpec,
        level: OversubscriptionLevel,
        tenant: Optional[str] = None,
    ) -> VMTicket:
        """Schedule a new VM; returns an ACTIVE or PENDING ticket."""
        if not any(
            lv.ratio == level.ratio and lv.mem_ratio == level.mem_ratio
            for lv in self.config.levels
        ):
            raise ConfigError(f"level {level.name} is not offered by this cluster")
        vm_id = f"vm-{next(self._ids):06d}"
        ticket = VMTicket(vm_id=vm_id, spec=spec, level=level,
                          state=VMState.PENDING, tenant=tenant)
        self._tickets[vm_id] = ticket
        if not self._try_place(ticket):
            if len(self._pending) >= self.max_pending:
                del self._tickets[vm_id]
                raise CapacityError(
                    f"pending queue full ({self.max_pending}); request rejected"
                )
            self._pending.append(vm_id)
            self.audit_log.append(("queue", vm_id, "no host fits; queued"))
        return ticket

    def _try_place(self, ticket: VMTicket) -> bool:
        request = VMRequest(vm_id=ticket.vm_id, spec=ticket.spec, level=ticket.level)
        idx = self.scheduler.select(request)
        if idx is None:
            return False
        placement = self.scheduler.deploy(request, idx)
        hosted = self.scheduler.cluster.level_index(placement.hosted_ratio)
        self._hosted[ticket.vm_id] = hosted
        ticket.state = VMState.ACTIVE
        ticket.host = idx
        ticket.pooled = placement.pooled
        self.audit_log.append(
            ("place", ticket.vm_id,
             f"host {idx} vNode {self.config.levels[hosted].name}"
             + (" (pooled)" if placement.pooled else ""))
        )
        return True

    def delete(self, vm_id: str) -> None:
        """Release a VM (ACTIVE or PENDING) and retry the queue."""
        try:
            ticket = self._tickets[vm_id]
        except KeyError:
            raise CapacityError(f"unknown VM {vm_id}") from None
        if ticket.state is VMState.DELETED:
            raise CapacityError(f"VM {vm_id} already deleted")
        if ticket.state is VMState.ACTIVE:
            self.scheduler.remove(vm_id, ticket.host)
            del self._hosted[vm_id]
        else:
            self._pending.remove(vm_id)
        ticket.state = VMState.DELETED
        ticket.host = None
        self.audit_log.append(("delete", vm_id, ""))
        self._drain_pending()

    def _drain_pending(self) -> None:
        """FIFO retry: place whatever now fits (head-of-line may still
        be blocked while smaller requests behind it succeed)."""
        still_waiting: list[str] = []
        for vm_id in self._pending:
            ticket = self._tickets[vm_id]
            if not self._try_place(ticket):
                still_waiting.append(vm_id)
        self._pending = still_waiting

    # -- inspection ------------------------------------------------------------

    def ticket(self, vm_id: str) -> VMTicket:
        try:
            return self._tickets[vm_id]
        except KeyError:
            raise CapacityError(f"unknown VM {vm_id}") from None

    def list_vms(self, state: VMState | None = None) -> list[VMTicket]:
        tickets = list(self._tickets.values())
        if state is not None:
            tickets = [t for t in tickets if t.state is state]
        return tickets

    def describe_host(self, index: int) -> dict:
        """A JSON-friendly snapshot of one host: its allocation and one
        entry per non-empty vNode (``cpus`` counts the vNode's cores)."""
        cluster = self.scheduler.cluster
        machine = self.hosts[index]
        vms = cluster.vms_on(index)
        vnodes = []
        for li, level in enumerate(self.config.levels):
            vcpus = int(cluster.vnode_vcpus[li, index])
            if not vcpus:
                continue
            cpus = int(cluster.vnode_cpus[li, index])
            vnodes.append({
                "level": level.name, "cpus": cpus, "vcpus": vcpus,
                "capacity_vcpus": level.ratio * cpus,
                "vms": [vm_id for vm_id in vms if self._hosted[vm_id] == li],
            })
        return {
            "machine": machine.name, "cpus": machine.cpus, "mem_gb": machine.mem_gb,
            "allocated_cpus": int(cluster.alloc_cpu[index]),
            "allocated_mem_gb": round(float(cluster.alloc_mem[index]), 6),
            "num_vms": len(vms), "vnodes": vnodes,
        }

    def state(self) -> ClusterState:
        return ClusterState(
            num_hosts=len(self.hosts),
            active_vms=len(self._hosted),
            pending_vms=len(self._pending),
            allocated=ResourceVector(*self.scheduler.totals()),
            capacity=ResourceVector(*self.scheduler.capacity()),
        )
