"""Host-failure injection for the cloud simulation.

Production clusters lose PMs; a packing scheduler must leave enough
aggregate headroom to re-place the victims.  This module extends the
vector engine with host-failure events (a ``before_event`` hook of
:func:`~repro.simulator.engine.run_events`): at a failure's timestamp the
host is drained and marked dead (its remaining capacity is zero), every
victim VM is re-submitted through the global scheduler, and VMs that no
longer fit anywhere are recorded as *lost*.

Used by the failure-injection tests and the resilience example; not a
paper experiment (the paper's evaluation assumes healthy PMs) but a
substrate a production adopter needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Sequence

from repro.core.config import SlackVMConfig
from repro.core.errors import SimulationError
from repro.core.spec import bound, check_bounds
from repro.core.types import VMRequest
from repro.hardware.machine import MachineSpec
from repro.simulator.engine import LoopState, SimulationResult, run_events
from repro.simulator.vectorpool import VectorBackend, VectorCluster, check_policy

__all__ = ["HostFailure", "FaultReport", "FaultySimulation"]


@dataclass(frozen=True, slots=True)
class HostFailure:
    """One PM dies (permanently) at ``time``."""

    ERROR: ClassVar[type[SimulationError]] = SimulationError

    time: float = bound(0)
    host: int = bound(0)

    def __post_init__(self) -> None:
        check_bounds(self)


@dataclass
class FaultReport:
    """What happened at each injected failure."""

    failed_hosts: list[int] = field(default_factory=list)
    recovered_vms: int = 0
    lost_vms: list[str] = field(default_factory=list)


class FaultySimulation:
    """A :class:`~repro.simulator.vectorpool.VectorSimulation` variant
    that injects permanent host failures and re-places the victims."""

    def __init__(
        self,
        machines: Sequence[MachineSpec],
        failures: Sequence[HostFailure],
        config: SlackVMConfig | None = None,
        policy: str = "progress",
    ):
        check_policy(policy)
        self.machines = list(machines)
        for f in failures:
            if f.host >= len(self.machines):
                raise SimulationError(
                    f"failure targets host {f.host} but the cluster has "
                    f"{len(self.machines)} hosts"
                )
        self.failures = sorted(failures, key=lambda f: f.time)
        self.config = config or SlackVMConfig()
        self.policy = policy
        self.report = FaultReport()

    def _fail_host(self, cluster: VectorCluster, host: int, state: LoopState) -> None:
        victims = [cluster.request_of(vm_id) for vm_id in cluster.vms_on(host)]
        for vm in victims:
            cluster.remove(vm.vm_id)
        cluster.kill_host(host)
        self.report.failed_hosts.append(host)
        # Victims re-enter through the scheduler, largest first (the
        # hardest to place; a classic recovery ordering).
        for vm in sorted(
            victims, key=lambda r: (-r.spec.vcpus, -r.spec.mem_gb, r.vm_id)
        ):
            target = cluster.select(vm, self.policy)
            if target is None:
                self.report.lost_vms.append(vm.vm_id)
                state.alive.discard(vm.vm_id)
            else:
                state.placements[vm.vm_id] = cluster.deploy(vm, target)
                self.report.recovered_vms += 1

    def run(self, workload: list[VMRequest]) -> SimulationResult:
        cluster = VectorCluster(self.machines, self.config)
        backend = VectorBackend(cluster, self.policy)
        pending = list(self.failures)
        self.report = FaultReport()

        def inject(time: float, state: LoopState) -> None:
            while pending and pending[0].time <= time:
                self._fail_host(cluster, pending.pop(0).host, state)

        result = run_events(backend, workload, before_event=inject)
        # Failures after the last event still kill their hosts, and the
        # reported capacity is net of them.
        inject(float("inf"), LoopState(result.placements, set()))
        result.capacity_cpu, result.capacity_mem = backend.capacity()
        return result
