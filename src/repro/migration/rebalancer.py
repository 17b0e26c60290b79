"""Live-migration consolidation (paper §VIII, future work).

"Considering live migration to further balance the packing of our
vNodes is left as a future work."  This module implements that
extension: a :class:`Rebalancer` that periodically tries to *evacuate*
the lightest-loaded hosts by re-placing their VMs on the rest of the
cluster (scored by the same policy as initial placement), freeing whole
PMs that arrivals/departures have left underutilized.

The ablation bench compares minimal cluster sizes with and without a
migration pass enabled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from repro.core.config import SlackVMConfig
from repro.core.errors import ConfigError
from repro.core.types import VMRequest
from repro.hardware.machine import MachineSpec
from repro.simulator.engine import LoopState, PlacementRecord, SimulationResult, run_events
from repro.simulator.vectorpool import VectorBackend, VectorCluster, check_policy

__all__ = ["Migration", "RebalanceReport", "Rebalancer", "MigratingSimulation"]


@dataclass(frozen=True, slots=True)
class Migration:
    vm_id: str
    source: int
    target: int


@dataclass
class RebalanceReport:
    migrations: list[Migration] = field(default_factory=list)
    hosts_emptied: int = 0

    @property
    def num_migrations(self) -> int:
        return len(self.migrations)


class Rebalancer:
    """Evacuate lightly-loaded hosts onto the rest of the cluster."""

    def __init__(self, policy: str = "progress", max_migrations: int = 10_000):
        check_policy(policy)
        self.policy = policy
        self.max_migrations = max_migrations

    def _try_evacuate(self, cluster: VectorCluster, source: int) -> list[Migration] | None:
        """Move every VM off ``source``; None (and rollback) if impossible."""
        vm_ids = cluster.vms_on(source)
        done: list[tuple[VMRequest, int]] = []
        moves: list[Migration] = []
        for vm_id in vm_ids:
            vm = cluster.request_of(vm_id)
            cluster.remove(vm_id)
            feasible, _g, _o = cluster.feasibility(vm)
            feasible[source] = False  # ours to edit: the tables are fresh arrays
            if not feasible.any():
                # Rollback: restore this VM and all prior moves.
                cluster.deploy(vm, source)
                for moved_vm, origin in reversed(done):
                    cluster.remove(moved_vm.vm_id)
                    cluster.deploy(moved_vm, origin)
                return None
            target = cluster.select_best(feasible, vm, self.policy)
            cluster.deploy(vm, target)
            done.append((vm, source))
            moves.append(Migration(vm_id=vm_id, source=source, target=target))
        return moves

    def consolidate(self, cluster: VectorCluster) -> RebalanceReport:
        """Repeatedly evacuate the lightest non-empty host while possible."""
        report = RebalanceReport()
        blocked: set[int] = set()
        while report.num_migrations < self.max_migrations:
            weights = [
                (cluster.host_weight(h), h)
                for h in range(cluster.num_hosts)
                if h not in blocked and cluster.vms_on(h)
            ]
            if len(weights) <= 1:
                break
            _, source = min(weights)
            moves = self._try_evacuate(cluster, source)
            if moves is None:
                blocked.add(source)
                continue
            report.migrations.extend(moves)
            report.hosts_emptied += 1
            blocked.add(source)  # don't immediately refill what we emptied
        return report


class MigratingSimulation:
    """A :class:`~repro.simulator.vectorpool.VectorSimulation` variant
    that runs a consolidation pass at a fixed simulated interval (a
    ``before_event`` hook of :func:`~repro.simulator.engine.run_events`).

    Matches the vector engine's semantics between passes; suitable for
    :func:`repro.simulator.sizing.minimal_cluster` via its
    ``simulation_factory`` hook.
    """

    def __init__(
        self,
        machines: Sequence[MachineSpec],
        config: SlackVMConfig | None = None,
        policy: str = "progress",
        fail_fast: bool = False,
        rebalance_interval: float = 86_400.0,
    ):
        # Zero or negative never moves the next pass past the current
        # time (the pass loop would spin); NaN would never fire.
        if not 0 < rebalance_interval < math.inf:
            raise ConfigError(
                f"rebalance_interval must be finite and > 0, got {rebalance_interval}"
            )
        self.machines = list(machines)
        self.config = config or SlackVMConfig()
        self.policy = policy
        self.fail_fast = fail_fast
        self.rebalance_interval = rebalance_interval
        self.last_report: RebalanceReport | None = None
        self.total_migrations = 0

    def run(self, workload: list[VMRequest]) -> SimulationResult:
        cluster = VectorCluster(self.machines, self.config)
        rebalancer = Rebalancer(policy=self.policy)
        next_rebalance = self.rebalance_interval
        self.total_migrations = 0

        def rebalance(time: float, state: LoopState) -> None:
            nonlocal next_rebalance
            while time >= next_rebalance:
                report = rebalancer.consolidate(cluster)
                self.last_report = report
                self.total_migrations += report.num_migrations
                for mig in report.migrations:
                    rec = state.placements[mig.vm_id]
                    state.placements[mig.vm_id] = PlacementRecord(
                        rec.vm_id, mig.target, rec.hosted_ratio, rec.pooled
                    )
                next_rebalance += self.rebalance_interval

        backend = VectorBackend(cluster, self.policy)
        return run_events(
            backend, workload, fail_fast=self.fail_fast, before_event=rebalance
        )
