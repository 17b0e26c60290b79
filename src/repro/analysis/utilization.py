"""Platform-utilization analysis: allocated vs actually-used resources.

The paper's motivation (§I) is the chronically low resource *usage* per
PM: providers allocate conservatively, tenants use a fraction of what
they bought, and oversubscription closes part of that gap.  This module
quantifies the chain for a simulated cluster:

* **allocated share** — physical resources reserved by vNodes (what the
  packing experiments measure);
* **used share** — the CPU the hosted VMs actually demand, integrating
  their usage profiles over their lifetimes;
* **overcommit efficiency** — used / allocated: how much of the
  reservation the oversubscription policy converts into real work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.errors import SimulationError
from repro.core.types import VMRequest
from repro.simulator.engine import SimulationResult
from repro.workload.usage import profile_for

__all__ = ["UtilizationReport", "cluster_utilization"]

#: Sample instants over the trace: one per hour of a one-week trace.
_SAMPLES = 168


@dataclass(frozen=True)
class UtilizationReport:
    """Time-averaged utilization of a simulated cluster."""

    #: Physical CPU reserved by vNodes, as a share of cluster capacity.
    allocated_cpu_share: float
    #: CPU actually demanded by hosted VMs, as a share of capacity.
    used_cpu_share: float
    #: Virtual CPUs exposed, as a share of capacity (>1 == oversubscribed).
    exposed_vcpu_share: float

    @property
    def overcommit_efficiency(self) -> float:
        """Used / allocated: how much reserved CPU does real work."""
        if self.allocated_cpu_share == 0:
            return 0.0
        return self.used_cpu_share / self.allocated_cpu_share


def cluster_utilization(
    workload: Sequence[VMRequest],
    result: SimulationResult,
) -> UtilizationReport:
    """Measure a placed workload's real CPU usage against the cluster.

    :data:`_SAMPLES` time points are spread over the trace duration; at
    each point the demand of every alive *placed* VM is evaluated from
    its usage profile.
    """
    times_arr, alloc_cpu, _mem = result.timeline.as_arrays()
    if len(times_arr) == 0:
        raise SimulationError("simulation produced an empty timeline")
    horizon = float(times_arr[-1])
    if horizon <= 0:
        raise SimulationError("trace horizon must be positive")
    grid = np.linspace(0.0, horizon, _SAMPLES)

    placed = [vm for vm in workload if vm.vm_id in result.placements]
    profiles = [profile_for(vm.usage_kind, vm.usage_param) for vm in placed]
    arrivals = np.array([vm.arrival for vm in placed])
    departures = np.array(
        [vm.departure if vm.departure is not None else np.inf for vm in placed]
    )
    vcpus = np.array([vm.spec.vcpus for vm in placed], dtype=float)

    used = np.zeros(_SAMPLES)
    exposed = np.zeros(_SAMPLES)
    for i, t in enumerate(grid):
        alive = (arrivals <= t) & (t < departures)
        if alive.any():
            demand = np.array(
                [profiles[j].demand(float(t)) for j in np.flatnonzero(alive)]
            )
            used[i] = float((demand * vcpus[alive]).sum())
            exposed[i] = float(vcpus[alive].sum())

    # Allocation timeline is a step function; sample it on the grid.
    idx = np.searchsorted(times_arr, grid, side="right") - 1
    idx = np.clip(idx, 0, len(times_arr) - 1)
    allocated = alloc_cpu[idx]

    cap = result.capacity_cpu
    return UtilizationReport(
        allocated_cpu_share=float(allocated.mean() / cap),
        used_cpu_share=float(used.mean() / cap),
        exposed_vcpu_share=float(exposed.mean() / cap),
    )
