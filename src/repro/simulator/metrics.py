"""Cluster-level metrics derived from simulation results.

Provides the two quantities the paper's evaluation reports (§VII-B2):

* unallocated CPU / memory shares (Figure 3) — measured at the peak
  combined allocation of each (minimally-sized) cluster;
* PM savings between a dedicated-clusters baseline and SlackVM's shared
  cluster (Figure 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.simulator.engine import SimulationResult

__all__ = [
    "UnallocatedShares",
    "unallocated_at_peak",
    "combine_unallocated",
    "pm_savings_percent",
]


@dataclass(frozen=True, slots=True)
class UnallocatedShares:
    """Fraction of cluster CPU / memory left unallocated."""

    cpu: float
    mem: float

    def __iter__(self):
        yield self.cpu
        yield self.mem


def unallocated_at_peak(result: SimulationResult) -> UnallocatedShares:
    """Unallocated shares at the instant of peak combined allocation."""
    cpu, mem = result.unallocated_at_peak()
    return UnallocatedShares(cpu=float(cpu), mem=float(mem))


def combine_unallocated(results: Sequence[SimulationResult]) -> UnallocatedShares:
    """Capacity-weighted combination across several (dedicated) clusters.

    Each dedicated cluster is sized by its own peak, so its unallocated
    share is taken at its own peak instant, then combined weighted by
    cluster capacity — matching how Figure 3 aggregates the baseline.
    """
    if not results:
        raise ValueError("need at least one result")
    cap_cpu = sum(r.capacity_cpu for r in results)
    cap_mem = sum(r.capacity_mem for r in results)
    free_cpu = 0.0
    free_mem = 0.0
    for r in results:
        shares = unallocated_at_peak(r)
        free_cpu += shares.cpu * r.capacity_cpu
        free_mem += shares.mem * r.capacity_mem
    return UnallocatedShares(cpu=free_cpu / cap_cpu, mem=free_mem / cap_mem)


def pm_savings_percent(baseline_pms: int, slackvm_pms: int) -> float:
    """PMs saved by the shared cluster, in percent of the baseline."""
    if baseline_pms <= 0:
        raise ValueError("baseline must use at least one PM")
    return 100.0 * (baseline_pms - slackvm_pms) / baseline_pms
