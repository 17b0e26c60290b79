"""SMT-aware capacity of a pinned CPU set.

In a classic setting the Linux scheduler "does not exploit SMT
capabilities until cache-level groups are fully loaded" (§VII-A2):
demand spreads over idle physical cores first, and only once every
physical core in the set is busy do sibling threads start to run
concurrently — each busy pair then delivers less than two cores' worth
of throughput.

For a pinned set of ``threads`` logical CPUs spanning ``physical``
distinct cores, the deliverable throughput as a function of demand is
therefore piecewise: 1:1 up to ``physical`` core-seconds, then a
reduced marginal rate on the sibling region, capping at
``physical + (smt_speedup - 1) * paired`` where ``paired`` counts
physical cores contributing both their threads to the set.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import ConfigError
from repro.core.spec import bound, check_bounds

__all__ = ["CpuSetCapacity"]

#: Throughput of a physical core running both SMT siblings, relative to
#: one thread alone (literature reports 1.2–1.4 for mixed workloads).
DEFAULT_SMT_SPEEDUP = 1.3


@dataclass(frozen=True, slots=True)
class CpuSetCapacity:
    """Throughput profile of a pinned CPU set."""

    threads: int = bound(1)
    physical: int = bound(1)
    smt_speedup: float = bound(1, default=DEFAULT_SMT_SPEEDUP)

    def __post_init__(self) -> None:
        check_bounds(self)
        if not self.physical <= self.threads <= 2 * self.physical:
            raise ConfigError(
                f"invalid CPU set: {self.threads} threads over {self.physical} cores "
                "(at most 2 threads per physical core are modelled)"
            )

    @property
    def paired_cores(self) -> int:
        """Physical cores contributing both their threads to the set."""
        return self.threads - self.physical

    @property
    def max_throughput(self) -> float:
        """Core-seconds per second the set can deliver when saturated."""
        return self.physical + (self.smt_speedup - 1.0) * self.paired_cores

    def deliverable(self, demand: float) -> float:
        """Throughput actually delivered for a given aggregate demand.

        Up to ``physical``, demand is served 1:1 (idle cores first).
        Beyond that, sibling threads activate: each extra demanded
        core-second yields only ``smt_speedup - 1`` of additional
        throughput, until the set saturates.
        """
        if demand <= self.physical:
            return demand
        overflow = demand - self.physical
        gained = (self.smt_speedup - 1.0) * min(overflow, float(self.paired_cores))
        return min(self.physical + gained, self.max_throughput)

    def smt_pressure(self, demand: float) -> float:
        """Fraction of served demand running on co-loaded sibling pairs.

        Zero while the physical cores absorb everything; grows toward 1
        as the sibling region fills.  Used to inflate per-request
        service times (a thread sharing its core runs slower even when
        aggregate throughput is sufficient).
        """
        if demand <= self.physical or self.paired_cores == 0:
            return 0.0
        overflow = min(demand - self.physical, float(self.paired_cores))
        # Both siblings of each co-loaded pair are slowed.
        return min(1.0, 2.0 * overflow / max(demand, 1e-12))
