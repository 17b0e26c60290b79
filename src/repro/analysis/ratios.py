"""§III analysis: allocation ratios and limiting factors (Tables I & II).

Given a provider catalog, computes the average VM request (Table I),
the provisioned M/C ratio at each oversubscription level (Table II),
and classifies which PM resource each level saturates first against a
hardware target ratio (§III-B's CPU-bound / balanced / memory-bound
discussion).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.workload.catalog import Catalog

__all__ = ["LimitingFactor", "table1_row", "table2_row", "limiting_factor", "classify_levels"]

#: Relative band around the target ratio considered "balanced" (§III-B
#: calls OVHcloud's 3.9 vs 4 "balanced" — a ~5 % margin).
BALANCED_MARGIN = 0.05

#: The paper's oversubscription ratios (1:1, 2:1, 3:1).
_RATIOS = (1.0, 2.0, 3.0)


class LimitingFactor(str, Enum):
    """Which PM resource a workload mix exhausts first."""

    CPU = "cpu-bound"  # workload M/C below the PM ratio: CPUs run out
    MEMORY = "memory-bound"  # workload M/C above the PM ratio: memory runs out
    BALANCED = "balanced"


@dataclass(frozen=True, slots=True)
class Table1Row:
    """Average vCPU & vRAM request per VM for one provider."""

    provider: str
    mean_vcpus: float
    mean_mem_gb: float


@dataclass(frozen=True, slots=True)
class Table2Row:
    """M/C ratios (GB per provisioned core) across oversubscription levels."""

    provider: str
    ratios: dict[float, float]  # oversubscription ratio -> M/C


def table1_row(catalog: Catalog) -> Table1Row:
    return Table1Row(
        provider=catalog.name,
        mean_vcpus=catalog.mean_vcpus,
        mean_mem_gb=catalog.mean_mem_gb,
    )


def table2_row(catalog: Catalog) -> Table2Row:
    return Table2Row(
        provider=catalog.name,
        ratios={r: catalog.mc_ratio(r) for r in _RATIOS},
    )


def limiting_factor(workload_mc: float, target_mc: float) -> LimitingFactor:
    """Classify a workload M/C ratio against a PM target ratio (§III-B)."""
    if workload_mc < target_mc * (1 - BALANCED_MARGIN):
        return LimitingFactor.CPU
    if workload_mc > target_mc * (1 + BALANCED_MARGIN):
        return LimitingFactor.MEMORY
    return LimitingFactor.BALANCED


def classify_levels(catalog: Catalog, target_mc: float = 4.0) -> dict[float, LimitingFactor]:
    """Limiting factor per oversubscription level for a provider.

    With the paper's 4 GB/core PMs this reproduces §III-B's reading:
    Azure 1:1 and 2:1 are CPU-bound, 3:1 memory-bound; OVHcloud 1:1 is
    CPU-bound, 2:1 balanced, 3:1 memory-bound.
    """
    return {r: limiting_factor(catalog.mc_ratio(r), target_mc) for r in _RATIOS}
