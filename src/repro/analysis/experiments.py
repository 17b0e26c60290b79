"""The result record of the at-scale experiment (paper §VII-B, Fig. 3 & 4).

The protocol that produces it is :func:`repro.api.evaluate`; a grid of
them is :func:`repro.api.run_sweep`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.simulator.metrics import UnallocatedShares, pm_savings_percent
from repro.workload.distributions import LevelMix

__all__ = ["DistributionOutcome"]


@dataclass(frozen=True)
class DistributionOutcome:
    """Baseline-vs-SlackVM comparison for one level mix."""

    provider: str
    mix: LevelMix
    seed: int
    baseline_pms_per_level: dict[float, int]
    slackvm_pms: int
    baseline_unallocated: UnallocatedShares
    slackvm_unallocated: UnallocatedShares
    pooled_placements: int

    @property
    def baseline_pms(self) -> int:
        return sum(self.baseline_pms_per_level.values())

    @property
    def savings_percent(self) -> float:
        return pm_savings_percent(self.baseline_pms, self.slackvm_pms)
