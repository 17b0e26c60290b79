"""Dynamic oversubscription levels (paper §VIII future work)."""

from repro.dynamiclevels.cluster import (
    DynamicLevelCluster,
    DynamicLevelParams,
    DynamicLevelSimulation,
)
from repro.dynamiclevels.predictor import PercentilePredictor, analytic_peak_demand

__all__ = [
    "DynamicLevelParams",
    "DynamicLevelCluster",
    "DynamicLevelSimulation",
    "PercentilePredictor",
    "analytic_peak_demand",
]
