"""Usage-driven dynamic oversubscription (paper §VIII future work).

Estimators map observed per-host usage windows to dynamic effective
capacities (:mod:`~repro.oversub.estimators`); a controller
(:mod:`~repro.oversub.controller`) drives them periodically against
the vector engine, whose capacity override admits beyond physical
(the object engine models no dynamic oversubscription).  The
strategy-sweep evaluation lives in
:mod:`repro.oversub.evaluate` (imported explicitly — it pulls in the
simulation engines).
"""

from repro.oversub.controller import (
    CapacityTarget,
    OversubController,
    OversubParams,
    OversubSummary,
)
from repro.oversub.estimators import (
    STRATEGIES,
    CapacityEstimator,
    DoaEstimator,
    GreedyEstimator,
    HostWindows,
    PercentileEstimator,
    PercentilePredictor,
    StaticRatio,
    make_estimator,
)
from repro.oversub.monitor import ClusterUsageMonitor, profile_for_vm, stable_phase

__all__ = [
    "CapacityTarget",
    "OversubController",
    "OversubParams",
    "OversubSummary",
    "STRATEGIES",
    "CapacityEstimator",
    "DoaEstimator",
    "GreedyEstimator",
    "HostWindows",
    "PercentileEstimator",
    "PercentilePredictor",
    "StaticRatio",
    "make_estimator",
    "ClusterUsageMonitor",
    "profile_for_vm",
    "stable_phase",
]
