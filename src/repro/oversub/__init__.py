"""Usage-driven dynamic oversubscription (paper §VIII future work).

Estimators map observed per-host usage windows to dynamic effective
capacities (:mod:`~repro.oversub.estimators`); a shared controller
(:mod:`~repro.oversub.controller`) drives them periodically against
either engine; the object pipeline composes through
:mod:`~repro.oversub.pipeline`.  The strategy-sweep evaluation lives in
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
from repro.oversub.pipeline import (
    EffectiveCapacityFilter,
    EffectiveCapacityView,
    ObjectClusterTarget,
    with_oversub,
)

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
    "EffectiveCapacityFilter",
    "EffectiveCapacityView",
    "ObjectClusterTarget",
    "with_oversub",
]
