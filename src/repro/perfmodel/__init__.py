"""Performance model: CPU fair-sharing, SMT capacity, latency, testbed."""

from repro.perfmodel.apps import LatencyParams, LatencyTracker, percentile_windows
from repro.perfmodel.contention import ContentionGroup, GroupMember, GroupTick
from repro.perfmodel.fairshare import weighted_water_fill
from repro.perfmodel.smt import CpuSetCapacity
from repro.perfmodel.testbed import (
    ChurnParams,
    ChurnResult,
    LevelPerf,
    TestbedParams,
    TestbedResult,
    build_vm_population,
    run_churn_testbed,
    run_testbed,
)

__all__ = [
    "weighted_water_fill",
    "CpuSetCapacity",
    "ContentionGroup",
    "GroupMember",
    "GroupTick",
    "LatencyParams",
    "LatencyTracker",
    "percentile_windows",
    "TestbedParams",
    "TestbedResult",
    "LevelPerf",
    "run_testbed",
    "build_vm_population",
    "ChurnParams",
    "ChurnResult",
    "run_churn_testbed",
]
