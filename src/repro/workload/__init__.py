"""Workload substrate: provider catalogs, level mixes, generator, traces."""

from repro.workload.calibration import CalibrationTarget, calibrate_catalog
from repro.workload.catalog import AZURE, OVERSUB_MEM_CAP_GB, OVHCLOUD, PROVIDERS, Catalog
from repro.workload.distributions import DISTRIBUTIONS, mix_shares
from repro.workload.generator import (
    WorkloadParams,
    generate_workload,
    peak_population,
    remap_levels,
)
from repro.workload.traces import load_trace, save_trace, iter_trace
from repro.workload.usage import (
    DEFAULT_BEHAVIOUR_SHARES,
    IdleProfile,
    InteractiveProfile,
    StressProfile,
    UsageProfile,
    diurnal_demand,
    profile_for,
)

__all__ = [
    "Catalog",
    "CalibrationTarget",
    "calibrate_catalog",
    "AZURE",
    "OVHCLOUD",
    "PROVIDERS",
    "OVERSUB_MEM_CAP_GB",
    "DISTRIBUTIONS",
    "mix_shares",
    "WorkloadParams",
    "generate_workload",
    "peak_population",
    "remap_levels",
    "save_trace",
    "load_trace",
    "iter_trace",
    "UsageProfile",
    "IdleProfile",
    "StressProfile",
    "InteractiveProfile",
    "profile_for",
    "diurnal_demand",
    "DEFAULT_BEHAVIOUR_SHARES",
]
