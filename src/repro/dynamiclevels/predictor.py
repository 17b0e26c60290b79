"""Peak-usage prediction for dynamic oversubscription (paper §VIII).

The paper's vNodes use *static* levels and point to dynamically
computed ones as future work, citing peak-prediction approaches such
as a usage percentile (Resource Central [24]).  This module provides
that estimator plus an *analytic* per-VM peak derived from the
workload model's usage profiles — the signal the dynamic-level cluster
uses when sizing vNodes by predicted demand instead of the worst-case
vCPU count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.errors import ConfigError
from repro.core.types import VMRequest
from repro.workload.usage import INTERACTIVE_AMPLITUDE

__all__ = ["PercentilePredictor", "analytic_peak_demand"]


@dataclass(frozen=True)
class PercentilePredictor:
    """Predict peak usage as a high percentile of observed samples."""

    percentile: float = 99.0

    def __post_init__(self) -> None:
        if not 0 < self.percentile <= 100:
            raise ConfigError(f"percentile must be in (0,100], got {self.percentile}")

    def predict(self, samples: np.ndarray) -> float:
        return float(self.predict_rows(np.asarray(samples, dtype=float)[None, :])[0])

    def predict_rows(self, rows: np.ndarray) -> np.ndarray:
        """:meth:`predict` of every row of a ``(windows × samples)``
        matrix in one call (bit-identical to the per-row calls)."""
        rows = np.asarray(rows, dtype=float)
        if rows.shape[1] == 0:
            raise ConfigError("cannot predict from an empty sample window")
        # Recorded traces may have gaps (NaN samples); those must not
        # leak into placement scores.  Ignore them, but refuse a window
        # with no valid sample at all.
        gaps = np.isnan(rows)
        if gaps.any():
            if gaps.all(axis=1).any():
                raise ConfigError("cannot predict from an all-NaN sample window")
            return np.nanpercentile(rows, self.percentile, axis=1)
        return np.percentile(rows, self.percentile, axis=1)


def analytic_peak_demand(vm: VMRequest, safety: float = 1.1) -> float:
    """Upper bound on a VM's CPU demand, in physical cores.

    Derived from the closed-form peak of its usage profile (the same
    model :mod:`repro.perfmodel` drives), inflated by a ``safety``
    margin, and never exceeding the vCPU count.
    """
    if safety < 1.0:
        raise ConfigError(f"safety margin must be >= 1, got {safety}")
    if vm.usage_kind == "idle":
        peak_util = 0.05
    elif vm.usage_kind == "stress":
        peak_util = vm.usage_param
    elif vm.usage_kind == "interactive":
        # InteractiveProfile.demand clamps at full utilisation, so the
        # analytic peak must too — the unclamped closed form
        # overestimates whenever base > 1 / (1 + amplitude).
        peak_util = min(1.0, vm.usage_param * (1.0 + INTERACTIVE_AMPLITUDE))
    else:
        peak_util = 1.0  # unknown behaviour: assume the worst
    return min(float(vm.spec.vcpus), peak_util * safety * vm.spec.vcpus)
