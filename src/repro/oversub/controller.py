"""Periodic effective-capacity control loop + violation accounting.

:class:`OversubController` drives one engine: every ``update_every``
simulated seconds it collects the hosts' usage windows
(:class:`~repro.oversub.monitor.ClusterUsageMonitor`), asks the
configured :class:`~repro.oversub.estimators.CapacityEstimator` for
the effective-capacity vector, and pushes it back into the engine
through the small :class:`CapacityTarget` port, which the vector
engine's ``VectorBackend`` implements with a capacity-array override
(``VectorSimulation.run`` advances the controller before every event).

It also keeps the safety ledger: a host window whose demand peak
exceeds the host's physical cores counts as one violation.
Violations are counted for *every* strategy, including
:class:`~repro.oversub.estimators.StaticRatio` — that is the baseline
risk the packing-gain-vs-violation tables in EXPERIMENTS.md compare
against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Protocol, Sequence

import numpy as np

from repro.core.spec import bound, check_bounds
from repro.core.types import VMRequest
from repro.obs import names as metric_names
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.oversub.estimators import CapacityEstimator
from repro.oversub.monitor import ClusterUsageMonitor

__all__ = ["CapacityTarget", "OversubParams", "OversubSummary", "OversubController"]


class CapacityTarget(Protocol):
    """What the controller needs from an engine (structural port)."""

    def placements(self) -> Iterable[tuple[VMRequest, int]]:
        """(request, host index) for every live VM."""

    def physical_capacity(self) -> Sequence[float]:
        """Per-host physical CPU cores."""

    def allocated_capacity(self) -> Sequence[float]:
        """Per-host reserved CPU cores."""

    def apply_effective_capacity(self, eff: np.ndarray) -> None:
        """Install the per-host effective capacities."""


@dataclass(frozen=True)
class OversubParams:
    """Configuration of the dynamic-oversubscription loop.

    Each update observes the window since the previous one
    (back-to-back windows of ``update_every`` seconds).
    """

    estimator: CapacityEstimator
    update_every: float = bound(0, open_low=True, default=1800.0)
    samples_per_window: int = bound(1, default=16)

    def __post_init__(self) -> None:
        check_bounds(self)

    def build_controller(
        self, metrics: MetricsRegistry = NULL_METRICS
    ) -> "OversubController":
        monitor = ClusterUsageMonitor(
            window=self.update_every, samples_per_window=self.samples_per_window
        )
        return OversubController(
            estimator=self.estimator,
            monitor=monitor,
            update_every=self.update_every,
            metrics=metrics,
        )


@dataclass(frozen=True)
class OversubSummary:
    """End-of-run ledger of one controller's activity."""

    strategy: str
    updates: int
    host_windows: int
    violations: int
    eff_ratio_mean: float

    @property
    def violation_rate(self) -> float:
        """Violating host-windows as a fraction of all host-windows."""
        if self.host_windows == 0:
            return 0.0
        return self.violations / self.host_windows

    def to_dict(self) -> dict[str, float | int | str]:
        return {
            "strategy": self.strategy,
            "updates": self.updates,
            "host_windows": self.host_windows,
            "violations": self.violations,
            "violation_rate": self.violation_rate,
            "eff_ratio_mean": self.eff_ratio_mean,
        }


@dataclass
class OversubController:
    """Drives estimator updates against an engine's :class:`CapacityTarget`."""

    estimator: CapacityEstimator
    monitor: ClusterUsageMonitor
    update_every: float = bound(0, open_low=True, default=1800.0)
    metrics: MetricsRegistry = NULL_METRICS
    updates: int = field(default=0, init=False)
    host_windows: int = field(default=0, init=False)
    violations: int = field(default=0, init=False)
    _eff_ratio_sum: float = field(default=0.0, init=False)

    def __post_init__(self) -> None:
        check_bounds(self)
        self.estimator.reset()

    def advance(self, target: CapacityTarget, now: float) -> None:
        """Run every update instant due at or before ``now``.

        Updates fire at exact multiples of ``update_every`` (the k-th at
        ``k × update_every``, not a running sum) regardless of the event
        cadence, so the observation grid is identical across policies
        and kernels.
        """
        while now >= (due := (self.updates + 1) * self.update_every):
            self._update(target, due)

    def _update(self, target: CapacityTarget, time: float) -> None:
        windows = self.monitor.windows(
            target.placements(),
            target.physical_capacity(),
            target.allocated_capacity(),
            time,
        )
        eff = self.estimator.effective_capacities(windows)
        powered = windows.physical > 0
        physical = windows.physical[powered]
        counted = int(physical.size)
        breach = windows.peak_demand[powered] > physical
        violations = int(np.count_nonzero(breach))
        # Summed left to right like the per-host loop this replaces: pairwise
        # np.sum or a compensated sum() would move eff_ratio_mean's last bit.
        ratios = np.add.accumulate(eff[powered] / physical)
        ratio_sum = float(ratios[-1]) if counted else 0.0
        target.apply_effective_capacity(eff)
        self.updates += 1
        self.host_windows += counted
        self.violations += violations
        self._eff_ratio_sum += ratio_sum
        if self.metrics.enabled:
            self.metrics.counter(metric_names.OVERSUB_UPDATES).inc()
            self.metrics.counter(metric_names.OVERSUB_HOST_WINDOWS).inc(counted)
            if violations:
                self.metrics.counter(metric_names.OVERSUB_VIOLATIONS).inc(violations)
            if counted:
                self.metrics.histogram(metric_names.OVERSUB_EFF_RATIO).observe(
                    ratio_sum / counted
                )
            self.metrics.gauge(metric_names.OVERSUB_EFF_CPU_TOTAL).set(
                float(eff.sum())
            )

    def summary(self) -> OversubSummary:
        mean = float(
            self._eff_ratio_sum / self.host_windows if self.host_windows else 1.0
        )
        return OversubSummary(
            strategy=self.estimator.name,
            updates=self.updates,
            host_windows=self.host_windows,
            violations=self.violations,
            eff_ratio_mean=mean,
        )
