"""Application latency models (the DeathStarBench/wrk2 substitute).

The paper probes co-hosting quality with an interactive micro-service
application driven open-loop and reports per-window 90th-percentile
response times.  We reproduce the measurement with a two-part model per
interactive VM:

* **within-capacity queueing** — while the VM's offered load fits its
  effective capacity (vCPUs × achieved speed), response times follow an
  M/M/1-style sojourn whose p90 grows as ``1 / (1 - rho)``;
* **overload backlog** — when contention pushes effective capacity
  below the offered load, unfinished work accumulates in a Lindley
  queue and response times grow by the backlog drain time.

The *effective speed* of a VM's vCPUs is the product of its fair-share
slowdown (time-slice contention in its CPU set), an SMT co-residency
penalty (a thread sharing a busy physical core runs slower), and a
PM-level interference term (memory bandwidth / uncore pressure from
neighbouring vNodes).  Response-time samples are aggregated into fixed
windows; the p90 of each window is the unit the paper plots (Fig. 2)
and summarizes (Table IV).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.errors import ConfigError
from repro.core.spec import bound, check_bounds

__all__ = ["LatencyParams", "LatencyTracker", "percentile_windows"]

#: p90 of an exponential sojourn is ln(10) mean sojourns.
_LN10 = math.log(10.0)


@dataclass(frozen=True)
class LatencyParams:
    """Calibration constants of the latency model."""

    #: Base CPU service demand per request, in seconds (≈0.4 ms for the
    #: social-network app's lightweight endpoints).
    service_time: float = bound(0, open_low=True, default=4.2e-4)
    #: Speed loss of a thread running on a co-loaded SMT pair: the pair
    #: delivers ``smt_speedup`` total, so each sibling runs at roughly
    #: ``smt_speedup / 2`` of a full core.
    smt_latency_penalty: float = bound(0, default=0.35)
    #: PM-wide interference coefficient (shared memory/uncore paths).
    interference: float = bound(0, default=0.15)
    #: Window length (seconds) over which p90s are computed (wrk2-style).
    window: float = bound(0, open_low=True, default=30.0)
    #: Utilisation clamp for the M/M/1 term (keeps samples finite; the
    #: Lindley backlog handles true overload).
    rho_max: float = bound(0, 1, open_low=True, open_high=True, default=0.95)
    #: Pool-size exponent of the shared-queue term: a pool of ``c``
    #: cores at utilisation ``rho`` delays requests like a single server
    #: at ``rho ** (c ** pool_exponent)`` — large machines absorb load
    #: that saturates a small pinned vNode (square-root-staffing-style
    #: economy of scale).
    pool_exponent: float = bound(0, default=0.25)

    def __post_init__(self) -> None:
        check_bounds(self)


@dataclass
class LatencyTracker:
    """Per-VM response-time tracker (one interactive VM)."""

    params: LatencyParams
    vm_id: str
    vcpus: int
    rng: np.random.Generator
    backlog: float = 0.0  # outstanding CPU work, in core-seconds
    samples: list[float] = field(default_factory=list)
    sample_times: list[float] = field(default_factory=list)

    def observe(
        self,
        t: float,
        dt: float,
        demand: float,
        slowdown: float,
        smt_pressure: float,
        pm_utilization: float,
        pool_utilization: float = 0.0,
        pool_size: int = 1,
    ) -> None:
        """Advance one tick and record a response-time sample.

        ``demand`` is the VM's offered load in core-seconds per second;
        ``slowdown`` its fair-share grant ratio in its contention group;
        ``pool_utilization``/``pool_size`` describe the group's CPU set
        (utilisation against max deliverable throughput, physical core
        count).
        """
        p = self.params
        speed = (
            max(slowdown, 1e-6)
            / (1.0 + p.smt_latency_penalty * smt_pressure)
            / (1.0 + p.interference * pm_utilization)
        )
        capacity = self.vcpus * speed  # core-seconds/s the VM can consume
        lam = demand * dt / p.service_time
        arrivals = self.rng.poisson(lam) if lam > 0 else 0
        work_in = arrivals * p.service_time
        queue_before = self.backlog
        self.backlog = max(0.0, self.backlog + work_in - capacity * dt)
        if arrivals == 0:
            return
        wait = queue_before / capacity
        rho_vm = demand / capacity
        # Shared-queue contribution of the (possibly saturated) CPU set:
        # economy of scale makes big pools forgiving, small vNodes harsh.
        rho_pool = min(pool_utilization, p.rho_max) ** (
            max(pool_size, 1) ** p.pool_exponent
        )
        rho = min(max(rho_vm, rho_pool), p.rho_max)
        sojourn_p90 = (p.service_time / speed) * _LN10 / (1.0 - rho)
        self.samples.append(wait + sojourn_p90)
        self.sample_times.append(t)

    def window_p90s(self) -> np.ndarray:
        """p90 of response times per window (the paper's plotted unit)."""
        return percentile_windows(
            np.asarray(self.sample_times),
            np.asarray(self.samples),
            self.params.window,
            90.0,
        )


def percentile_windows(
    times: np.ndarray, values: np.ndarray, window: float, q: float
) -> np.ndarray:
    """Per-window percentile of a timestamped series.

    Vectorized grouped percentile (linear interpolation, matching
    ``np.percentile``'s default method): one sort instead of one
    ``np.percentile`` call per window — this is a profiled hot spot of
    the testbed harness.
    """
    if len(times) == 0:
        return np.array([])
    if len(times) != len(values):
        raise ConfigError("times and values must have the same length")
    idx = np.floor(np.asarray(times) / window).astype(int)
    values = np.asarray(values, dtype=float)
    # Sort by (window, value): each window becomes a sorted slice.
    order = np.lexsort((values, idx))
    idx_sorted = idx[order]
    val_sorted = values[order]
    # Slice boundaries per window.
    boundaries = np.flatnonzero(np.diff(idx_sorted)) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [len(val_sorted)]))
    counts = ends - starts
    # Linear-interpolated rank within each slice.
    virtual = (q / 100.0) * (counts - 1)
    lower = virtual.astype(int)
    frac = virtual - lower
    lo = val_sorted[starts + lower]
    hi = val_sorted[starts + np.minimum(lower + 1, counts - 1)]
    return lo + frac * (hi - lo)
