"""EEVDF-like fair CPU sharing (water-filling).

The Linux scheduler (EEVDF, §V-B) "equitably shares CPU time-slices
among processes".  At the granularity of our tick model this is the
classic progressive-filling allocation: every runnable vCPU receives
capacity up to a common water level θ chosen so the pool capacity is
exactly consumed; VMs demanding less than θ per unit weight keep their
full demand.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import ConfigError

__all__ = ["weighted_water_fill"]


def weighted_water_fill(
    demands: np.ndarray, weights: np.ndarray, capacity: float
) -> np.ndarray:
    """Progressive filling with per-consumer weights.

    Weight ``w_i`` is the consumer's share entitlement (we use its vCPU
    count: EEVDF schedules per-thread, so a VM with more runnable vCPU
    threads draws a proportionally larger share; unit weights give the
    equal-weight case).  Solves ``sum(min(d_i, theta * w_i)) = capacity``
    and returns ``min(d_i, theta * w_i)``; when total demand fits,
    everyone gets their demand.
    """
    demands = np.asarray(demands, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if demands.shape != weights.shape:
        raise ConfigError("demands and weights must have the same shape")
    if np.any(demands < 0) or np.any(weights <= 0):
        raise ConfigError("demands must be >= 0 and weights > 0")
    if capacity < 0:
        raise ConfigError(f"capacity must be >= 0, got {capacity}")
    total = demands.sum()
    if total <= capacity or demands.size == 0:
        return demands.copy()
    if capacity == 0:
        return np.zeros_like(demands)
    # Sort by saturation level d_i / w_i: consumers saturate in this order.
    ratio = demands / weights
    order = np.argsort(ratio, kind="stable")
    d = demands[order]
    w = weights[order]
    r = ratio[order]
    # After consumer k saturates, remaining capacity splits by weight.
    cum_d = np.cumsum(d)
    cum_w = np.cumsum(w)
    total_w = cum_w[-1]
    # theta candidates: used = cum_d[k] + (total_w - cum_w[k]) * r[k]
    used_at = cum_d + (total_w - cum_w) * r
    k = int(np.searchsorted(used_at, capacity))
    if k == 0:
        theta = capacity / total_w
    else:
        theta = r[k - 1] + (capacity - used_at[k - 1]) / (total_w - cum_w[k - 1])
    alloc = np.minimum(demands, theta * weights)
    # Normalize float drift so the pool is exactly consumed.
    s = alloc.sum()
    if s > 0:
        alloc *= capacity / s
        alloc = np.minimum(alloc, demands)
    return alloc
