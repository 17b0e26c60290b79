"""Naive reference kernel for the vector engine (the pre-change hot path).

These are the original implementations of the
:class:`VectorCluster` hot-path methods — ``feasibility``/``scores``
(allocation-heavy: every call allocates fresh numpy temporaries and
recomputes every derived quantity cluster-wide) and
``deploy``/``remove`` (numpy-scalar accounting with no cache
bookkeeping).  They are retained verbatim as the *oracle* for the
incremental kernel in :mod:`repro.simulator.vectorpool`:

* the kernel-equivalence property suite
  (``tests/simulator/test_kernel_equivalence.py``) asserts the
  incremental kernel's outputs equal these element-wise on random
  cluster states, and
* ``benchmarks/test_engine_kernel_speedup.py`` runs both kernels side
  by side, so the incremental kernel's speedup is measured against
  this exact code.

Both functions read only the cluster's raw state arrays (``cap_*``,
``alloc_*``, ``vnode_*``, ``supported``) — never the incremental
caches — so they stay valid even if the caches are stale.

Do not "optimize" this module: its value is that it does not change.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.errors import CapacityError, ConfigError
from repro.core.types import VMRequest
from repro.obs.records import AdmissionRecord
from repro.scheduling.constants import (
    BESTFIT_BLEND,
    CAPACITY_EPSILON,
    TIEBREAK_WEIGHT,
)

__all__ = ["naive_feasibility", "naive_scores", "naive_deploy", "naive_remove"]


def naive_feasibility(
    cluster, vm: VMRequest
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cluster-wide admission data for ``vm`` (original implementation).

    Returns freshly-allocated ``(feasible, growth, own_ok)`` arrays with
    the same semantics as :meth:`VectorCluster.feasibility`.
    """
    li = cluster._vm_level_index(vm)
    r = cluster.ratios[li]
    v = vm.spec.vcpus
    m = vm.spec.mem_gb
    free_mem = cluster.cap_mem - cluster.alloc_mem
    own_mem_ok = m / cluster.mem_ratios[li] <= free_mem + CAPACITY_EPSILON
    required = np.ceil((cluster.vnode_vcpus[li] + v) / r)
    growth = np.maximum(0.0, required - cluster.vnode_cpus[li])
    own_ok = (
        cluster.supported[li]
        & own_mem_ok
        & (growth <= cluster.cap_cpu - cluster.alloc_cpu)
    )
    feasible = own_ok.copy()
    if cluster.config.pooling and vm.level.ratio > 1:
        stricter = (cluster.ratios > 1) & (cluster.ratios < vm.level.ratio)
        if stricter.any():
            slack = (
                cluster.vnode_cpus[stricter] * cluster.ratios[stricter, None]
                - cluster.vnode_vcpus[stricter]
            )
            mem_ok = (
                m / cluster.mem_ratios[stricter, None]
                <= free_mem[None, :] + CAPACITY_EPSILON
            )
            # Pooling also requires the VM's own level to be part of
            # the host's offer (mirrors LocalScheduler.supports).
            pool_ok = (
                cluster.supported[li]
                & ((slack >= v) & mem_ok & cluster.supported[stricter]).any(axis=0)
            )
            feasible |= pool_ok
    return feasible, growth, own_ok


def naive_scores(cluster, vm: VMRequest, policy: str) -> np.ndarray:
    """Cluster-wide per-host scores (original implementation).

    Returns a freshly-allocated score array with the same semantics as
    :meth:`VectorCluster.scores` (higher is better).
    """
    n = cluster.num_hosts
    idx = np.arange(n, dtype=float)
    if policy == "first_fit":
        return -idx
    li = cluster._vm_level_index(vm)
    vm_cpu = vm.spec.vcpus / cluster.ratios[li]
    vm_mem = vm.spec.mem_gb / cluster.mem_ratios[li]
    if policy in ("best_fit", "worst_fit"):
        after_cpu = cluster.alloc_cpu + vm_cpu
        after_mem = cluster.alloc_mem + vm_mem
        free = (cluster.cap_cpu - after_cpu) / cluster.cap_cpu + (
            cluster.cap_mem - after_mem
        ) / cluster.cap_mem
        primary = -free if policy == "best_fit" else free
        return primary * 1.0 + TIEBREAK_WEIGHT * (-idx)
    if policy in ("progress", "progress_no_factor", "progress_bestfit"):
        target = cluster.cap_mem / cluster.cap_cpu
        busy = cluster.alloc_cpu > 0
        current = np.where(
            busy, cluster.alloc_mem / np.where(busy, cluster.alloc_cpu, 1.0), target
        )
        nxt = (cluster.alloc_mem + vm_mem) / (cluster.alloc_cpu + vm_cpu)
        progress = np.abs(current - target) - np.abs(nxt - target)
        if policy != "progress_no_factor":
            factor = 1.0 + cluster.alloc_cpu / cluster.cap_cpu
            progress = np.where(progress < 0, progress * factor, progress)
        if policy == "progress_bestfit":
            # The paper's suggested composition: the M/C incentive
            # alongside an existing packing rule (§VII-B2).
            after_cpu = cluster.alloc_cpu + vm_cpu
            after_mem = cluster.alloc_mem + vm_mem
            free = (cluster.cap_cpu - after_cpu) / cluster.cap_cpu + (
                cluster.cap_mem - after_mem
            ) / cluster.cap_mem
            return (
                progress * 1.0
                + BESTFIT_BLEND * (-free)
                + TIEBREAK_WEIGHT * (-idx)
            )
        return progress * 1.0 + TIEBREAK_WEIGHT * (-idx)
    from repro.simulator.vectorpool import POLICIES

    raise ConfigError(f"unknown policy {policy!r}; expected one of {POLICIES}")


def naive_deploy(cluster, vm: VMRequest, host: int):
    """Place ``vm`` on ``host`` (original implementation).

    Numpy-scalar reads and no cache bookkeeping — exactly the
    pre-change accounting, so ``kernel="naive"`` benchmarks measure
    the real baseline end to end.
    """
    from repro.simulator.engine import PlacementRecord

    li = cluster._vm_level_index(vm)
    r = cluster.ratios[li]
    v = vm.spec.vcpus
    m = vm.spec.mem_gb
    if vm.vm_id in cluster._placements:
        raise CapacityError(f"VM {vm.vm_id} already placed")
    free_mem = cluster.cap_mem[host] - cluster.alloc_mem[host]
    required = math.ceil((cluster.vnode_vcpus[li, host] + v) / r)
    growth = max(0.0, required - cluster.vnode_cpus[li, host])
    own_mem = m / cluster.mem_ratios[li]
    if not cluster.supported[li, host]:
        raise CapacityError(f"host {host} does not offer level {vm.level.name}")
    if (
        growth <= cluster.cap_cpu[host] - cluster.alloc_cpu[host]
        and own_mem <= free_mem + CAPACITY_EPSILON
    ):
        cluster.vnode_cpus[li, host] += growth
        cluster.vnode_vcpus[li, host] += v
        cluster.alloc_cpu[host] += growth
        cluster.alloc_mem[host] += own_mem
        cluster._placements[vm.vm_id] = (host, li, v, m)
        cluster._requests[vm.vm_id] = vm
        if cluster.recorder is not None and cluster.recorder.enabled:
            cluster.recorder.record_admission(
                AdmissionRecord(
                    vm_id=vm.vm_id,
                    host=cluster.machines[host].name,
                    hosted_ratio=vm.level.ratio,
                    growth=int(growth),
                    pooled=False,
                )
            )
        return PlacementRecord(vm.vm_id, host, vm.level.ratio, pooled=False)
    if cluster.config.pooling and vm.level.ratio > 1:
        # Loosest stricter oversubscribed vNode with enough slack
        # (mirrors LocalScheduler._pooling_candidate).
        best = None
        for lj in range(len(cluster.ratios)):
            rj = cluster.ratios[lj]
            if not (1 < rj < vm.level.ratio):
                continue
            slack = cluster.vnode_cpus[lj, host] * rj - cluster.vnode_vcpus[lj, host]
            if (
                cluster.supported[lj, host]
                and slack >= v
                and m / cluster.mem_ratios[lj] <= free_mem + CAPACITY_EPSILON
                and (best is None or rj > cluster.ratios[best])
            ):
                best = lj
        if best is not None:
            cluster.vnode_vcpus[best, host] += v
            cluster.alloc_mem[host] += m / cluster.mem_ratios[best]
            cluster._placements[vm.vm_id] = (host, best, v, m)
            cluster._requests[vm.vm_id] = vm
            if cluster.recorder is not None and cluster.recorder.enabled:
                cluster.recorder.record_admission(
                    AdmissionRecord(
                        vm_id=vm.vm_id,
                        host=cluster.machines[host].name,
                        hosted_ratio=float(cluster.ratios[best]),
                        growth=0,
                        pooled=True,
                    )
                )
            return PlacementRecord(
                vm.vm_id, host, float(cluster.ratios[best]), pooled=True
            )
    raise CapacityError(f"host {host} cannot take VM {vm.vm_id}")


def naive_remove(cluster, vm_id: str) -> None:
    """Remove a placed VM (original implementation)."""
    try:
        host, li, v, m = cluster._placements.pop(vm_id)
    except KeyError:
        raise CapacityError(f"VM {vm_id} is not placed") from None
    cluster._requests.pop(vm_id, None)
    r = cluster.ratios[li]
    cluster.vnode_vcpus[li, host] -= v
    required = (
        0.0
        if cluster.vnode_vcpus[li, host] == 0
        else math.ceil(cluster.vnode_vcpus[li, host] / r)
    )
    release = cluster.vnode_cpus[li, host] - required
    cluster.vnode_cpus[li, host] = required
    cluster.alloc_cpu[host] -= release
    cluster.alloc_mem[host] -= m / cluster.mem_ratios[li]
    if cluster.alloc_mem[host] < CAPACITY_EPSILON:
        cluster.alloc_mem[host] = 0.0
