"""Dynamic oversubscription levels (paper §VIII future work).

A static vNode at level ``n:1`` always reserves ``ceil(vcpus / n)``
CPUs — the worst case where every hosted vCPU runs flat out.  A
*dynamic* vNode instead reserves enough CPUs for the *predicted peak
demand* of its VMs (never less than what a configured maximum ratio
allows), letting a lightly-used vNode shrink below its static
reservation and the PM admit more VMs.

Premium 1:1 vNodes are never dynamic: their selling point is the
worst-case guarantee.  Oversubscribed levels float between their sold
ratio (the reservation can only shrink, ``required <= ceil(v / n)``)
and a configured ``max_ratio`` cap (the reservation never drops below
``ceil(v / max_ratio)``, bounding contention even under mispredicted
load).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.config import SlackVMConfig
from repro.core.errors import CapacityError, ConfigError
from repro.core.types import VMRequest
from repro.hardware.machine import MachineSpec
from repro.simulator.engine import PlacementRecord, SimulationResult, run_events
from repro.simulator.vectorpool import VectorBackend, VectorCluster
from repro.dynamiclevels.predictor import analytic_peak_demand

__all__ = ["DynamicLevelParams", "DynamicLevelCluster", "DynamicLevelSimulation"]


@dataclass(frozen=True)
class DynamicLevelParams:
    """Knobs of the dynamic-level extension."""

    #: Hard cap on the effective oversubscription ratio: a vNode never
    #: reserves fewer CPUs than ``ceil(vcpus / max_ratio)``.
    max_ratio: float = 5.0
    #: Safety margin applied to predicted per-VM peaks.
    safety: float = 1.2

    def __post_init__(self) -> None:
        if self.max_ratio < 1:
            raise ConfigError(f"max_ratio must be >= 1, got {self.max_ratio}")
        if self.safety < 1:
            raise ConfigError(f"safety must be >= 1, got {self.safety}")


class DynamicLevelCluster(VectorCluster):
    """A :class:`VectorCluster` whose oversubscribed vNodes size by
    predicted peak demand instead of the static worst case."""

    def __init__(
        self,
        machines: Sequence[MachineSpec],
        config: SlackVMConfig,
        params: DynamicLevelParams | None = None,
    ):
        super().__init__(machines, config)
        self.params = params or DynamicLevelParams()
        # Predicted peak CPU demand per (level, host), in cores.
        self.peak_demand = np.zeros_like(self.vnode_vcpus)

    # -- sizing rule ---------------------------------------------------------

    def _required_cpus(self, li: int, host: int, vcpus: float, peak: float) -> float:
        """CPUs a vNode must own for ``vcpus`` exposed and ``peak`` predicted."""
        if vcpus == 0:
            return 0.0
        ratio = self.ratios[li]
        if ratio <= 1:
            # Premium stays worst-case: 1 CPU per vCPU.
            return float(math.ceil(vcpus / ratio))
        static = math.ceil(vcpus / ratio)
        floor = math.ceil(vcpus / self.params.max_ratio)
        predicted = math.ceil(peak)
        return float(min(static, max(floor, predicted)))

    # -- overridden admission/accounting --------------------------------------

    def feasibility(self, vm: VMRequest):
        li = self._vm_level_index(vm)
        v = vm.spec.vcpus
        m = vm.spec.mem_gb
        peak = analytic_peak_demand(vm, self.params.safety)
        free_mem = self.cap_mem - self.alloc_mem
        own_mem_ok = m / self.mem_ratios[li] <= free_mem + 1e-9
        n = self.num_hosts
        growth = np.empty(n)
        for host in range(n):
            required = self._required_cpus(
                li, host, self.vnode_vcpus[li, host] + v,
                self.peak_demand[li, host] + peak,
            )
            growth[host] = max(0.0, required - self.vnode_cpus[li, host])
        own_ok = own_mem_ok & (growth <= self.cap_cpu - self.alloc_cpu)
        feasible = own_ok.copy()
        if self.config.pooling and vm.level.ratio > 1:
            stricter = (self.ratios > 1) & (self.ratios < vm.level.ratio)
            if stricter.any():
                slack = (
                    self.vnode_cpus[stricter] * self.ratios[stricter, None]
                    - self.vnode_vcpus[stricter]
                )
                mem_ok = (
                    m / self.mem_ratios[stricter, None] <= free_mem[None, :] + 1e-9
                )
                feasible |= ((slack >= v) & mem_ok).any(axis=0)
        return feasible, growth, own_ok

    # The inherited short-cuts (shape cache, candidate-mask block scan)
    # assume static-level feasibility; select from the tables above.

    def first_feasible(self, vm: VMRequest) -> Optional[int]:
        feasible, _growth, _own = self.feasibility(vm)
        return int(np.argmax(feasible)) if feasible.any() else None

    def select(self, vm: VMRequest, policy: str) -> Optional[int]:
        return self._select_uncached(vm, policy)

    def deploy(self, vm: VMRequest, host: int) -> PlacementRecord:
        li = self._vm_level_index(vm)
        v = vm.spec.vcpus
        m = vm.spec.mem_gb
        peak = analytic_peak_demand(vm, self.params.safety)
        if vm.vm_id in self._placements:
            raise CapacityError(f"VM {vm.vm_id} already placed")
        free_mem = self.cap_mem[host] - self.alloc_mem[host]
        required = self._required_cpus(
            li, host, self.vnode_vcpus[li, host] + v,
            self.peak_demand[li, host] + peak,
        )
        growth = max(0.0, required - self.vnode_cpus[li, host])
        own_mem = m / self.mem_ratios[li]
        if (
            growth <= self.cap_cpu[host] - self.alloc_cpu[host]
            and own_mem <= free_mem + 1e-9
        ):
            self.vnode_cpus[li, host] += growth
            self.vnode_vcpus[li, host] += v
            self.peak_demand[li, host] += peak
            self.alloc_cpu[host] += growth
            self.alloc_mem[host] += own_mem
            self._placements[vm.vm_id] = (host, li, v, m)
            self._requests[vm.vm_id] = vm
            self.invalidate(host)  # arrays edited in place: caches + running totals
            return PlacementRecord(vm.vm_id, host, vm.level.ratio, pooled=False)
        if self.config.pooling and vm.level.ratio > 1:
            best = None
            for lj in range(len(self.ratios)):
                rj = self.ratios[lj]
                if not (1 < rj < vm.level.ratio):
                    continue
                slack = self.vnode_cpus[lj, host] * rj - self.vnode_vcpus[lj, host]
                if (
                    slack >= v
                    and m / self.mem_ratios[lj] <= free_mem + 1e-9
                    and (best is None or rj > self.ratios[best])
                ):
                    best = lj
            if best is not None:
                self.vnode_vcpus[best, host] += v
                self.peak_demand[best, host] += peak
                self.alloc_mem[host] += m / self.mem_ratios[best]
                self._placements[vm.vm_id] = (host, best, v, m)
                self._requests[vm.vm_id] = vm
                self.invalidate(host)
                return PlacementRecord(
                    vm.vm_id, host, float(self.ratios[best]), pooled=True
                )
        raise CapacityError(f"host {host} cannot take VM {vm.vm_id}")

    def remove(self, vm_id: str) -> None:
        try:
            host, li, v, m = self._placements.pop(vm_id)
        except KeyError:
            raise CapacityError(f"VM {vm_id} is not placed") from None
        vm = self._requests.pop(vm_id)
        peak = analytic_peak_demand(vm, self.params.safety)
        self.vnode_vcpus[li, host] -= v
        self.peak_demand[li, host] = max(0.0, self.peak_demand[li, host] - peak)
        if self.vnode_vcpus[li, host] == 0:
            self.peak_demand[li, host] = 0.0  # guard against float drift
        required = self._required_cpus(
            li, host, self.vnode_vcpus[li, host], self.peak_demand[li, host]
        )
        release = self.vnode_cpus[li, host] - required
        if release > 0:
            self.vnode_cpus[li, host] = required
            self.alloc_cpu[host] -= release
        self.alloc_mem[host] -= m / self.mem_ratios[li]
        if self.alloc_mem[host] < 1e-9:
            self.alloc_mem[host] = 0.0
        self.invalidate(host)


class DynamicLevelSimulation:
    """Drive a workload through a :class:`DynamicLevelCluster`.

    Mirrors :class:`~repro.simulator.vectorpool.VectorSimulation` and is
    compatible with the sizing search's ``simulation_factory`` hook.
    """

    def __init__(
        self,
        machines: Sequence[MachineSpec],
        config: SlackVMConfig | None = None,
        policy: str = "progress",
        fail_fast: bool = False,
        params: DynamicLevelParams | None = None,
    ):
        self.machines = list(machines)
        self.config = config or SlackVMConfig()
        self.policy = policy
        self.fail_fast = fail_fast
        self.params = params or DynamicLevelParams()

    def run(self, workload: list[VMRequest]) -> SimulationResult:
        cluster = DynamicLevelCluster(self.machines, self.config, self.params)
        return run_events(
            VectorBackend(cluster, self.policy), workload, fail_fast=self.fail_fast
        )
