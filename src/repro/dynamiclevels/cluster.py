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

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.config import SlackVMConfig
from repro.core.errors import ConfigError
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
        # Negated so that NaN fails too.
        if not self.max_ratio >= 1:
            raise ConfigError(f"max_ratio must be >= 1, got {self.max_ratio}")
        if not self.safety >= 1:
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

    # -- sizing rule (the one thing this variant replaces) --------------------

    def _required_cpus_rows(self, li, sel, vcpus, vm: Optional[VMRequest]):
        """CPUs the level-``li`` vNodes of the hosts in ``sel`` must own
        for ``vcpus`` exposed, given their predicted peak (``vm``, when
        not None, is an arrival already counted in ``vcpus``)."""
        ratio = self.ratios[li]
        static = np.ceil(vcpus / ratio)
        if ratio <= 1:
            # Premium stays worst-case: 1 CPU per vCPU.
            return static
        peak = self.peak_demand[li, sel]
        if vm is not None:
            peak = peak + analytic_peak_demand(vm, self.params.safety)
        floor = np.ceil(vcpus / self.params.max_ratio)
        return np.minimum(static, np.maximum(floor, np.ceil(peak)))

    def _required_cpus(self, li: int, host: int, vcpus: float, vm: Optional[VMRequest]) -> float:
        return float(self._required_cpus_rows(li, host, vcpus, vm))

    # -- peak ledger, kept around the inherited accounting ---------------------

    def deploy(self, vm: VMRequest, host: int) -> PlacementRecord:
        record = super().deploy(vm, host)
        li = self._placements[vm.vm_id][1]  # hosting level: own, or pooled into
        self.peak_demand[li, host] += analytic_peak_demand(vm, self.params.safety)
        return record

    def remove(self, vm_id: str) -> None:
        vm = self.request_of(vm_id)  # CapacityError when not placed
        host, li, v, _m = self._placements[vm_id]
        left = self.peak_demand[li, host] - analytic_peak_demand(vm, self.params.safety)
        # An emptied vNode predicts nothing (guards against float drift).
        self.peak_demand[li, host] = max(0.0, left) if self.vnode_vcpus[li, host] > v else 0.0
        super().remove(vm_id)  # sizes the shrunk vNode from the updated ledger

    # The inherited shape cache assumes static sizing: its key does not
    # carry a VM's predicted peak.  Select from the full tables instead.
    # (The inherited first-fit block scan is exact: it sizes through
    # ``_required_cpus_rows``.)

    def select(self, vm: VMRequest, policy: str) -> Optional[int]:
        return self._select_uncached(vm, policy)


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
