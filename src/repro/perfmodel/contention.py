"""Tick-based CPU contention model for a pinned CPU set.

A :class:`ContentionGroup` couples one CPU set (a vNode's pinned
threads, or a whole PM in the dedicated baseline) with the VMs running
inside it.  Each tick it evaluates every VM's demand, the SMT-aware
deliverable throughput of the set, and the EEVDF fair-share allocation,
yielding per-VM slowdowns and the group's SMT pressure — the raw
signals the latency model consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.errors import ConfigError
from repro.core.spec import check_real
from repro.core.types import VMRequest
from repro.perfmodel.fairshare import weighted_water_fill
from repro.perfmodel.smt import CpuSetCapacity
from repro.workload.usage import IdleProfile, StressProfile, UsageProfile, profile_for

__all__ = ["GroupMember", "GroupTick", "ContentionGroup"]


@dataclass(frozen=True)
class GroupMember:
    """One VM inside a contention group."""

    vm: VMRequest
    profile: UsageProfile

    @classmethod
    def from_request(cls, vm: VMRequest, phase: float = 0.0) -> "GroupMember":
        return cls(vm=vm, profile=profile_for(vm.usage_kind, vm.usage_param, phase))


@dataclass(frozen=True)
class GroupTick:
    """Outcome of one tick for a group."""

    demands: np.ndarray  # core-seconds/s demanded per VM
    allocations: np.ndarray  # core-seconds/s granted per VM
    smt_pressure: float  # fraction of work on co-loaded sibling pairs
    utilization: float  # delivered / max deliverable throughput

    @property
    def slowdowns(self) -> np.ndarray:
        """Granted/demanded per VM (1 when undemanding)."""
        out = np.ones_like(self.demands)
        busy = self.demands > 0
        out[busy] = self.allocations[busy] / self.demands[busy]
        return out

    @property
    def total_allocation(self) -> float:
        return float(self.allocations.sum())


class ContentionGroup:
    """VMs sharing one pinned CPU set.

    With ``noise_sigma > 0`` each member's demand is modulated by a
    mean-one lognormal AR(1) process (burstiness around the profile's
    deterministic signal), which is what spreads the per-window p90
    distributions of Fig. 2.
    """

    #: Lag-one autocorrelation of the demand noise.
    noise_rho = 0.9

    def __init__(
        self,
        capacity: CpuSetCapacity,
        members: Sequence[GroupMember],
        rng: np.random.Generator | None = None,
        noise_sigma: float = 0.0,
    ):
        if not members:
            raise ConfigError("a contention group needs at least one member")
        self._sigma = check_real("noise_sigma", noise_sigma, 0.0)
        if self._sigma > 0 and rng is None:
            raise ConfigError("demand noise requires an rng")
        self.capacity = capacity
        self.members = list(members)
        self._vcpus = np.array([m.vm.spec.vcpus for m in self.members], dtype=float)
        self._rng = rng
        self._noise_state = np.zeros(len(self.members))
        # Fast path: profiles with time-constant demand (idle/stress are
        # the majority of a Cloud mix) are evaluated once.
        self._constant = np.zeros(len(self.members))
        self._varying: list[int] = []
        for i, m in enumerate(self.members):
            if isinstance(m.profile, (IdleProfile, StressProfile)):
                self._constant[i] = m.profile.demand(0.0) * m.vm.spec.vcpus
            else:
                self._varying.append(i)

    def demands_at(self, t: float) -> np.ndarray:
        out = self._constant.copy()
        for i in self._varying:
            m = self.members[i]
            out[i] = m.profile.demand(t) * m.vm.spec.vcpus
        return out

    def _noise_multipliers(self) -> np.ndarray:
        if self._sigma == 0.0:
            return np.ones(len(self.members))
        innovation = self._rng.normal(size=len(self.members))
        self._noise_state = (
            self.noise_rho * self._noise_state
            + math.sqrt(1.0 - self.noise_rho**2) * self._sigma * innovation
        )
        # exp(x - sigma^2/2) has mean 1 for x ~ N(0, sigma^2).
        return np.exp(self._noise_state - self._sigma**2 / 2.0)

    def step(self, t: float) -> GroupTick:
        """Evaluate contention at time ``t``."""
        demands = self.demands_at(t) * self._noise_multipliers()
        np.minimum(demands, self._vcpus, out=demands)
        total = float(demands.sum())
        deliverable = self.capacity.deliverable(total)
        if total <= deliverable:
            alloc = demands.copy()
        else:
            # EEVDF: per-thread fairness => weight by vCPU count.
            alloc = weighted_water_fill(demands, self._vcpus, deliverable)
        return GroupTick(
            demands=demands,
            allocations=alloc,
            smt_pressure=self.capacity.smt_pressure(total),
            utilization=min(1.0, total / self.capacity.max_throughput),
        )
