"""Object-pipeline integration of the dynamic effective capacities.

The vector engine applies an estimator's output by overriding its
capacity arrays directly (``VectorCluster.set_effective_capacity``);
the reference engine composes through its Nova-style pipeline instead:

* :class:`EffectiveCapacityView` — the shared per-host effective
  capacity vector, keyed by machine name (filters see hosts, not
  indices);
* :class:`EffectiveCapacityFilter` — a hard constraint: the host's
  post-placement CPU reservation must fit its effective capacity.

The object path's :class:`~repro.localsched.agent.LocalScheduler`
allocates *physical* CPU slots, so on this path a dynamic capacity can
only **restrict** placement (effective below physical); admitting more
than physical requires the vector engine's capacity override.  With
``StaticRatio(1.0)`` the filter passes exactly when ``CapacityFilter``
does, leaving decisions untouched — the golden-trace identity the
conformance suite pins.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.core.constants import CAPACITY_EPSILON
from repro.core.errors import ConfigError
from repro.core.types import VMRequest
from repro.localsched.agent import LocalScheduler
from repro.scheduling.filters import HostFilter
from repro.scheduling.global_scheduler import ScoreBasedScheduler

__all__ = [
    "EffectiveCapacityView",
    "EffectiveCapacityFilter",
    "ObjectClusterTarget",
    "with_oversub",
]


class EffectiveCapacityView:
    """Mutable per-host effective CPU capacities, keyed by machine name.

    One instance is shared between the controller (which writes via
    :meth:`update`) and the filter (which reads per host).  Effective
    capacities start at physical.
    """

    def __init__(self, names: Sequence[str], physical: Sequence[float]):
        if len(names) != len(physical):
            raise ConfigError(
                f"{len(names)} host names for {len(physical)} capacities"
            )
        if len(set(names)) != len(names):
            raise ConfigError("host machine names must be unique")
        self._index = {name: i for i, name in enumerate(names)}
        self.physical = np.asarray(physical, dtype=float)
        self.effective = self.physical.copy()

    def update(self, eff: np.ndarray) -> None:
        eff = np.asarray(eff, dtype=float)
        if eff.shape != self.effective.shape:
            raise ConfigError(
                f"expected {self.effective.shape} capacities, got {eff.shape}"
            )
        self.effective[:] = eff

    def effective_for(self, name: str) -> float:
        return float(self.effective[self._index[name]])


class EffectiveCapacityFilter(HostFilter):
    """Host passes iff the placement's CPU reservation fits its
    effective capacity.

    Uses the host's own non-mutating :meth:`~LocalScheduler.plan` for
    the exact vNode growth the deployment would cause, so the check
    matches the engine's admission accounting (pooled placements grow
    nothing and pass whenever the current reservation fits).
    """

    def __init__(self, view: EffectiveCapacityView):
        self.view = view

    def passes(self, host: LocalScheduler, vm: VMRequest) -> bool:
        plan = host.plan(vm)
        if plan is None:
            # Physically infeasible; CapacityFilter rejects it too.
            return False
        eff = self.view.effective_for(host.machine.name)
        after = host.allocated_cpus + plan.growth
        return after <= eff + CAPACITY_EPSILON


class ObjectClusterTarget:
    """:class:`~repro.oversub.controller.CapacityTarget` over the
    reference engine's hosts.

    The engine's run loop maintains :attr:`live` (vm id -> (request,
    host index)) as VMs arrive and depart; the controller reads it at
    each update instant.
    """

    def __init__(self, hosts: Sequence[LocalScheduler], view: EffectiveCapacityView):
        self.hosts = list(hosts)
        self.view = view
        self.live: dict[str, tuple[VMRequest, int]] = {}

    def placements(self) -> Iterable[tuple[VMRequest, int]]:
        return self.live.values()

    def physical_capacity(self) -> Sequence[float]:
        return self.view.physical

    def allocated_capacity(self) -> Sequence[float]:
        return [float(h.allocated_cpus) for h in self.hosts]

    def apply_effective_capacity(self, eff: np.ndarray) -> None:
        self.view.update(eff)


def with_oversub(
    scheduler: ScoreBasedScheduler, view: EffectiveCapacityView
) -> ScoreBasedScheduler:
    """A copy of ``scheduler`` with :class:`EffectiveCapacityFilter`
    appended to its filter stage."""
    return ScoreBasedScheduler(
        filters=(*scheduler.filters, EffectiveCapacityFilter(view)),
        weighers=scheduler.weighers,
        name=f"{scheduler.name}+oversub",
    )
