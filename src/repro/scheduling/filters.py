"""Hard-constraint filters of the score-based scheduler pipeline.

Mirrors the filter stage of OpenStack Nova / Borg / Protean (§II-B):
each filter eliminates hosts that *cannot* take the deployment; the
surviving candidates are then scored by the weighers.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.core.types import VMRequest
from repro.localsched.agent import LocalScheduler

__all__ = ["HostFilter", "LevelSupportFilter", "CapacityFilter"]


class HostFilter(ABC):
    """One hard constraint: keep a host iff :meth:`passes`."""

    @abstractmethod
    def passes(self, host: LocalScheduler, vm: VMRequest) -> bool:
        """Whether ``host`` may receive ``vm``."""

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return type(self).__name__


class LevelSupportFilter(HostFilter):
    """Host must offer the VM's oversubscription level.

    This is what separates dedicated clusters (each PM configured with
    one level) from SlackVM's shared cluster (all levels everywhere).
    """

    def passes(self, host: LocalScheduler, vm: VMRequest) -> bool:
        return host.supports(vm.level)


class CapacityFilter(HostFilter):
    """Host must actually fit the VM (vNode growth/pooling feasibility)."""

    def passes(self, host: LocalScheduler, vm: VMRequest) -> bool:
        return host.can_deploy(vm)
