"""Soft-constraint weighers of the score-based scheduler pipeline.

Each weigher scores every surviving host (higher is better); the global
scheduler combines them with configurable weights, exactly like the
weigher stage of OpenStack Nova (§II-B).  SlackVM's contribution is
:class:`ProgressWeigher`, which plugs Algorithm 2 into this stage.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.core.types import VMRequest
from repro.localsched.agent import LocalScheduler
from repro.scheduling.progress import progress_score

__all__ = [
    "HostWeigher",
    "ProgressWeigher",
    "FirstFitWeigher",
    "BestFitWeigher",
    "WorstFitWeigher",
]


class HostWeigher(ABC):
    """One scoring rule applied to every filtered candidate host."""

    @abstractmethod
    def weigh(self, host: LocalScheduler, vm: VMRequest, index: int) -> float:
        """Score ``host`` for ``vm``; ``index`` is the host's stable rank
        in the cluster (used by order-dependent policies)."""

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return type(self).__name__


class ProgressWeigher(HostWeigher):
    """SlackVM's M/C progress metric (Algorithm 2)."""

    def __init__(self, negative_factor: bool = True):
        self.negative_factor = negative_factor

    def weigh(self, host: LocalScheduler, vm: VMRequest, index: int) -> float:
        return progress_score(
            host.machine.capacity,
            host.allocation(),
            vm.allocation(),
            negative_factor=self.negative_factor,
        )


class FirstFitWeigher(HostWeigher):
    """Prefer the lowest-ranked host that fits (the packing baseline)."""

    def weigh(self, host: LocalScheduler, vm: VMRequest, index: int) -> float:
        return float(-index)


class BestFitWeigher(HostWeigher):
    """Prefer the host left with the least normalized free capacity."""

    def weigh(self, host: LocalScheduler, vm: VMRequest, index: int) -> float:
        cap = host.machine.capacity
        after = host.allocation() + vm.allocation()
        free = (cap.cpu - after.cpu) / cap.cpu + (cap.mem - after.mem) / cap.mem
        return -free


class WorstFitWeigher(HostWeigher):
    """Prefer the emptiest host (load spreading, anti-packing)."""

    def weigh(self, host: LocalScheduler, vm: VMRequest, index: int) -> float:
        cap = host.machine.capacity
        after = host.allocation() + vm.allocation()
        return (cap.cpu - after.cpu) / cap.cpu + (cap.mem - after.mem) / cap.mem
