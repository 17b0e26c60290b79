"""Foundational value types shared by every repro subpackage.

The data model mirrors the paper's vocabulary:

* :class:`ResourceVector` — a (cpu, memory) pair; CPU is expressed in
  physical cores (possibly fractional, because an oversubscribed vNode
  consumes ``vcpus / level`` physical cores) and memory in GB.
* :class:`OversubscriptionLevel` — an ``n:1`` CPU oversubscription
  ratio, e.g. 2:1 exposes two vCPUs per physical core.
* :class:`VMSpec` — a VM flavor (vCPUs + memory).
* :class:`VMRequest` — a VM deployment request in a workload trace:
  flavor + oversubscription level + arrival/departure times + usage
  profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.core.errors import ConfigError
from repro.core.spec import bound, check_bounds

__all__ = [
    "ResourceVector",
    "OversubscriptionLevel",
    "LEVEL_1_1",
    "LEVEL_2_1",
    "LEVEL_3_1",
    "DEFAULT_LEVELS",
    "VMSpec",
    "VMRequest",
]


@dataclass(frozen=True, slots=True)
class ResourceVector:
    """A two-dimensional resource quantity: CPU cores and memory (GB).

    Supports elementwise arithmetic; used for machine capacities,
    allocations and free-capacity bookkeeping.
    """

    cpu: float
    mem: float

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(self.cpu + other.cpu, self.mem + other.mem)

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(self.cpu - other.cpu, self.mem - other.mem)

    def __mul__(self, k: float) -> "ResourceVector":
        return ResourceVector(self.cpu * k, self.mem * k)

    __rmul__ = __mul__

    @property
    def mc_ratio(self) -> float:
        """Memory-per-Core ratio (GB per physical core); inf when cpu == 0."""
        if self.cpu == 0:
            return math.inf
        return self.mem / self.cpu


@dataclass(frozen=True, slots=True, order=True)
class OversubscriptionLevel:
    """An ``n:1`` CPU oversubscription ratio, with optional memory
    oversubscription.

    ``ratio`` vCPUs may contend for each physical core.  The paper's
    evaluation never oversubscribes memory (§III-A hypothesis), which is
    the default ``mem_ratio`` of 1; its §VIII future work (and footnote
    2's OpenStack defaults of 16:1 CPU / 1.5:1 DRAM) motivate the
    optional ``mem_ratio``: a VM's physical memory reservation is
    ``mem_gb / mem_ratio``.  Levels are ordered by CPU ratio then memory
    ratio; a *lower* ratio is a stricter (more premium) guarantee.
    """

    ratio: float = bound(1)
    mem_ratio: float = bound(1, default=1.0)

    def __post_init__(self) -> None:
        check_bounds(self)

    @property
    def name(self) -> str:
        def fmt(r: float) -> str:
            return f"{int(r)}:1" if float(r).is_integer() else f"{r:g}:1"

        if self.mem_ratio == 1.0:
            return fmt(self.ratio)
        return f"{fmt(self.ratio)}(mem {fmt(self.mem_ratio)})"

    @property
    def is_premium(self) -> bool:
        """1:1 levels guarantee dedicated physical resources."""
        return self.ratio == 1 and self.mem_ratio == 1

    def physical_cores_for(self, vcpus: float) -> float:
        """Physical-core consumption of ``vcpus`` virtual CPUs at this level."""
        return vcpus / self.ratio

    def physical_mem_for(self, mem_gb: float) -> float:
        """Physical-memory reservation of ``mem_gb`` virtual GB."""
        return mem_gb / self.mem_ratio

    def satisfies(self, other: "OversubscriptionLevel") -> bool:
        """Whether hosting at *this* level honours a guarantee sold at
        ``other``'s level.

        Per §V-B: "no more than 2 vCPUs per physical core" satisfies
        "no more than 3 vCPUs per physical core" — a stricter (smaller)
        ratio satisfies a looser one, on both resource dimensions.
        """
        return self.ratio <= other.ratio and self.mem_ratio <= other.mem_ratio

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name


LEVEL_1_1 = OversubscriptionLevel(1.0)
LEVEL_2_1 = OversubscriptionLevel(2.0)
LEVEL_3_1 = OversubscriptionLevel(3.0)

#: The three levels used throughout the paper's evaluation (§VII).
DEFAULT_LEVELS: tuple[OversubscriptionLevel, ...] = (LEVEL_1_1, LEVEL_2_1, LEVEL_3_1)


@dataclass(frozen=True, slots=True)
class VMSpec:
    """A VM flavor: virtual CPU count and memory size in GB."""

    vcpus: int = bound(1)
    mem_gb: float = bound(0, open_low=True)

    def __post_init__(self) -> None:
        check_bounds(self)

    @property
    def mc_ratio(self) -> float:
        """Requested memory-per-vCPU ratio (GB per vCPU)."""
        return self.mem_gb / self.vcpus

    def allocation(self, level: OversubscriptionLevel) -> ResourceVector:
        """Physical resources consumed when hosted at ``level``.

        CPU is scaled down by the CPU oversubscription ratio and memory
        by the (default 1:1) memory oversubscription ratio.
        """
        return ResourceVector(
            level.physical_cores_for(self.vcpus),
            level.physical_mem_for(self.mem_gb),
        )


@dataclass(frozen=True, slots=True)
class VMRequest:
    """One VM lifecycle entry in a workload trace.

    ``arrival``/``departure`` are finite simulation timestamps in
    seconds; ``departure`` may be ``None`` for VMs that outlive the
    trace.  A NaN or infinite time is refused: it would break the
    event list's ordering.
    ``usage_kind`` tags the CPU behaviour used by the performance model
    (one of ``"idle"``, ``"stress"``, ``"interactive"``) and
    ``usage_param`` its intensity (utilisation for stress, requests/s
    for interactive workloads).
    """

    vm_id: str
    spec: VMSpec
    level: OversubscriptionLevel
    arrival: float = bound(0, default=0.0)
    departure: Optional[float] = bound(0, open_low=True, default=None)
    usage_kind: str = "stress"
    usage_param: float = bound(default=0.5)
    metadata: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        check_bounds(self)
        if self.departure is not None and self.departure <= self.arrival:
            raise ConfigError(
                f"departure ({self.departure}) must be after arrival ({self.arrival})"
            )

    @property
    def lifetime(self) -> float:
        if self.departure is None:
            return math.inf
        return self.departure - self.arrival

    def allocation(self) -> ResourceVector:
        """Physical resources consumed by this request at its own level."""
        return self.spec.allocation(self.level)

    def with_level(self, level: OversubscriptionLevel) -> "VMRequest":
        return replace(self, level=level)
