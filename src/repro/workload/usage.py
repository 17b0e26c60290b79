"""Per-VM CPU usage profiles (CloudFactory-style behaviour classes).

The physical experiment (§VII-A1) mixes three behaviours: 10 % idle
VMs, 60 % running a CPU benchmark (stress-ng), and 30 % interactive
micro-service applications probed for response time.  A profile maps
simulation time to the fraction of the VM's vCPUs it wants to run —
the demand signal consumed by :mod:`repro.perfmodel`.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from repro.core.errors import WorkloadError
from repro.core.spec import bound, check_bounds

__all__ = [
    "UsageProfile",
    "IdleProfile",
    "StressProfile",
    "InteractiveProfile",
    "profile_for",
    "diurnal_demand",
    "DEFAULT_BEHAVIOUR_SHARES",
    "INTERACTIVE_AMPLITUDE",
]

#: §VII-A1 behaviour mix: (idle, stress, interactive).
DEFAULT_BEHAVIOUR_SHARES: dict[str, float] = {
    "idle": 0.10,
    "stress": 0.60,
    "interactive": 0.30,
}

DAY_SECONDS = 86_400.0

#: Default diurnal amplitude of :class:`InteractiveProfile`.  Any
#: consumer that reasons about interactive peaks analytically must
#: import this constant instead of copying the value.
INTERACTIVE_AMPLITUDE = 0.5


class UsageProfile(ABC):
    """Maps time to demanded vCPU fraction in [0, 1].

    Subclasses are dataclasses whose bounded fields are checked here.
    """

    ERROR: ClassVar[type[WorkloadError]] = WorkloadError

    def __post_init__(self) -> None:
        check_bounds(self)

    @abstractmethod
    def demand(self, t: float) -> float:
        """Fraction of the VM's vCPUs demanded at time ``t``."""

    def demand_series(self, times: np.ndarray) -> np.ndarray:
        """Demand at every instant in ``times``, one :meth:`demand` call
        each: the per-VM reference the oversubscription monitor's
        :func:`diurnal_demand` matrix over every profile's ``wave`` must
        equal bit for bit."""
        return np.array([self.demand(float(t)) for t in np.asarray(times)])


@dataclass(frozen=True)
class IdleProfile(UsageProfile):
    """A nearly-idle VM (background OS noise only)."""

    floor: float = bound(0, 1, default=0.02)

    def demand(self, t: float) -> float:
        return self.floor

    @property
    def wave(self) -> tuple[float, float, float]:
        """As a :func:`diurnal_demand` wave: amplitude 0 around ``floor``."""
        return (self.floor, 0.0, 0.0)


@dataclass(frozen=True)
class StressProfile(UsageProfile):
    """stress-ng-like constant CPU load at a fixed utilisation."""

    utilization: float = bound(0, 1, default=0.5)

    def demand(self, t: float) -> float:
        return self.utilization

    @property
    def wave(self) -> tuple[float, float, float]:
        """As a :func:`diurnal_demand` wave: amplitude 0 around ``utilization``."""
        return (self.utilization, 0.0, 0.0)


@dataclass(frozen=True)
class InteractiveProfile(UsageProfile):
    """Interactive service with a diurnal load pattern.

    ``base`` is the mean utilisation; the demand oscillates daily with
    relative ``amplitude`` and a per-VM ``phase`` (users in different
    timezones), never exceeding 1.
    """

    base: float = bound(0, 1, open_low=True, default=0.35)
    amplitude: float = bound(0, 1, default=INTERACTIVE_AMPLITUDE)
    phase: float = bound(default=0.0)

    def demand(self, t: float) -> float:
        wave = 1.0 + self.amplitude * math.sin(2 * math.pi * (t / DAY_SECONDS + self.phase))
        return min(1.0, self.base * wave)

    @property
    def wave(self) -> tuple[float, float, float]:
        """``(base, amplitude, phase)``, the arguments of :func:`diurnal_demand`."""
        return (self.base, self.amplitude, self.phase)


def diurnal_demand(times, base, amplitude, phase) -> np.ndarray:
    """:class:`InteractiveProfile`'s demand at every instant in ``times``.

    ``base``/``amplitude``/``phase`` broadcast against ``times``:
    scalars give one VM's series, ``(vms × 1)`` columns give the whole
    ``(vms × samples)`` matrix in one expression (amplitude 0 is a flat
    profile at ``base``).  Same IEEE operations (and order) as
    :meth:`InteractiveProfile.demand`, so every form is bit-identical
    to the scalar path; ``math.pi == np.pi``.
    """
    t = np.asarray(times, dtype=float)
    wave = 1.0 + amplitude * np.sin(2 * math.pi * (t / DAY_SECONDS + phase))
    return np.minimum(1.0, base * wave)


def profile_for(kind: str, param: float, phase: float = 0.0) -> UsageProfile:
    """Instantiate the profile matching a trace's ``usage_kind`` tag."""
    if kind == "idle":
        return IdleProfile()
    if kind == "stress":
        return StressProfile(utilization=param)
    if kind == "interactive":
        return InteractiveProfile(base=param, phase=phase)
    raise WorkloadError(f"unknown usage kind {kind!r}")
