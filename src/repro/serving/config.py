"""Validated traffic-distribution configs for the serving layer.

The AsyncFlow/FastSim idiom: one *self-consistent contract* links the
canonical distribution names (:data:`DIST_KINDS`), the random-variable
schema (:class:`RVConfig`) and the traffic-generator payload
(:class:`TrafficConfig`).  Every config is a frozen dataclass that
validates at construction, so a typo'd kind or a negative rate raises
:class:`~repro.core.errors.ConfigError` before the service starts —
never mid-run.

All sampling draws from a caller-supplied seeded
:class:`numpy.random.Generator`; a config owns *no* randomness of its
own, which is what makes an arrival stream a pure function of
``(config, seed)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.errors import ConfigError
from repro.core.spec import bound, check_bounds

__all__ = ["DIST_KINDS", "RVConfig", "DiurnalConfig", "TrafficConfig", "DAY"]

#: Canonical distribution names supported by :class:`RVConfig`.  A
#: misspelling ("Poisson", "log-normal") is a ConfigError, never a
#: silent fallback.
DIST_KINDS = ("constant", "exponential", "lognormal", "poisson")

#: Seconds per day — the default diurnal modulation period.
DAY = 86_400.0


@dataclass(frozen=True)
class RVConfig:
    """One non-negative random variable, named by distribution kind.

    ``mean`` is the arithmetic mean of the sampled values for every
    kind (``lognormal`` draws at log-space sigma 1 and solves the
    underlying ``mu`` from ``mean``, so the arithmetic mean stays
    ``mean``).
    """

    kind: str
    mean: float = bound(0, open_low=True)

    def __post_init__(self) -> None:
        if self.kind not in DIST_KINDS:
            raise ConfigError(
                f"unknown distribution kind {self.kind!r}; "
                f"expected one of {DIST_KINDS}"
            )
        check_bounds(self)

    def sample(self, rng: np.random.Generator) -> float:
        """One non-negative finite draw from the configured distribution."""
        if self.kind == "constant":
            return self.mean
        if self.kind == "exponential":
            return float(rng.exponential(self.mean))
        if self.kind == "poisson":
            return float(rng.poisson(self.mean))
        # lognormal, sigma 1: solve mu so the arithmetic mean is self.mean.
        return float(rng.lognormal(math.log(self.mean) - 0.5, 1.0))


@dataclass(frozen=True)
class DiurnalConfig:
    """Sinusoidal arrival-rate modulation (Coach-style diurnal load).

    The instantaneous rate multiplier at virtual time ``t`` is
    ``1 + amplitude * sin(2*pi*t / period)`` — at ``amplitude`` 0.25
    the peak rate is 25% above the mean and the trough 25% below.
    Amplitude must stay below 1 so the rate never reaches zero.
    """

    amplitude: float = bound(0, 1, open_high=True)
    period: float = bound(0, open_low=True, default=DAY)

    def __post_init__(self) -> None:
        check_bounds(self)

    def factor(self, t: float) -> float:
        """The rate multiplier at virtual time ``t`` (always > 0)."""
        return 1.0 + self.amplitude * math.sin(2.0 * math.pi * t / self.period)


@dataclass(frozen=True)
class TrafficConfig:
    """The traffic-generator payload: inter-arrivals plus lifetimes.

    ``interarrival`` samples the gap to the next request (seconds);
    ``lifetime`` samples how long a placed VM stays; ``diurnal``, when
    set, divides each gap by the rate multiplier at the current virtual
    time — the open-loop analogue of the thinning pass in
    :func:`repro.workload.generator._arrival_times`.
    """

    interarrival: RVConfig
    lifetime: RVConfig
    diurnal: Optional[DiurnalConfig] = None

    def __post_init__(self) -> None:
        if not isinstance(self.interarrival, RVConfig):
            raise ConfigError("interarrival must be an RVConfig")
        if not isinstance(self.lifetime, RVConfig):
            raise ConfigError("lifetime must be an RVConfig")
        if self.diurnal is not None and not isinstance(self.diurnal, DiurnalConfig):
            raise ConfigError("diurnal must be a DiurnalConfig or None")

    def next_gap(self, rng: np.random.Generator, now: float) -> float:
        """Seconds until the next arrival, diurnally modulated at ``now``."""
        gap = self.interarrival.sample(rng)
        if self.diurnal is not None:
            gap /= self.diurnal.factor(now)
        return gap
