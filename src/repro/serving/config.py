"""Validated traffic-distribution configs for the serving layer.

The AsyncFlow/FastSim idiom: one *self-consistent contract* links the
canonical distribution names (:data:`DIST_KINDS`), the random-variable
schema (:class:`RVConfig`) and the traffic-generator payload
(:class:`TrafficConfig`).  Every config is a frozen dataclass that
validates at construction and round-trips exactly through
``to_dict``/``from_dict``, so a typo'd kind or a negative rate raises
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
from typing import Mapping, Optional

import numpy as np

from repro.core.errors import ConfigError
from repro.core.spec import check_fields

__all__ = ["DIST_KINDS", "RVConfig", "DiurnalConfig", "TrafficConfig", "DAY"]

#: Canonical distribution names supported by :class:`RVConfig`.  A
#: misspelling ("Poisson", "log-normal") is a ConfigError, never a
#: silent fallback.
DIST_KINDS = ("constant", "exponential", "lognormal", "poisson")

#: Seconds per day — the default diurnal modulation period.
DAY = 86_400.0


def _require_number(value: object, name: str) -> float:
    """Coerce ``value`` to float, rejecting bools, strings and NaN/inf."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    out = float(value)
    if not math.isfinite(out):
        raise ConfigError(f"{name} must be finite, got {out!r}")
    return out


@dataclass(frozen=True)
class RVConfig:
    """One non-negative random variable, named by distribution kind.

    ``mean`` is the arithmetic mean of the sampled values for every
    kind (for ``lognormal`` the underlying ``mu`` is solved from
    ``mean`` and the log-space ``sigma``, so the arithmetic mean stays
    ``mean`` whatever the skew).  ``sigma`` is only meaningful for
    ``lognormal`` — supplying it with any other kind is a ConfigError,
    mirroring the FastSim validators that reject inconsistent payloads
    instead of ignoring them.
    """

    kind: str
    mean: float
    sigma: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in DIST_KINDS:
            raise ConfigError(
                f"unknown distribution kind {self.kind!r}; "
                f"expected one of {DIST_KINDS}"
            )
        mean = _require_number(self.mean, "mean")
        if mean <= 0:
            raise ConfigError(f"mean must be positive, got {mean!r}")
        object.__setattr__(self, "mean", mean)
        if self.sigma is not None:
            sigma = _require_number(self.sigma, "sigma")
            if sigma <= 0:
                raise ConfigError(f"sigma must be positive, got {sigma!r}")
            if self.kind != "lognormal":
                raise ConfigError(
                    f"sigma only applies to lognormal, not {self.kind!r}"
                )
            object.__setattr__(self, "sigma", sigma)

    def sample(self, rng: np.random.Generator) -> float:
        """One non-negative finite draw from the configured distribution."""
        if self.kind == "constant":
            return self.mean
        if self.kind == "exponential":
            return float(rng.exponential(self.mean))
        if self.kind == "poisson":
            return float(rng.poisson(self.mean))
        # lognormal: solve mu so the arithmetic mean equals self.mean.
        sigma = self.sigma if self.sigma is not None else 1.0
        mu = math.log(self.mean) - 0.5 * sigma * sigma
        return float(rng.lognormal(mu, sigma))

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind, "mean": self.mean}
        if self.sigma is not None:
            out["sigma"] = self.sigma
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "RVConfig":
        check_fields(data, ("kind", "mean", "sigma"), "RVConfig")
        if "kind" not in data or "mean" not in data:
            raise ConfigError("RVConfig needs both 'kind' and 'mean'")
        kind = data["kind"]
        if not isinstance(kind, str):
            raise ConfigError(f"kind must be a string, got {kind!r}")
        return cls(kind=kind, mean=data["mean"],  # type: ignore[arg-type]
                   sigma=data.get("sigma"))  # type: ignore[arg-type]


@dataclass(frozen=True)
class DiurnalConfig:
    """Sinusoidal arrival-rate modulation (Coach-style diurnal load).

    The instantaneous rate multiplier at virtual time ``t`` is
    ``1 + amplitude * sin(2*pi*t / period)`` — at ``amplitude`` 0.25
    the peak rate is 25% above the mean and the trough 25% below.
    Amplitude must stay below 1 so the rate never reaches zero.
    """

    amplitude: float
    period: float = DAY

    def __post_init__(self) -> None:
        amplitude = _require_number(self.amplitude, "amplitude")
        if not 0.0 <= amplitude < 1.0:
            raise ConfigError(f"amplitude must be in [0, 1), got {amplitude!r}")
        object.__setattr__(self, "amplitude", amplitude)
        period = _require_number(self.period, "period")
        if period <= 0:
            raise ConfigError(f"period must be positive, got {period!r}")
        object.__setattr__(self, "period", period)

    def factor(self, t: float) -> float:
        """The rate multiplier at virtual time ``t`` (always > 0)."""
        return 1.0 + self.amplitude * math.sin(2.0 * math.pi * t / self.period)

    def to_dict(self) -> dict:
        return {"amplitude": self.amplitude, "period": self.period}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "DiurnalConfig":
        check_fields(data, ("amplitude", "period"), "DiurnalConfig")
        if "amplitude" not in data:
            raise ConfigError("DiurnalConfig needs 'amplitude'")
        return cls(amplitude=data["amplitude"],  # type: ignore[arg-type]
                   period=data.get("period", DAY))  # type: ignore[arg-type]


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

    @classmethod
    def open_loop(cls, rate: float, mean_lifetime: float,
                  diurnal_amplitude: float = 0.0) -> "TrafficConfig":
        """Poisson-process traffic at ``rate`` requests/second."""
        rate = _require_number(rate, "rate")
        if rate <= 0:
            raise ConfigError(f"rate must be positive, got {rate!r}")
        diurnal = (
            DiurnalConfig(diurnal_amplitude) if diurnal_amplitude else None
        )
        return cls(
            interarrival=RVConfig("exponential", 1.0 / rate),
            lifetime=RVConfig("exponential", mean_lifetime),
            diurnal=diurnal,
        )

    def next_gap(self, rng: np.random.Generator, now: float) -> float:
        """Seconds until the next arrival, diurnally modulated at ``now``."""
        gap = self.interarrival.sample(rng)
        if self.diurnal is not None:
            gap /= self.diurnal.factor(now)
        return gap

    def to_dict(self) -> dict:
        out: dict = {
            "interarrival": self.interarrival.to_dict(),
            "lifetime": self.lifetime.to_dict(),
        }
        if self.diurnal is not None:
            out["diurnal"] = self.diurnal.to_dict()
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "TrafficConfig":
        check_fields(data, ("interarrival", "lifetime", "diurnal"), "TrafficConfig")
        if "interarrival" not in data or "lifetime" not in data:
            raise ConfigError(
                "TrafficConfig needs both 'interarrival' and 'lifetime'"
            )
        diurnal = data.get("diurnal")
        return cls(
            interarrival=RVConfig.from_dict(data["interarrival"]),  # type: ignore[arg-type]
            lifetime=RVConfig.from_dict(data["lifetime"]),  # type: ignore[arg-type]
            diurnal=(
                DiurnalConfig.from_dict(diurnal)  # type: ignore[arg-type]
                if diurnal is not None else None
            ),
        )
