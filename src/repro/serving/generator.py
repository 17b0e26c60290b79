"""Open-loop request generation for the placement service.

An open-loop source emits requests on its own schedule — arrivals do
not wait for the scheduler to catch up, which is exactly what makes
backpressure observable (a closed-loop generator would self-throttle
and hide the queue).  Every draw (gap, level, flavor, lifetime) comes
from one seeded :class:`numpy.random.Generator` in a fixed order, so
the full request stream is a pure function of ``(catalog, mix,
traffic config, seed)`` and two runs at the same seed are
byte-identical.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Tuple, Union

import numpy as np

from repro.core.types import OversubscriptionLevel, VMSpec
from repro.serving.config import TrafficConfig
from repro.workload.catalog import Catalog, draw_index, level_draws
from repro.workload.distributions import LevelMix

__all__ = ["ServiceRequest", "RequestSource"]


@dataclass(frozen=True)
class ServiceRequest:
    """One VM request as seen by the service front door."""

    req_id: str
    spec: VMSpec
    level: OversubscriptionLevel
    arrival: float  # virtual seconds
    lifetime: float  # virtual seconds the VM stays once placed


class RequestSource:
    """Seeded factory for the service's arrival stream.

    Flavors are drawn from the provider catalog (restricted to
    oversubscription-eligible sizes for levels above 1:1, the paper's
    §III-A hypothesis), levels from the mix shares, gaps and lifetimes
    from the :class:`~repro.serving.config.TrafficConfig`.
    """

    def __init__(
        self,
        catalog: Catalog,
        mix: Union[str, LevelMix],
        traffic: TrafficConfig,
        seed: Union[int, np.random.SeedSequence] = 0,
    ):
        self.traffic = traffic
        self._levels, self._level_cdf = level_draws(catalog, mix)
        self._rng = np.random.default_rng(seed)
        self._ids = itertools.count()

    def next_request(self, now: float) -> Tuple[float, ServiceRequest]:
        """The gap from ``now`` to the next arrival, and that request."""
        gap = self.traffic.next_gap(self._rng, now)
        level, cat = self._levels[draw_index(self._level_cdf, self._rng)]
        spec = cat.sample(self._rng)
        lifetime = self.traffic.lifetime.sample(self._rng)
        request = ServiceRequest(
            req_id=f"req-{next(self._ids):06d}",
            spec=spec,
            level=level,
            arrival=now + gap,
            lifetime=lifetime,
        )
        return gap, request

    def window(self, duration: float) -> Iterator[Tuple[float, ServiceRequest]]:
        """Requests arriving inside ``[0, duration]``, in arrival order.

        A synchronous view of the same stream the async arrival loop
        produces — used by tests and capacity planning, never by the
        service itself (which interleaves sleeps between draws).
        """
        now = 0.0
        while True:
            gap, request = self.next_request(now)
            if request.arrival > duration:
                return
            now = request.arrival
            yield gap, request
