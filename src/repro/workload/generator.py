"""CloudFactory-style workload generation (paper §VII).

Generates a dynamic set of VM lifecycles matching a Cloud-provider
context: flavor sizes drawn from a provider catalog, a configurable
share of VMs per oversubscription level (the paper's extension to
CloudFactory), Poisson arrivals with optional diurnal modulation, and
heavy-tailed lifetimes.  Oversubscribed VMs draw from the catalog
restricted to flavors of at most 8 GB (§III-A hypothesis).

All randomness flows through a seeded :class:`numpy.random.Generator`,
so every experiment in the benches is reproducible bit-for-bit.  Draw
order (pinned by ``tests/workload/test_trace_pins.py``): arrivals, then
levels, lifetimes and behaviours as whole arrays, then per VM one
``rng.random()`` for its flavor and, unless idle, one ``rng.beta``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Mapping, Sequence

import numpy as np

from repro.core.errors import WorkloadError
from repro.core.spec import bound, check_bounds, check_int
from repro.core.types import OversubscriptionLevel, VMRequest
from repro.workload.catalog import Catalog, cdf_of, draw_index, level_draws
from repro.workload.distributions import LevelMix
from repro.workload.usage import DEFAULT_BEHAVIOUR_SHARES

__all__ = ["WorkloadParams", "generate_workload", "peak_population", "remap_levels"]

DAY = 86_400.0
WEEK = 7 * DAY


@dataclass(frozen=True)
class WorkloadParams:
    """Parameters of one generated trace.

    ``target_population`` is the steady-state concurrent VM count
    (paper §VII-B1 targets 500); the Poisson arrival rate is derived as
    ``target_population / mean_lifetime`` (Little's law).
    """

    ERROR: ClassVar[type[WorkloadError]] = WorkloadError

    catalog: Catalog
    level_mix: LevelMix | str = (100.0, 0.0, 0.0)
    target_population: int = bound(1, default=500)
    duration: float = bound(0, open_low=True, default=WEEK)
    mean_lifetime: float = bound(0, open_low=True, default=2 * DAY)
    diurnal_amplitude: float = bound(0, 1, open_high=True, default=0.25)
    behaviour_shares: Mapping[str, float] = field(
        default_factory=lambda: dict(DEFAULT_BEHAVIOUR_SHARES)
    )
    #: Accepts a plain int or a :class:`numpy.random.SeedSequence` (e.g.
    #: one spawned by the sweep runner); both feed ``default_rng``
    #: directly, so a trace is a pure function of ``(params, seed)``.
    seed: int | np.random.SeedSequence = 0

    def __post_init__(self) -> None:
        check_bounds(self)
        if not isinstance(self.seed, np.random.SeedSequence):
            object.__setattr__(
                self, "seed", check_int("seed", self.seed, 0, error=WorkloadError)
            )
        total = sum(self.behaviour_shares.values())
        if abs(total - 1.0) > 1e-9:
            raise WorkloadError(f"behaviour shares sum to {total}, expected 1")


def _arrival_times(params: WorkloadParams, rng: np.random.Generator) -> np.ndarray:
    """Non-homogeneous Poisson arrivals by thinning a homogeneous stream."""
    rate = params.target_population / params.mean_lifetime
    peak_rate = rate * (1.0 + params.diurnal_amplitude)
    # Candidate homogeneous stream at the envelope rate.
    expected = peak_rate * params.duration
    n_cand = rng.poisson(expected)
    times = np.sort(rng.uniform(0.0, params.duration, size=n_cand))
    if params.diurnal_amplitude == 0.0:
        return times
    intensity = rate * (
        1.0 + params.diurnal_amplitude * np.sin(2 * np.pi * times / DAY)
    )
    keep = rng.uniform(0.0, peak_rate, size=n_cand) < intensity
    return times[keep]


def _sample_behaviours(
    shares: Mapping[str, float], n: int, rng: np.random.Generator
) -> list[str]:
    kinds = sorted(shares)
    idx = draw_index(cdf_of([shares[k] for k in kinds]), rng, n)
    return [kinds[i] for i in idx.tolist()]


def generate_workload(params: WorkloadParams) -> list[VMRequest]:
    """Generate one reproducible VM lifecycle trace."""
    rng = np.random.default_rng(params.seed)
    table, cdf = level_draws(params.catalog, params.level_mix)
    arrivals = _arrival_times(params, rng).tolist()
    n = len(arrivals)
    if n == 0:
        raise WorkloadError("generated zero arrivals; increase duration or population")
    levels = draw_index(cdf, rng, n).tolist()
    lifetimes = rng.exponential(params.mean_lifetime, size=n).tolist()
    behaviours = _sample_behaviours(params.behaviour_shares, n, rng)
    requests: list[VMRequest] = []
    for i in range(n):
        level, cat = table[levels[i]]
        spec = cat.sample(rng)
        kind = behaviours[i]
        if kind == "idle":
            param = 0.0
        elif kind == "stress":
            # CloudFactory-like skewed utilisation: most VMs are light.
            param = min(max(rng.beta(2.0, 3.0), 0.02), 1.0)
        else:
            param = min(max(rng.beta(2.5, 4.0), 0.05), 0.9)
        departure = arrivals[i] + lifetimes[i]
        requests.append(
            VMRequest(
                vm_id=f"vm-{i:05d}",
                spec=spec,
                level=level,
                arrival=arrivals[i],
                departure=departure if departure < params.duration else None,
                usage_kind=kind,
                usage_param=param,
            )
        )
    return requests


def remap_levels(
    workload: Sequence[VMRequest],
    levels: Sequence[OversubscriptionLevel],
) -> list[VMRequest]:
    """Replace each VM's level with the matching configured level.

    Matching is by CPU ratio; used to apply provider-side attributes
    such as memory oversubscription (a level's ``mem_ratio``) onto a
    trace generated with plain CPU-only levels.
    """
    by_ratio = {lv.ratio: lv for lv in levels}
    out = []
    for vm in workload:
        try:
            out.append(vm.with_level(by_ratio[vm.level.ratio]))
        except KeyError:
            raise WorkloadError(
                f"trace VM {vm.vm_id} uses level {vm.level.name} with no "
                f"configured counterpart"
            ) from None
    return out


def peak_population(workload: Sequence[VMRequest]) -> int:
    """Maximum number of concurrently-alive VMs in a trace (a VM with no
    departure stays alive to the end)."""
    deltas: list[tuple[float, int]] = []
    for vm in workload:
        deltas.append((vm.arrival, 1))
        if vm.departure is not None:
            deltas.append((vm.departure, -1))
    deltas.sort(key=lambda d: (d[0], d[1]))
    alive = peak = 0
    for _, d in deltas:
        alive += d
        peak = max(peak, alive)
    return peak
