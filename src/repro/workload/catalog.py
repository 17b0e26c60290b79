"""Provider VM-flavor catalogs (paper §III-A, Tables I & II).

The paper derives its analysis from the VM-size distributions of
Microsoft Azure and OVHcloud published with CloudFactory [30].  Those
raw distributions are not redistributable, so this module freezes
synthetic catalogs whose *moments match the published statistics
exactly*:

* Table I — mean request per VM: Azure 2.25 vCPU / 4.8 GB,
  OVHcloud 3.24 vCPU / 10.05 GB;
* Table II — M/C ratio of the oversubscribed-eligible subset
  (flavors with at most 8 GB, the paper's catalog-restriction
  hypothesis): Azure 1.5 GB/vCPU (→ 3.0 at 2:1, 4.5 at 3:1),
  OVHcloud 29/15 GB/vCPU (→ 3.9 at 2:1, 5.8 at 3:1).

Probabilities were obtained offline by minimum-KL projection of a
plausible flavor prior onto those moment constraints (power-of-two
sizes, 1-vCPU flavors most common); the tests in
``tests/workload/test_catalog.py`` re-verify every published moment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.errors import WorkloadError
from repro.core.types import OversubscriptionLevel, VMSpec
from repro.workload.distributions import LevelMix, mix_shares

__all__ = ["Catalog", "AZURE", "OVHCLOUD", "PROVIDERS", "OVERSUB_MEM_CAP_GB",
           "cdf_of", "draw_index", "level_draws"]

#: §III-A: providers do not offer oversubscribed VMs above 8 GB
#: ("OVHcloud does not offer oversubscribed VMs with a capacity
#: exceeding 8 GB") — the same cap is applied to both catalogs.
OVERSUB_MEM_CAP_GB = 8.0


def cdf_of(probabilities: Sequence[float]) -> np.ndarray:
    """The CDF ``Generator.choice(p=...)`` draws from, by numpy's own recipe
    (so any non-negative weights with a positive sum are drawable)."""
    cdf = np.asarray(probabilities, dtype=float).cumsum()
    cdf /= cdf[-1]
    return cdf


def draw_index(cdf: np.ndarray, rng: np.random.Generator, size: int | None = None):
    """What ``rng.choice(len(cdf), size, p=...)`` picks from :func:`cdf_of`'s
    CDF, with the same generator state after: one ``rng.random()`` per draw."""
    return cdf.searchsorted(rng.random(size), side="right")


@dataclass(frozen=True)
class Catalog:
    """A discrete distribution over VM flavors for one provider."""

    name: str
    entries: tuple[tuple[VMSpec, float], ...]
    _cdf: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.entries:
            raise WorkloadError("catalog cannot be empty")
        total = sum(p for _, p in self.entries)
        if abs(total - 1.0) > 1e-6:
            raise WorkloadError(f"catalog {self.name} probabilities sum to {total}")
        if any(p < 0 for _, p in self.entries):
            raise WorkloadError(f"catalog {self.name} has negative probabilities")
        specs = [s for s, _ in self.entries]
        if len(set(specs)) != len(specs):
            raise WorkloadError(f"catalog {self.name} has duplicate flavors")
        object.__setattr__(self, "_cdf", cdf_of(self.probabilities))

    # -- moments -----------------------------------------------------------

    @property
    def specs(self) -> tuple[VMSpec, ...]:
        return tuple(s for s, _ in self.entries)

    @property
    def probabilities(self) -> np.ndarray:
        return np.array([p for _, p in self.entries])

    @property
    def mean_vcpus(self) -> float:
        """Average vCPU request per VM (Table I)."""
        return float(sum(s.vcpus * p for s, p in self.entries))

    @property
    def mean_mem_gb(self) -> float:
        """Average vRAM request per VM (Table I)."""
        return float(sum(s.mem_gb * p for s, p in self.entries))

    def mc_ratio(self, oversubscription_ratio: float = 1.0) -> float:
        """Provisioned M/C ratio at a CPU oversubscription level (Table II).

        At ``n:1``, each physical core carries ``n`` vCPUs, so the
        memory-per-physical-core of the hosted mix is ``n`` times the
        memory-per-vCPU.  Oversubscribed levels (n > 1) draw from the
        catalog restricted to flavors of at most
        :data:`OVERSUB_MEM_CAP_GB`.
        """
        cat = self if oversubscription_ratio <= 1 else self.restricted()
        return oversubscription_ratio * cat.mean_mem_gb / cat.mean_vcpus

    def restricted(self, max_mem_gb: float = OVERSUB_MEM_CAP_GB) -> "Catalog":
        """Sub-catalog of oversubscription-eligible flavors, renormalized."""
        kept = [(s, p) for s, p in self.entries if s.mem_gb <= max_mem_gb]
        if not kept:
            raise WorkloadError(
                f"no flavor of {self.name} fits under {max_mem_gb} GB"
            )
        total = sum(p for _, p in kept)
        return Catalog(
            name=f"{self.name}<= {max_mem_gb:g}GB",
            entries=tuple((s, p / total) for s, p in kept),
        )

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Draw a flavor (``size=None``) or a list of ``size`` flavors: one
        ``rng.random()`` each through the CDF cached at construction, which
        picks what ``rng.choice(len(entries), size, p=probabilities)`` picks
        and leaves ``rng`` in the same state."""
        idx = draw_index(self._cdf, rng, size)
        if size is None:
            return self.entries[idx][0]
        return [self.entries[i][0] for i in idx.tolist()]


def level_draws(
    catalog: Catalog, mix: LevelMix | str
) -> tuple[list[tuple[OversubscriptionLevel, Catalog]], np.ndarray]:
    """The active levels of ``mix`` in ratio order, each with the catalog its
    VMs draw flavors from (restricted above 1:1, §III-A — built only for an
    active level, and drawing nothing), plus the CDF over their shares."""
    shares = {r: s for r, s in mix_shares(mix).items() if s > 0}
    levels = [
        (OversubscriptionLevel(r), catalog if r <= 1 else catalog.restricted())
        for r in sorted(shares)
    ]
    return levels, cdf_of([shares[level.ratio] for level, _ in levels])


def _cat(name: str, rows: list[tuple[int, float, float]]) -> Catalog:
    entries = tuple((VMSpec(v, m), p) for v, m, p in rows)
    # Normalize residual rounding so the catalog invariant holds exactly.
    total = sum(p for _, p in entries)
    return Catalog(name=name, entries=tuple((s, p / total) for s, p in entries))


#: Azure-like catalog (Table I: 2.25 vCPU / 4.8 GB per VM).
AZURE = _cat(
    "azure",
    [
        (1, 1.0, 0.194726),
        (1, 2.0, 0.261391),
        (1, 4.0, 0.058875),
        (2, 2.0, 0.138999),
        (2, 4.0, 0.117405),
        (2, 8.0, 0.007942),
        (4, 4.0, 0.069165),
        (4, 8.0, 0.022457),
        (4, 16.0, 0.060470),
        (8, 8.0, 0.026305),
        (8, 16.0, 0.009279),
        (8, 32.0, 0.026809),
        (16, 64.0, 0.006175),
    ],
)

#: OVHcloud-like catalog (Table I: 3.24 vCPU / 10.05 GB per VM).
OVHCLOUD = _cat(
    "ovhcloud",
    [
        (1, 2.0, 0.214665),
        (2, 2.0, 0.090062),
        (2, 4.0, 0.188709),
        (2, 8.0, 0.072818),
        (4, 4.0, 0.049824),
        (4, 8.0, 0.051270),
        (4, 16.0, 0.221801),
        (8, 16.0, 0.011088),
        (8, 32.0, 0.083258),
        (16, 64.0, 0.015771),
        (32, 128.0, 0.000733),
    ],
)

PROVIDERS: dict[str, Catalog] = {"azure": AZURE, "ovhcloud": OVHCLOUD}
