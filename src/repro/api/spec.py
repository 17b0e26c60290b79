"""The unified run specification — one frozen value names one run.

:class:`RunSpec` is the single description every front end (CLI
handlers, the sweep's cells, the ``perf/`` ledger) parses
into: cluster topology, workload recipe, scheduling policy,
oversubscription strategy, shard geometry and seed, with validation at
construction so a bad knob fails before any work starts.

The spec is *declarative* — building workloads, machines and engines
from it lives in :mod:`repro.api.run`.  Serialization, fingerprint and
``replace`` come from :class:`repro.core.spec.Spec`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.core.errors import ConfigError
from repro.core.spec import Spec, bound, check_bounds
from repro.oversub.estimators import STRATEGIES
from repro.sharding.router import ROUTERS
from repro.simulator.vectorpool import check_policy
from repro.workload.catalog import PROVIDERS
from repro.workload.distributions import DISTRIBUTIONS, LevelMix, normalize_mix

__all__ = ["ENGINES", "RunSpec", "SPEC_VERSION"]

#: Simulation engines selectable by :attr:`RunSpec.engine`.
ENGINES = ("vector", "object")

#: Bump when the field set changes incompatibly (fingerprints shift).
#: v2 dropped ``kernel``: runs use the incremental kernel, and the
#: naive reference is an engine argument only the oracle tests pass.
SPEC_VERSION = 2


@dataclass(frozen=True)
class RunSpec(Spec):
    """One simulated run, fully described.

    ``num_hosts=0`` means *auto-size*: build the smallest demand-derived
    cluster with 15% headroom (see :func:`repro.api.run.build_machines`).
    ``mix`` is a paper distribution letter (``"F"``) or a
    ``(1:1, 2:1, 3:1)`` percent triple.  ``oversub=None`` keeps static
    levels; a strategy name from :data:`repro.oversub.STRATEGIES`
    activates the dynamic controller (vector engine only).
    ``shards=1`` is the plain single-process engine; higher counts fan
    out through :class:`repro.sharding.ShardedSimulation`
    (``workers=0`` → one process per shard).
    """

    VERSIONS = (SPEC_VERSION,)

    # -- workload ------------------------------------------------------------
    provider: str = "azure"
    mix: Union[str, LevelMix] = (100.0, 0.0, 0.0)
    target_population: int = bound(1, default=500)
    seed: int = bound(0, default=0)

    # -- topology ------------------------------------------------------------
    num_hosts: int = bound(0, default=0)
    host_cpus: int = bound(1, default=32)
    host_mem_gb: float = bound(0, open_low=True, default=128.0)

    # -- scheduling ----------------------------------------------------------
    policy: str = "progress"
    engine: str = "vector"
    pooling: bool = True
    fail_fast: bool = False

    # -- dynamic oversubscription -------------------------------------------
    oversub: Optional[str] = None
    oversub_update_every: float = bound(0, open_low=True, default=3600.0)

    # -- sharding ------------------------------------------------------------
    shards: int = bound(1, default=1)
    router: str = "hash"
    workers: int = bound(0, default=0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "mix", normalize_mix(self.mix))
        if self.provider not in PROVIDERS:
            raise ConfigError(
                f"unknown provider {self.provider!r}; "
                f"expected one of {sorted(PROVIDERS)}"
            )
        # ``num_hosts=0`` auto-sizes; ``workers=0`` is one per shard.
        check_bounds(self)
        for name in ("pooling", "fail_fast"):
            if not isinstance(getattr(self, name), bool):
                raise ConfigError(f"{name} must be a bool, got {getattr(self, name)!r}")
        check_policy(self.policy)
        if self.engine not in ENGINES:
            raise ConfigError(
                f"unknown engine {self.engine!r}; expected one of {ENGINES}"
            )
        if self.oversub is not None and self.oversub not in STRATEGIES:
            raise ConfigError(
                f"unknown oversub strategy {self.oversub!r}; "
                f"expected one of {sorted(STRATEGIES)}"
            )
        if self.router not in ROUTERS:
            raise ConfigError(
                f"unknown router {self.router!r}; expected one of {ROUTERS}"
            )
        if self.num_hosts and self.shards > self.num_hosts:
            raise ConfigError(
                f"cannot split {self.num_hosts} hosts into {self.shards} shards"
            )
        if self.engine == "object" and self.shards > 1:
            raise ConfigError("the object engine does not support sharding")
        if self.engine == "object" and self.oversub is not None:
            raise ConfigError(
                "the object engine models no dynamic oversubscription; "
                "oversub needs engine='vector'"
            )
        if self.shards > 1 and self.fail_fast:
            raise ConfigError("fail_fast requires shards=1")
        if self.shards > 1 and self.oversub is not None:
            raise ConfigError("dynamic oversubscription requires shards=1")

    # -- derived views -------------------------------------------------------

    @property
    def mix_tuple(self) -> LevelMix:
        """The mix resolved to its percent triple."""
        if isinstance(self.mix, str):
            return DISTRIBUTIONS[self.mix]
        return self.mix

    @property
    def mix_label(self) -> str:
        """The mix's display label (letter, or the triple itself)."""
        if isinstance(self.mix, str):
            return self.mix
        return ",".join(f"{s:g}" for s in self.mix)
