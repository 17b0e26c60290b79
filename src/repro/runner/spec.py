"""Sweep specification: the experiment grid and its seed derivation.

A :class:`SweepSpec` names a provider × mix × seed grid with the knobs
:func:`repro.api.evaluate` exposes.  Everything in the spec is a plain
JSON value, which buys three properties at once:

* cells can be shipped to worker processes without pickling library
  objects (catalogs are resolved by name inside the worker);
* the spec embeds verbatim in the checkpoint header, so a resumed run
  can verify it is continuing the *same* sweep (``fingerprint``);
* two runs of the same spec enumerate the same cells in the same order
  with the same seeds — the determinism contract of the runner.

Seeds come either from an explicit ``seeds`` tuple or are derived from
``root_seed`` with :meth:`numpy.random.SeedSequence.spawn`, which
guarantees statistically independent streams per seed slot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from repro.core.constants import ROUTERS
from repro.core.errors import ConfigError, RunnerError
from repro.core.spec import Spec, bound, check_bounds, check_int
from repro.hardware.machine import SIM_WORKER
from repro.simulator.vectorpool import KERNELS, check_policy
from repro.workload.distributions import DISTRIBUTIONS, LevelMix

__all__ = ["SweepCell", "SweepSpec", "derive_seeds", "resolve_mix_entry"]

#: Checkpoint/spec schema version (bump on incompatible changes).
#: v2 added the kernel/shards/router cell knobs; v1 files still parse
#: (the new fields default), but their fingerprints no longer match,
#: so a resume against a v1 checkpoint is refused explicitly.
SPEC_VERSION = 2


def derive_seeds(root_seed: int, n: int) -> tuple[int, ...]:
    """``n`` independent integer seeds derived from one root seed.

    Uses :meth:`numpy.random.SeedSequence.spawn`, so the streams seeded
    by the results are statistically independent of each other and of
    the root.  Each child sequence is collapsed to a 128-bit integer
    (``default_rng`` accepts arbitrary-size ints), keeping derived
    seeds JSON-serializable and printable in cell keys.
    """
    if n < 0:
        raise RunnerError(f"cannot derive {n} seeds")
    root = np.random.SeedSequence(root_seed)
    out = []
    for child in root.spawn(n):
        hi, lo = (int(w) for w in child.generate_state(2, dtype=np.uint64))
        out.append((hi << 64) | lo)
    return tuple(out)


def resolve_mix_entry(entry: str) -> tuple[str, LevelMix]:
    """Resolve one spec mix entry to ``(label, (s1, s2, s3))``.

    Three accepted forms: a paper distribution letter (``"F"``), a raw
    percent triple (``"50,0,50"``, labelled by itself), or a labelled
    triple (``"hot:50,0,50"``).
    """
    text = entry.strip()
    if ":" in text:
        label, _, triple = text.partition(":")
        label = label.strip()
        triple = triple.strip()
    elif text.upper() in DISTRIBUTIONS:
        return text.upper(), DISTRIBUTIONS[text.upper()]
    else:
        label = triple = text
    try:
        s1, s2, s3 = (float(x) for x in triple.split(","))
    except ValueError:
        raise RunnerError(
            f"invalid mix entry {entry!r}: expected a letter "
            f"{'/'.join(DISTRIBUTIONS)}, 'S1,S2,S3' shares, or 'label:S1,S2,S3'"
        ) from None
    if not label:
        raise RunnerError(f"invalid mix entry {entry!r}: empty label")
    return label, (s1, s2, s3)


@dataclass(frozen=True)
class SweepCell:
    """One experiment of a sweep: a (provider, mix, seed) point."""

    index: int
    provider: str
    mix_label: str
    mix: LevelMix
    seed: int

    @property
    def key(self) -> str:
        """Stable identifier used for checkpointing and resume."""
        return f"{self.provider}/{self.mix_label}/{self.seed}"


@dataclass(frozen=True)
class SweepSpec(Spec):
    """A provider × mix × seed experiment grid.

    ``providers`` are registry names resolved against
    :data:`repro.workload.PROVIDERS` *inside the worker* — an unknown
    name surfaces as a failed-cell record, not a crashed sweep.  Mix
    entries are resolved eagerly (they are spec syntax; see
    :func:`resolve_mix_entry`), and so are the policy, kernel and
    router names: a misspelt one would fail every cell the same way.

    ``seeds`` (explicit) takes precedence over the ``root_seed`` /
    ``num_seeds`` derivation; the latter is the recommended mode for
    many-seed sweeps.
    """

    VERSIONS = (1, SPEC_VERSION)
    ERROR = RunnerError

    providers: tuple[str, ...] = ("ovhcloud",)
    mixes: tuple[str, ...] = tuple(DISTRIBUTIONS)
    seeds: Optional[tuple[int, ...]] = None
    root_seed: int = bound(0, default=0)
    num_seeds: int = bound(0, default=1)
    target_population: int = bound(1, default=500)
    policy: str = "progress"
    baseline_policy: str = "first_fit"
    pooling: bool = True
    machine_cpus: int = bound(1, default=SIM_WORKER.cpus)
    machine_mem_gb: float = bound(0, open_low=True, default=SIM_WORKER.mem_gb)
    kernel: str = "incremental"
    shards: int = bound(1, default=1)
    router: str = "hash"
    resolved_mixes: tuple[tuple[str, LevelMix], ...] = field(
        init=False, repr=False, compare=False, default=()
    )

    def __post_init__(self) -> None:
        if not self.providers:
            raise RunnerError("a sweep needs at least one provider")
        if not self.mixes:
            raise RunnerError("a sweep needs at least one mix")
        if self.seeds is not None:
            if not self.seeds:
                raise RunnerError("explicit seeds tuple cannot be empty")
            seeds = tuple(check_int("seeds", s, 0, error=RunnerError) for s in self.seeds)
            object.__setattr__(self, "seeds", seeds)
        check_bounds(self)
        # num_seeds only counts when no explicit seeds are given.
        if self.seeds is None and self.num_seeds < 1:
            raise RunnerError(f"num_seeds must be >= 1 without explicit seeds, "
                              f"got {self.num_seeds}")
        if not isinstance(self.pooling, bool):
            raise RunnerError(f"pooling must be a bool, got {self.pooling!r}")
        for name in ("policy", "baseline_policy"):
            try:
                check_policy(getattr(self, name))
            except ConfigError as exc:
                raise RunnerError(f"{name}: {exc}") from None
        for name, value, known in (("kernel", self.kernel, KERNELS),
                                   ("router", self.router, ROUTERS)):
            if value not in known:
                raise RunnerError(f"unknown {name} {value!r}; expected one of {known}")
        resolved = tuple(resolve_mix_entry(m) for m in self.mixes)
        labels = [label for label, _ in resolved]
        if len(set(labels)) != len(labels):
            raise RunnerError(f"duplicate mix labels in {labels}")
        object.__setattr__(self, "resolved_mixes", resolved)

    # -- seeds & cells -------------------------------------------------------

    def effective_seeds(self) -> tuple[int, ...]:
        """The per-slot seeds: explicit, or SeedSequence-derived."""
        if self.seeds is not None:
            return self.seeds
        return derive_seeds(self.root_seed, self.num_seeds)

    def cells(self) -> list[SweepCell]:
        """Enumerate the grid in deterministic order.

        Seed slots are shared across (provider, mix) pairs — the
        Figure 4 protocol averages the *same* trace seeds over every
        mix, so a seed slot means "the same workload randomness".
        """
        seeds = self.effective_seeds()
        out: list[SweepCell] = []
        index = 0
        for provider in self.providers:
            for label, mix in self.resolved_mixes:
                for seed in seeds:
                    out.append(
                        SweepCell(
                            index=index,
                            provider=provider,
                            mix_label=label,
                            mix=mix,
                            seed=seed,
                        )
                    )
                    index += 1
        return out

    def __len__(self) -> int:
        return len(self.providers) * len(self.mixes) * len(self.effective_seeds())

    def __iter__(self) -> Iterator[SweepCell]:
        return iter(self.cells())

