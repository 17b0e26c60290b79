"""Top-level configuration of a SlackVM deployment.

A :class:`SlackVMConfig` gathers every knob the paper discusses:

* which oversubscription levels the provider offers (§VII uses 1:1,
  2:1 and 3:1, but the local scheduler "does not impose a limit on the
  considered oversubscription levels");
* whether oversubscribed vNodes may *pool* their slack (§V-B);
* whether the negative-progress load factor of Algorithm 2
  (lines 12–15) is applied;
* whether core selection is topology-aware (Algorithm 1) or naive.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import ConfigError
from repro.core.types import DEFAULT_LEVELS, OversubscriptionLevel

__all__ = ["SlackVMConfig"]


@dataclass(frozen=True, slots=True)
class SlackVMConfig:
    """Configuration knobs for local and global SlackVM scheduling."""

    #: Oversubscription levels offered by the provider, strictest first.
    levels: tuple[OversubscriptionLevel, ...] = DEFAULT_LEVELS

    #: §V-B — allow a VM of a looser level to land in a stricter
    #: oversubscribed vNode (an "upgrade") when its own vNode cannot grow.
    pooling: bool = True

    #: Algorithm 2 lines 12–15 — scale negative progress by the host's
    #: current CPU load so lightly-loaded PMs absorb unbalancing VMs.
    negative_progress_factor: bool = True

    #: Use the cache-distance metric (Algorithm 1) when picking cores;
    #: when False, cores are picked in index order (ablation baseline).
    topology_aware: bool = True

    #: Pin VMs to SMT siblings of already-used cores before spilling to
    #: new physical cores (mirrors Linux behaviour under constrained sets).
    prefer_physical_cores: bool = True

    def __post_init__(self) -> None:
        if not self.levels:
            raise ConfigError("at least one oversubscription level is required")
        ratios = [lv.ratio for lv in self.levels]
        if sorted(ratios) != ratios:
            raise ConfigError("levels must be sorted strictest (1:1) first")
        if len(set(ratios)) != len(ratios):
            raise ConfigError("duplicate oversubscription levels")
