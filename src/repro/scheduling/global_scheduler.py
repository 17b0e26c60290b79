"""The score-based global scheduler (paper §II-B and §VI).

:class:`ScoreBasedScheduler` reproduces the standard control-plane
selection loop: filter candidates on hard constraints, score survivors
with a weighted sum of weighers, pick the best (lowest host rank breaks
ties, which makes every policy deterministic).

SlackVM is *not* a new scheduler — it is this pipeline with the
:class:`~repro.scheduling.weighers.ProgressWeigher` plugged in, exactly
as the paper advocates.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.types import VMRequest
from repro.localsched.agent import LocalScheduler
from repro.obs.records import HostDecision
from repro.scheduling.filters import CapacityFilter, HostFilter, LevelSupportFilter
from repro.scheduling.weighers import HostWeigher, ProgressWeigher

__all__ = ["ScoreBasedScheduler"]


class ScoreBasedScheduler:
    """Filter + weigh host selection.

    The hard constraints are level support + capacity; ``weighers``
    are ``(weigher, weight)`` pairs combined as a weighted sum.
    """

    def __init__(
        self,
        weighers: Sequence[tuple[HostWeigher, float]] | None = None,
        name: str = "score-based",
    ):
        self.filters: tuple[HostFilter, ...] = (LevelSupportFilter(), CapacityFilter())
        self.weighers: tuple[tuple[HostWeigher, float], ...] = (
            tuple(weighers) if weighers is not None else ((ProgressWeigher(), 1.0),)
        )
        self.name = name

    def select(
        self, hosts: Sequence[LocalScheduler], vm: VMRequest
    ) -> Optional[int]:
        """Index of the chosen host, or None when no host passes the filters."""
        best_idx: Optional[int] = None
        best_score = float("-inf")
        for idx, host in enumerate(hosts):
            if not all(f.passes(host, vm) for f in self.filters):
                continue
            score = sum(w * weigher.weigh(host, vm, idx) for weigher, w in self.weighers)
            if score > best_score:  # strict: ties keep the lowest index
                best_score = score
                best_idx = idx
        return best_idx

    def _weigher_names(self) -> tuple[str, ...]:
        """Stable display names for the weighers (deduplicated by rank)."""
        names: list[str] = []
        for weigher, _ in self.weighers:
            base = type(weigher).__name__
            name = base
            k = 2
            while name in names:
                name = f"{base}#{k}"
                k += 1
            names.append(name)
        return tuple(names)

    def decide(
        self, hosts: Sequence[LocalScheduler], vm: VMRequest
    ) -> tuple[Optional[int], tuple[HostDecision, ...]]:
        """Like :meth:`select`, but returns the full per-host audit trail.

        Every filter is evaluated on every host (no short-circuiting) so
        the verdict table is complete; candidates additionally carry
        their per-weigher weighted score contributions.  The selected
        index is guaranteed to match :meth:`select` — this is the
        instrumented path the observability layer records from.
        """
        wnames = self._weigher_names()
        decisions: list[HostDecision] = []
        selected: Optional[int] = None
        best_score = float("-inf")
        for idx, host in enumerate(hosts):
            verdicts = {repr(f): f.passes(host, vm) for f in self.filters}
            eligible = all(verdicts.values())
            if not eligible:
                decisions.append(HostDecision(idx, False, verdicts))
                continue
            contributions = {
                name: w * weigher.weigh(host, vm, idx)
                for name, (weigher, w) in zip(wnames, self.weighers)
            }
            score = sum(contributions.values())
            decisions.append(HostDecision(idx, True, verdicts, contributions, score))
            if score > best_score:  # strict: ties keep the lowest index
                best_score = score
                selected = idx
        return selected, tuple(decisions)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"ScoreBasedScheduler({self.name})"
