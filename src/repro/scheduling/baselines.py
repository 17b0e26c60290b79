"""Canonical scheduler configurations used across the evaluation.

* :func:`first_fit_scheduler` — the paper's packing baseline (§VII-B):
  fill existing servers before opening new ones.
* :func:`slackvm_scheduler` — the progress-score scheduler of §VI,
  with a first-fit tiebreak for determinism.
* :func:`best_fit_scheduler` / :func:`worst_fit_scheduler` — classic
  vector-bin-packing heuristics, for context in the ablations.
"""

from __future__ import annotations

from repro.core.errors import ConfigError
from repro.scheduling.constants import BESTFIT_BLEND, TIEBREAK_WEIGHT
from repro.scheduling.global_scheduler import ScoreBasedScheduler
from repro.scheduling.weighers import (
    BestFitWeigher,
    FirstFitWeigher,
    ProgressWeigher,
    WorstFitWeigher,
)

__all__ = [
    "first_fit_scheduler",
    "best_fit_scheduler",
    "worst_fit_scheduler",
    "slackvm_scheduler",
    "slackvm_combined_scheduler",
    "scheduler_for_policy",
]

# Shared with the vector engine via repro.scheduling.constants.
_TIEBREAK = TIEBREAK_WEIGHT


def first_fit_scheduler() -> ScoreBasedScheduler:
    """First-Fit: the first (lowest-rank) host that fits wins."""
    return ScoreBasedScheduler(
        weighers=((FirstFitWeigher(), 1.0),), name="first-fit"
    )


def best_fit_scheduler() -> ScoreBasedScheduler:
    """Best-Fit on normalized free capacity, first-fit tiebreak."""
    return ScoreBasedScheduler(
        weighers=((BestFitWeigher(), 1.0), (FirstFitWeigher(), _TIEBREAK)),
        name="best-fit",
    )


def worst_fit_scheduler() -> ScoreBasedScheduler:
    """Worst-Fit (spreading), first-fit tiebreak."""
    return ScoreBasedScheduler(
        weighers=((WorstFitWeigher(), 1.0), (FirstFitWeigher(), _TIEBREAK)),
        name="worst-fit",
    )


def slackvm_scheduler(negative_factor: bool = True) -> ScoreBasedScheduler:
    """SlackVM: Algorithm 2 progress score, first-fit tiebreak."""
    return ScoreBasedScheduler(
        weighers=(
            (ProgressWeigher(negative_factor=negative_factor), 1.0),
            (FirstFitWeigher(), _TIEBREAK),
        ),
        name="slackvm-progress",
    )


_BESTFIT_BLEND = BESTFIT_BLEND


def slackvm_combined_scheduler() -> ScoreBasedScheduler:
    """The paper's suggested production composition (§VII-B2): the M/C
    progress score complemented with an existing packing rule
    (best-fit), plus the deterministic first-fit tiebreak.

    The progress score is in GB per core and the best-fit term is a
    unitless fill fraction, so their ``BESTFIT_BLEND`` sum — and with it
    this policy's choices — depends on memory being counted in GB."""
    return ScoreBasedScheduler(
        weighers=(
            (ProgressWeigher(), 1.0),
            (BestFitWeigher(), _BESTFIT_BLEND),
            (FirstFitWeigher(), _TIEBREAK),
        ),
        name="slackvm-progress+bestfit",
    )


#: Policy-name → scheduler factory, mirroring the string policies the
#: vector engine accepts (repro.simulator.vectorpool.POLICIES).
_POLICY_FACTORIES = {
    "first_fit": first_fit_scheduler,
    "best_fit": best_fit_scheduler,
    "worst_fit": worst_fit_scheduler,
    "progress": slackvm_scheduler,
    "progress_no_factor": lambda: slackvm_scheduler(negative_factor=False),
    "progress_bestfit": slackvm_combined_scheduler,
}


def scheduler_for_policy(policy: str) -> ScoreBasedScheduler:
    """Object-path scheduler equivalent to a vector-engine policy name.

    The differential audit (and the equivalence tests) rely on this
    mapping to run the *same* policy through both engines.
    """
    try:
        factory = _POLICY_FACTORIES[policy]
    except KeyError:
        raise ConfigError(
            f"unknown policy {policy!r}; expected one of {sorted(_POLICY_FACTORIES)}"
        ) from None
    return factory()
