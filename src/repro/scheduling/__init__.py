"""Global scheduling: Algorithm 2 progress score, filters, weighers,
score-based selection and packing baselines."""

from repro.scheduling.baselines import (
    best_fit_scheduler,
    first_fit_scheduler,
    scheduler_for_policy,
    slackvm_combined_scheduler,
    slackvm_scheduler,
    worst_fit_scheduler,
)
from repro.scheduling.constants import BESTFIT_BLEND, TIEBREAK_WEIGHT
from repro.scheduling.filters import CapacityFilter, HostFilter, LevelSupportFilter
from repro.scheduling.global_scheduler import ScoreBasedScheduler
from repro.scheduling.progress import progress_score
from repro.scheduling.weighers import (
    BestFitWeigher,
    FirstFitWeigher,
    HostWeigher,
    ProgressWeigher,
    WorstFitWeigher,
)

__all__ = [
    "progress_score",
    "ScoreBasedScheduler",
    "HostFilter",
    "LevelSupportFilter",
    "CapacityFilter",
    "HostWeigher",
    "ProgressWeigher",
    "FirstFitWeigher",
    "BestFitWeigher",
    "WorstFitWeigher",
    "first_fit_scheduler",
    "best_fit_scheduler",
    "worst_fit_scheduler",
    "slackvm_scheduler",
    "slackvm_combined_scheduler",
    "scheduler_for_policy",
    "TIEBREAK_WEIGHT",
    "BESTFIT_BLEND",
]
