"""Cell result records and lossless outcome (de)serialization.

The determinism contract of the runner ("serial and parallel runs
produce byte-identical sorted checkpoints") hinges on this module:
every :class:`~repro.analysis.experiments.DistributionOutcome` crosses
the process boundary as a JSON record, and the round-trip must be
exact.  ``json`` emits shortest-round-trip ``repr`` floats, so
``float → text → float`` is lossless; tuples and float dict keys are
restored structurally on the way back.

Volatile fields (wall-clock ``elapsed_s``) live on :class:`CellResult`
but are *excluded* from the serialized record — they differ between
runs by construction and would break the byte-identity contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from repro.analysis.experiments import DistributionOutcome
from repro.core.errors import RunnerError
from repro.simulator.metrics import UnallocatedShares
from repro.workload.distributions import LevelMix

__all__ = ["CellResult", "outcome_to_dict", "outcome_from_dict"]

STATUS_OK = "ok"
STATUS_FAILED = "failed"


def outcome_to_dict(outcome: DistributionOutcome) -> dict:
    """JSON-compatible, losslessly invertible outcome encoding."""
    return {
        "provider": outcome.provider,
        "mix": list(outcome.mix),
        "seed": outcome.seed,
        "baseline_pms_per_level": {
            repr(ratio): pms
            for ratio, pms in sorted(outcome.baseline_pms_per_level.items())
        },
        "slackvm_pms": outcome.slackvm_pms,
        "baseline_unallocated": {
            "cpu": outcome.baseline_unallocated.cpu,
            "mem": outcome.baseline_unallocated.mem,
        },
        "slackvm_unallocated": {
            "cpu": outcome.slackvm_unallocated.cpu,
            "mem": outcome.slackvm_unallocated.mem,
        },
        "pooled_placements": outcome.pooled_placements,
    }


def outcome_from_dict(data: Mapping) -> DistributionOutcome:
    """Invert :func:`outcome_to_dict`."""
    return DistributionOutcome(
        provider=data["provider"],
        mix=tuple(float(s) for s in data["mix"]),  # type: ignore[arg-type]
        seed=int(data["seed"]),
        baseline_pms_per_level={
            float(ratio): int(pms)
            for ratio, pms in data["baseline_pms_per_level"].items()
        },
        slackvm_pms=int(data["slackvm_pms"]),
        baseline_unallocated=UnallocatedShares(
            cpu=float(data["baseline_unallocated"]["cpu"]),
            mem=float(data["baseline_unallocated"]["mem"]),
        ),
        slackvm_unallocated=UnallocatedShares(
            cpu=float(data["slackvm_unallocated"]["cpu"]),
            mem=float(data["slackvm_unallocated"]["mem"]),
        ),
        pooled_placements=int(data["pooled_placements"]),
    )


@dataclass(frozen=True)
class CellResult:
    """Outcome (or captured failure) of one sweep cell.

    ``status`` is ``"ok"`` — ``outcome`` set by a §VII-B cell, ``rows``
    (one JSON dict per oversubscription strategy) by a §VIII cell — or
    ``"failed"`` (``error`` set to ``{"type", "message", "traceback"}``).
    A failed cell is a *result*, not an exception: sibling cells keep
    running and the failure — including the seed needed to replay it —
    is checkpointed like any other record.
    """

    provider: str
    mix_label: str
    mix: LevelMix
    seed: int
    status: str
    outcome: Optional[DistributionOutcome] = None
    rows: Optional[tuple[Mapping, ...]] = None
    error: Optional[Mapping] = None
    #: Volatile wall-clock; excluded from serialization *and* equality.
    elapsed_s: float = field(default=0.0, compare=False)

    @property
    def key(self) -> str:
        return f"{self.provider}/{self.mix_label}/{self.seed}"

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    def to_record(self) -> dict:
        """The deterministic checkpoint record (no wall-clock fields)."""
        record = {
            "kind": "cell",
            "key": self.key,
            "provider": self.provider,
            "mix_label": self.mix_label,
            "mix": list(self.mix),
            "seed": self.seed,
            "status": self.status,
        }
        if self.outcome is not None:
            record["outcome"] = outcome_to_dict(self.outcome)
        if self.rows is not None:
            record["rows"] = [dict(row) for row in self.rows]
        if self.error is not None:
            record["error"] = dict(self.error)
        return record

    @classmethod
    def from_record(cls, record: Mapping, elapsed_s: float = 0.0) -> "CellResult":
        status = record.get("status")
        if status not in (STATUS_OK, STATUS_FAILED):
            raise RunnerError(f"cell record has invalid status {status!r}")
        outcome, rows = record.get("outcome"), record.get("rows")
        return cls(
            provider=record["provider"],
            mix_label=record["mix_label"],
            mix=tuple(float(s) for s in record["mix"]),  # type: ignore[arg-type]
            seed=int(record["seed"]),
            status=status,
            outcome=None if outcome is None else outcome_from_dict(outcome),
            rows=None if rows is None else tuple(rows),
            error=record.get("error"),
            elapsed_s=elapsed_s,
        )
