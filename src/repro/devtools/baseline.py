"""Finding baselines: burn legacy debt down without blocking new work.

A baseline is a committed JSON file mapping finding *fingerprints* to
occurrence counts.  ``repro lint --baseline lint-baseline.json``
subtracts baselined occurrences from the current findings, so legacy
violations don't fail the build while any **new** violation does.

Fingerprints are line-number-free — ``rule_id:path:stripped source
line`` — so unrelated edits above a baselined finding don't resurrect
it.  Identical source lines in one file share a fingerprint; the
stored count keeps "one more copy of an already-baselined line" a new
finding.

The determinism rules (R001–R004) admit **zero** suppressions: their
entries are rejected at load time (the violation must be fixed, not
baselined), and :meth:`Baseline.from_findings` refuses to write them.
The determinism-taint rule R013 is also unbaselinable — a wall-clock
value flowing into a replayable artifact is never legacy debt — but,
unlike R001–R004, it accepts an inline pragma with a justifying
comment for flows that are deliberate telemetry.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.core.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.devtools.lint import Finding

__all__ = ["Baseline", "BaselineError", "BASELINE_VERSION"]

BASELINE_VERSION = 1

#: Rules whose findings may never be baselined (determinism rules,
#: plus the determinism-taint rule — pragma-able but not legacy debt).
_UNSUPPRESSABLE: frozenset[str] = frozenset(
    {"R001", "R002", "R003", "R004", "R013"}
)


class BaselineError(ReproError):
    """A baseline file is malformed or contains forbidden entries."""


@dataclass(frozen=True)
class Baseline:
    """An immutable fingerprint -> allowed-occurrence-count table."""

    fingerprints: Mapping[str, int] = field(default_factory=dict)

    @staticmethod
    def load(path: str | Path) -> "Baseline":
        """Read a baseline file, validating schema and rule eligibility."""
        raw = Path(path).read_text(encoding="utf-8")
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise BaselineError(f"baseline {path} is not valid JSON: {exc}") from exc
        # `type(...) is int`, not isinstance: JSON `true` is a bool, and
        # bools pass isinstance(x, int) and equal 1.
        if (
            not isinstance(payload, dict)
            or type(payload.get("version")) is not int
            or payload["version"] != BASELINE_VERSION
        ):
            raise BaselineError(
                f"baseline {path} must be an object with version={BASELINE_VERSION}"
            )
        table = payload.get("findings", {})
        if not isinstance(table, dict):
            raise BaselineError(f"baseline {path}: 'findings' must be an object")
        fingerprints: dict[str, int] = {}
        for fp, count in table.items():
            if type(count) is not int or count < 1:
                raise BaselineError(
                    f"baseline {path}: entry {fp!r}: {count!r} is malformed"
                )
            rule_id = fp.split(":", 1)[0]
            if rule_id in _UNSUPPRESSABLE:
                raise BaselineError(
                    f"baseline {path}: {fp!r} suppresses determinism rule "
                    f"{rule_id}, which admits zero suppressions — fix the "
                    "violation instead"
                )
            fingerprints[fp] = count
        return Baseline(fingerprints)

    @staticmethod
    def from_findings(findings: Iterable["Finding"]) -> "Baseline":
        """Baseline for the given findings (determinism rules refused)."""
        counts: Counter[str] = Counter()
        for finding in findings:
            if finding.rule_id in _UNSUPPRESSABLE:
                raise BaselineError(
                    f"{finding.path}:{finding.line}: determinism rule "
                    f"{finding.rule_id} cannot be baselined — fix the violation"
                )
            counts[finding.fingerprint()] += 1
        return Baseline(dict(counts))

    def save(self, path: str | Path) -> None:
        payload = {
            "version": BASELINE_VERSION,
            "findings": dict(sorted(self.fingerprints.items())),
        }
        Path(path).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )

    def filter_new(self, findings: Iterable["Finding"]) -> list["Finding"]:
        """Findings not covered by this baseline, in input order.

        Each fingerprint's first ``count`` occurrences are absorbed;
        everything beyond that (and every unknown fingerprint) is new.
        """
        budget = dict(self.fingerprints)
        fresh: list["Finding"] = []
        for finding in findings:
            fp = finding.fingerprint()
            left = budget.get(fp, 0)
            if left > 0:
                budget[fp] = left - 1
            else:
                fresh.append(finding)
        return fresh

    def __len__(self) -> int:
        return sum(self.fingerprints.values())
