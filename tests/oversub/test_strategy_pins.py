"""Bit-level pins for all four strategies on the vector engine.

``test_golden_static.py`` pins only ``StaticRatio``; this file pins
``percentile`` / ``doa`` / ``greedy`` too.  One small scarce spec
(rejections, violations, alerts and back-offs all occur) is run per
strategy and three things are compared with
``data/strategy_pins.json``: ``sha256(result_stream)``, the
``OversubSummary`` (``eff_ratio_mean`` to the last bit — JSON floats
round-trip exactly), and the sha256 of every effective-capacity vector
the controller applied, in update order.  A refactor of
``repro.oversub`` must leave the file untouched; regenerate it (only
for an intended behaviour change) with
``PYTHONPATH=src python tests/oversub/test_strategy_pins.py``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from repro.api import RunSpec, run
from repro.oversub import STRATEGIES, OversubController
from repro.simulator.conformance import result_stream

PINS = Path(__file__).resolve().parent / "data" / "strategy_pins.json"
ENGINES = ("vector",)


def pin_spec(strategy: str, engine: str) -> RunSpec:
    return RunSpec(
        provider="azure",
        mix=(20, 30, 50),
        target_population=60,
        num_hosts=8,
        host_cpus=8,
        host_mem_gb=32.0,
        oversub=strategy,
        oversub_update_every=1800.0,
        engine=engine,
        seed=3,
    )


class RecordingTarget:
    """``CapacityTarget`` wrapper hashing every applied vector."""

    def __init__(self, inner, digest):
        self.inner = inner
        self.digest = digest
        self.placements = inner.placements
        self.physical_capacity = inner.physical_capacity
        self.allocated_capacity = inner.allocated_capacity

    def apply_effective_capacity(self, eff):
        self.digest.update(np.asarray(eff, dtype=float).tobytes())
        self.inner.apply_effective_capacity(eff)


def compute_pin(strategy: str, engine: str) -> dict:
    """Run the pinned spec with every ``advance`` routed through a
    :class:`RecordingTarget`."""
    digest = hashlib.sha256()
    advance = OversubController.advance

    def recording_advance(self, target, now):
        advance(self, RecordingTarget(target, digest), now)

    with mock.patch.object(OversubController, "advance", recording_advance):
        result = run(pin_spec(strategy, engine))
    return {
        "stream_sha256": hashlib.sha256(
            result_stream(result).encode("utf-8")
        ).hexdigest(),
        "summary": result.oversub.to_dict(),
        "eff_sha256": digest.hexdigest(),
    }


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_strategy_is_pinned(strategy, engine):
    pins = json.loads(PINS.read_text(encoding="utf-8"))
    assert compute_pin(strategy, engine) == pins[f"{strategy}/{engine}"]


if __name__ == "__main__":
    PINS.parent.mkdir(exist_ok=True)
    recorded = {
        f"{strategy}/{engine}": compute_pin(strategy, engine)
        for strategy in sorted(STRATEGIES)
        for engine in ENGINES
    }
    PINS.write_text(json.dumps(recorded, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(recorded)} pins to {PINS}")
