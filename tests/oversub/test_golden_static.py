"""StaticRatio golden-trace conformance (the acceptance criterion).

``StaticRatio(1.0)`` sets every host's effective capacity to physical —
exactly the capacities the engines already use — so enabling the
dynamic-oversubscription loop with it must be a **structural no-op**:
the recorded decision stream stays byte-identical to the frozen golden
corpus on both vector kernels (the object engine models no dynamic
oversubscription; ``tests/simulator/test_golden_trace.py`` pins it
against the same corpus).  This is the contract that makes the
dynamic layer safe to ship default-off: the paper-baseline
configuration cannot drift.
"""

from __future__ import annotations

import io
import json
from pathlib import Path

import pytest

from repro.hardware import MachineSpec
from repro.obs.records import JsonlRecorder
from repro.oversub import OversubParams, StaticRatio
from repro.simulator import VectorSimulation
from repro.simulator.vectorpool import POLICIES
from repro.workload.traces import load_trace

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "fixtures" / "golden"

# A cadence that actually fires during the golden trace — the no-op
# must hold because each update applies identical capacities, not
# because no update ever runs.
STATIC = dict(update_every=900.0, samples_per_window=4)


@pytest.fixture(scope="module")
def workload():
    return load_trace(GOLDEN_DIR / "trace.jsonl")


@pytest.fixture(scope="module")
def machines():
    manifest = json.loads((GOLDEN_DIR / "manifest.json").read_text(encoding="utf-8"))
    return [
        MachineSpec(m["name"], m["cpus"], m["mem_gb"]) for m in manifest["machines"]
    ]


@pytest.mark.parametrize("kernel", ["incremental", "naive"])
@pytest.mark.parametrize("policy", POLICIES)
def test_vector_static_ratio_is_byte_identical(machines, workload, policy, kernel):
    sink = io.StringIO()
    result = VectorSimulation(
        machines,
        policy=policy,
        kernel=kernel,
        recorder=JsonlRecorder(sink),
        oversub=OversubParams(StaticRatio(), **STATIC),
    ).run(workload)
    golden = (GOLDEN_DIR / f"{policy}.jsonl").read_text(encoding="utf-8")
    assert sink.getvalue() == golden
    # The controller genuinely ran — the identity is not vacuous.
    assert result.oversub is not None
    assert result.oversub.updates > 0
    assert result.oversub.eff_ratio_mean == pytest.approx(1.0)
