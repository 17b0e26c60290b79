"""Golden decision-trace conformance suite.

``tests/fixtures/golden/`` holds a frozen workload trace plus one
JSON-Lines decision stream per policy, recorded by
``scripts/regen_golden.py`` with the **naive** reference kernel — the
pre-change oracle.  These tests replay the frozen trace and require:

* the incremental kernel's recorded stream to be **byte-identical**
  to the golden file (the kernel's bit-equality contract, end to end
  through JSON serialization);
* the naive kernel to still reproduce its own stream byte-for-byte
  (guards the fixtures against accidental regeneration drift);
* the object engine (``Simulation`` + ``LocalScheduler``) to match the
  golden stream field-by-field under
  :func:`repro.obs.audit.diff_decision_streams` — same candidates,
  same chosen host, same admission kind/level/growth, scores within
  ``SCORE_RTOL`` (the two paths use different float pipelines, so
  byte-identity is deliberately not required there).

Regenerate the corpus only on a deliberate semantics change:
``PYTHONPATH=src python scripts/regen_golden.py``.
"""

from __future__ import annotations

import io
import json
from pathlib import Path

import pytest

from repro.hardware import MachineSpec
from repro.localsched.agent import LocalScheduler
from repro.obs.audit import diff_decision_streams
from repro.obs.records import JsonlRecorder, MemoryRecorder, load_jsonl_records
from repro.scheduling.baselines import scheduler_for_policy
from repro.simulator import VectorSimulation
from repro.simulator.engine import Simulation
from repro.simulator.vectorpool import POLICIES
from repro.workload.traces import load_trace

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "fixtures" / "golden"


@pytest.fixture(scope="module")
def manifest() -> dict:
    return json.loads((GOLDEN_DIR / "manifest.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def workload():
    return load_trace(GOLDEN_DIR / "trace.jsonl")


@pytest.fixture(scope="module")
def machines(manifest):
    return [
        MachineSpec(m["name"], m["cpus"], m["mem_gb"]) for m in manifest["machines"]
    ]


def _vector_stream(machines, workload, policy: str, kernel: str) -> str:
    sink = io.StringIO()
    result = VectorSimulation(
        machines, policy=policy, kernel=kernel, recorder=JsonlRecorder(sink)
    ).run(workload)
    assert result is not None
    return sink.getvalue()


def test_corpus_covers_every_policy(manifest):
    assert sorted(manifest["policies"]) == sorted(POLICIES)
    for policy in POLICIES:
        assert (GOLDEN_DIR / f"{policy}.jsonl").is_file()


def test_manifest_matches_trace(manifest, workload):
    assert manifest["num_vms"] == len(workload)


def test_corpus_exercises_every_admission_kind(manifest):
    # A corpus without rejections (or without pooling) would silently
    # stop locking down those code paths.
    for policy, stats in manifest["policies"].items():
        assert stats["rejected"] > 0, policy
    assert any(s["pooled"] > 0 for s in manifest["policies"].values())


@pytest.mark.parametrize("policy", POLICIES)
def test_incremental_kernel_is_byte_identical(machines, workload, policy):
    golden = (GOLDEN_DIR / f"{policy}.jsonl").read_text(encoding="utf-8")
    assert _vector_stream(machines, workload, policy, "incremental") == golden


@pytest.mark.parametrize("policy", POLICIES)
def test_naive_kernel_reproduces_its_own_stream(machines, workload, policy):
    golden = (GOLDEN_DIR / f"{policy}.jsonl").read_text(encoding="utf-8")
    assert _vector_stream(machines, workload, policy, "naive") == golden


@pytest.mark.parametrize("policy", POLICIES)
def test_object_engine_matches_golden(machines, workload, policy):
    golden_decisions, golden_admissions = load_jsonl_records(
        GOLDEN_DIR / f"{policy}.jsonl"
    )
    recorder = MemoryRecorder()
    hosts = [LocalScheduler(m) for m in machines]
    Simulation(hosts, scheduler_for_policy(policy), recorder=recorder).run(workload)
    divergences = diff_decision_streams(recorder.decisions, golden_decisions)
    assert not divergences, divergences[0].describe()
    assert recorder.admissions == golden_admissions


@pytest.mark.parametrize("policy", POLICIES)
def test_loader_round_trips_byte_identically(policy):
    # load_jsonl_records → JsonlRecorder must reproduce the exact
    # bytes: this is what makes the loader a trustworthy oracle.
    decisions, admissions = load_jsonl_records(GOLDEN_DIR / f"{policy}.jsonl")
    sink = io.StringIO()
    recorder = JsonlRecorder(sink)
    by_seq = iter(decisions)
    admission_iter = iter(admissions)
    # Interleave exactly as the engine emitted: an admission follows
    # its decision for every non-rejected arrival.
    for decision in by_seq:
        if decision.admission != "rejected":
            recorder.record_admission(next(admission_iter))
        recorder.record_decision(decision)
    assert sink.getvalue() == (GOLDEN_DIR / f"{policy}.jsonl").read_text(
        encoding="utf-8"
    )
