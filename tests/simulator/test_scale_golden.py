"""Scale-tier golden conformance: 5000 hosts, byte-level, every kernel.

The main golden corpus (``tests/fixtures/golden/``) locks the
*recorded* decision stream — but a recorded run computes the full
per-host tables for every arrival, so the shape-keyed score cache
behind ``VectorCluster.select`` never executes under it.  These
fixtures lock the other path: each ``scale/<policy>.stream`` is the
canonical result stream (:func:`repro.simulator.conformance.
result_stream` — placements in arrival order, rejections, SHA-256 of
the float64 allocation timeline) of an **unrecorded** naive-kernel
run over a frozen 5000-host trace, and every kernel must reproduce it
byte-for-byte.  At 5000 hosts the shape cache's mutation-log replay
and the first-fit block scan run for real.

Regenerate (deliberate semantics changes only):
``PYTHONPATH=src python scripts/regen_golden.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.hardware import MachineSpec
from repro.simulator import VectorSimulation, result_stream
from repro.simulator.vectorpool import KERNELS, POLICIES
from repro.workload.traces import load_trace

SCALE_DIR = Path(__file__).resolve().parent.parent / "fixtures" / "golden" / "scale"

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def manifest() -> dict:
    return json.loads((SCALE_DIR / "manifest.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def workload():
    return load_trace(SCALE_DIR / "trace.jsonl")


@pytest.fixture(scope="module")
def machines(manifest):
    return [
        MachineSpec(f"pm-{i}", manifest["host_cpus"], manifest["host_mem_gb"])
        for i in range(manifest["num_hosts"])
    ]


def test_corpus_covers_every_policy(manifest):
    assert sorted(manifest["policies"]) == sorted(POLICIES)
    for policy in POLICIES:
        assert (SCALE_DIR / f"{policy}.stream").is_file()


def test_manifest_matches_trace(manifest, workload):
    assert manifest["num_vms"] == len(workload)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("policy", POLICIES)
def test_kernel_reproduces_stream_byte_identically(
    machines, workload, policy, kernel
):
    golden = (SCALE_DIR / f"{policy}.stream").read_text(encoding="utf-8")
    result = VectorSimulation(machines, policy=policy, kernel=kernel).run(workload)
    assert result_stream(result) == golden
