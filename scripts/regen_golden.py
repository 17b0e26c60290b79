#!/usr/bin/env python
"""Regenerate the golden decision-trace corpus.

Usage::

    PYTHONPATH=src python scripts/regen_golden.py

Freezes, under ``tests/fixtures/golden/``:

* ``trace.jsonl`` — a small seeded workload (the *frozen trace*; the
  conformance suite replays this file, never the RNG, so fixture
  stability does not depend on numpy's bit-stream across versions);
* ``<policy>.jsonl`` — one JSON-Lines decision stream per placement
  policy, recorded with the **naive** reference kernel
  (:mod:`repro.simulator.refkernel`), the oracle;
* ``manifest.json`` — cluster shape, per-policy summaries and the
  generation parameters, for provenance.

``tests/simulator/test_golden_trace.py`` replays the frozen trace
through the incremental kernel (byte-identical stream required), the
naive kernel (ditto) and the object engine (field-level diff via
:func:`repro.obs.audit.diff_decision_streams`).

Additionally freezes the **scale tier** under
``tests/fixtures/golden/scale/``: a 5000-host trace and one canonical
*result stream* per policy (:func:`repro.simulator.conformance.
result_stream`), recorded with the naive kernel in an unrecorded run.
A recorded run computes the full per-host tables instead of calling
``VectorCluster.select``, so only these result-stream fixtures pin the
shape-cache selection code that production runs execute;
``tests/simulator/test_scale_golden.py`` replays them for both
kernels, byte-for-byte.

Regenerate only when a *deliberate* decision-semantics change lands,
and say so in the commit message.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.hardware import MachineSpec  # noqa: E402
from repro.obs.records import JsonlRecorder  # noqa: E402
from repro.simulator import VectorSimulation  # noqa: E402
from repro.simulator.vectorpool import POLICIES  # noqa: E402
from repro.workload.catalog import AZURE  # noqa: E402
from repro.workload.generator import WorkloadParams, generate_workload  # noqa: E402
from repro.workload.traces import load_trace, save_trace  # noqa: E402

GOLDEN_DIR = REPO / "tests" / "fixtures" / "golden"
SCALE_DIR = GOLDEN_DIR / "scale"

#: Generation parameters.  Chosen (seed scan) so every policy rejects
#: at least one VM and most exercise §V-B pooling — the corpus must
#: cover all three admission kinds, not just the happy path.
SEED = 2030
TARGET_POPULATION = 40
LEVEL_MIX = (40, 30, 30)
NUM_HOSTS = 5
HOST_CPUS = 16
HOST_MEM_GB = 64.0

#: Scale tier: enough hosts that the first-fit block scan and the
#: shape cache's mutation-log replay run for real, with a workload
#: small enough that the naive oracle regenerates in seconds.
SCALE_SEED = 2031
SCALE_TARGET_POPULATION = 1200
SCALE_NUM_HOSTS = 5000
SCALE_HOST_CPUS = 48
SCALE_HOST_MEM_GB = 192.0


def machines() -> list[MachineSpec]:
    return [MachineSpec(f"pm-{i}", HOST_CPUS, HOST_MEM_GB) for i in range(NUM_HOSTS)]


def scale_machines() -> list[MachineSpec]:
    return [
        MachineSpec(f"pm-{i}", SCALE_HOST_CPUS, SCALE_HOST_MEM_GB)
        for i in range(SCALE_NUM_HOSTS)
    ]


def main() -> int:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    params = WorkloadParams(
        catalog=AZURE,
        level_mix=LEVEL_MIX,
        target_population=TARGET_POPULATION,
        seed=SEED,
    )
    save_trace(generate_workload(params), GOLDEN_DIR / "trace.jsonl")
    # Record from the *loaded* trace — the exact objects the test will
    # replay — so a lossy round-trip can never hide behind regen.
    workload = load_trace(GOLDEN_DIR / "trace.jsonl")

    summaries = {}
    for policy in POLICIES:
        stream = GOLDEN_DIR / f"{policy}.jsonl"
        with JsonlRecorder(stream) as recorder:
            result = VectorSimulation(
                machines(), policy=policy, kernel="naive", recorder=recorder
            ).run(workload)
        summaries[policy] = {
            "placed": len(result.placements),
            "rejected": len(result.rejections),
            "pooled": result.pooled_placements,
        }
        print(f"{policy:20s} {summaries[policy]}")

    manifest = {
        "seed": SEED,
        "catalog": "azure",
        "level_mix": list(LEVEL_MIX),
        "target_population": TARGET_POPULATION,
        "num_vms": len(workload),
        "machines": [
            {"name": m.name, "cpus": m.cpus, "mem_gb": m.mem_gb} for m in machines()
        ],
        "policies": summaries,
    }
    (GOLDEN_DIR / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {len(POLICIES)} streams + trace + manifest to {GOLDEN_DIR}")
    regen_scale_tier()
    return 0


def regen_scale_tier() -> None:
    from repro.simulator.conformance import result_stream

    SCALE_DIR.mkdir(parents=True, exist_ok=True)
    params = WorkloadParams(
        catalog=AZURE,
        level_mix=LEVEL_MIX,
        target_population=SCALE_TARGET_POPULATION,
        seed=SCALE_SEED,
    )
    save_trace(generate_workload(params), SCALE_DIR / "trace.jsonl")
    workload = load_trace(SCALE_DIR / "trace.jsonl")

    summaries = {}
    for policy in POLICIES:
        # The naive kernel through the *uninstrumented* loop is the
        # oracle: no recorder, so the engine takes the same run loop
        # the fast kernels use in production.
        result = VectorSimulation(
            scale_machines(), policy=policy, kernel="naive"
        ).run(workload)
        (SCALE_DIR / f"{policy}.stream").write_text(
            result_stream(result), encoding="utf-8"
        )
        summaries[policy] = {
            "placed": len(result.placements),
            "rejected": len(result.rejections),
            "pooled": result.pooled_placements,
        }
        print(f"scale/{policy:20s} {summaries[policy]}")

    manifest = {
        "seed": SCALE_SEED,
        "catalog": "azure",
        "level_mix": list(LEVEL_MIX),
        "target_population": SCALE_TARGET_POPULATION,
        "num_vms": len(workload),
        "num_hosts": SCALE_NUM_HOSTS,
        "host_cpus": SCALE_HOST_CPUS,
        "host_mem_gb": SCALE_HOST_MEM_GB,
        "policies": summaries,
    }
    (SCALE_DIR / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {len(POLICIES)} result streams + trace + manifest to {SCALE_DIR}")


if __name__ == "__main__":
    raise SystemExit(main())
