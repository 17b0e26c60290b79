"""Bit-level pins for every generated trace the front doors consume.

Each pin is the sha256 of a stream of canonical JSON rows, in the order
the generator produced them: ``vm_to_dict`` of every VM of
``build_workload(spec)`` for 2 providers × mixes A/F/K/O × seeds 0/1 at
population 250 plus the ``vector_5k`` benchmark spec, and one
:class:`~repro.serving.RequestSource` window (gap, flavor, level,
arrival, lifetime per request).  A speed-up of ``repro.workload`` or
``repro.serving.generator`` must leave ``data/trace_pins.json``
untouched; regenerate it (only for an intended change of the random
stream) with ``PYTHONPATH=src python tests/workload/test_trace_pins.py``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.api import RunSpec, build_workload
from repro.core.spec import canonical_json
from repro.serving import RequestSource
from repro.serving.config import DiurnalConfig, RVConfig, TrafficConfig
from repro.workload import AZURE
from repro.workload.traces import vm_to_dict

PINS = Path(__file__).resolve().parent / "data" / "trace_pins.json"

TRACE_SPECS = {
    f"{provider}/{mix}/seed{seed}": RunSpec(
        provider=provider, mix=mix, target_population=250, seed=seed
    )
    for provider in ("azure", "ovhcloud")
    for mix in ("A", "F", "K", "O")
    for seed in (0, 1)
}
#: perf/workloads.py's ``vector_5k`` spec at seed 7.
TRACE_SPECS["vector_5k/seed7"] = RunSpec(
    provider="azure", mix=(40, 30, 30), target_population=6000,
    num_hosts=5000, host_cpus=48, host_mem_gb=192.0, seed=7,
)
SOURCE_KEY = "request_source/azure/40,30,30/seed5"


def sha(rows) -> str:
    digest = hashlib.sha256()
    for row in rows:
        digest.update(canonical_json(row).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def trace_pin(spec: RunSpec) -> str:
    return sha(vm_to_dict(vm) for vm in build_workload(spec))


def source_pin() -> str:
    traffic = TrafficConfig(
        RVConfig("exponential", 1.0 / 40.0), RVConfig("exponential", 20.0), DiurnalConfig(0.25)
    )
    source = RequestSource(AZURE, (40, 30, 30), traffic, seed=5)
    return sha(
        [gap, r.req_id, r.spec.vcpus, r.spec.mem_gb, r.level.ratio, r.arrival, r.lifetime]
        for gap, r in source.window(60.0)
    )


def compute_pins() -> dict:
    pins = {key: trace_pin(spec) for key, spec in TRACE_SPECS.items()}
    pins[SOURCE_KEY] = source_pin()
    return pins


@pytest.fixture(scope="module")
def pins() -> dict:
    return json.loads(PINS.read_text(encoding="utf-8"))


@pytest.mark.parametrize("key", sorted(TRACE_SPECS))
def test_trace_is_pinned(pins, key):
    assert trace_pin(TRACE_SPECS[key]) == pins[key]


def test_request_source_stream_is_pinned(pins):
    assert source_pin() == pins[SOURCE_KEY]


def test_pins_cover_exactly_the_pinned_streams(pins):
    assert set(pins) == set(TRACE_SPECS) | {SOURCE_KEY}


if __name__ == "__main__":
    PINS.parent.mkdir(exist_ok=True)
    recorded = compute_pins()
    PINS.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(recorded)} pins to {PINS}")
