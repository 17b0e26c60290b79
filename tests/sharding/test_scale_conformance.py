"""Merge conformance at 2/4/8 shards over the 5000-host scale fixture.

The sharded dispatcher changes *which* host a VM lands on (each shard
packs its own block), so its stream cannot match the unsharded golden
— what must hold instead is the determinism contract: for every shard
count the merged result is a pure function of (plan, workload, seed),
accounting closes, placements stay inside their owning shard's block,
and the event timeline keeps one sample per global event.  Run with
``-m slow``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.hardware import MachineSpec
from repro.sharding import ShardedSimulation
from repro.simulator import KERNELS, result_stream
from repro.workload.traces import load_trace

SCALE_DIR = Path(__file__).resolve().parent.parent / "fixtures" / "golden" / "scale"

pytestmark = pytest.mark.slow

SHARD_COUNTS = (2, 4, 8)


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


@pytest.fixture(scope="module")
def streams(machines, workload):
    # One inline run per shard count, shared across the assertions
    # below — at 5000 hosts each run is the expensive part.
    out = {}
    for shards in SHARD_COUNTS:
        sim = ShardedSimulation(
            machines, shards=shards, workers=1, seed=1234
        )
        result = sim.run(workload)
        out[shards] = (sim, result, result_stream(result))
    return out


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_merged_run_is_seed_reproducible(streams, machines, workload, shards):
    _, _, stream = streams[shards]
    again = ShardedSimulation(
        machines, shards=shards, workers=1, seed=1234
    ).run(workload)
    assert result_stream(again) == stream


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_accounting_closes_at_scale(streams, workload, shards):
    _, result, _ = streams[shards]
    assert len(result.placements) + len(result.rejections) == len(workload)
    n_events = len(workload) + sum(1 for vm in workload if vm.departure is not None)
    assert len(result.timeline.times) == n_events


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_placements_stay_inside_shard_blocks(streams, workload, shards):
    sim, result, _ = streams[shards]
    _, _, sub = sim._route(list(workload))
    owner = {vm.vm_id: s for s, vms in enumerate(sub) for vm in vms}
    for vm_id, rec in result.placements.items():
        block = sim.plan.block(owner[vm_id])
        assert block.start <= rec.host < block.stop


def test_distinct_shard_counts_disagree(streams):
    # Sanity on the fixture itself: the plans genuinely differ, so the
    # reproducibility assertions above are not vacuous.
    unique = {stream for _, _, stream in streams.values()}
    assert len(unique) == len(SHARD_COUNTS)


def test_kernels_agree_under_sharding(machines, workload):
    # The kernel seam is per-shard: every kernel must merge to the
    # same stream for the same plan.
    base = None
    for kernel in KERNELS:
        stream = result_stream(
            ShardedSimulation(
                machines, shards=4, kernel=kernel, workers=1, seed=1234
            ).run(workload)
        )
        base = stream if base is None else base
        assert stream == base
