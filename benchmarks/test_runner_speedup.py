"""Runner scaling: a 16-cell Fig.4-style sweep at 1 vs 4 workers.

Demonstrates the acceptance criterion of the parallel runner: on a
machine with >= 4 cores, sharding the sweep over 4 worker processes
cuts wall clock by >= 2x while the sorted checkpoint stays
byte-identical to the serial run (the determinism contract).

On smaller machines the speedup assertion is skipped, but the parity
check always runs and the measured numbers are published to
``benchmarks/results/runner_speedup.txt`` either way.
"""

import os
import time
from pathlib import Path

import pytest

from conftest import RESULTS_DIR, publish
from repro.api import RunSpec, SweepSpec, run_sweep

# 8 mixes x 2 seeds = 16 cells, each hiding a minimal_cluster search
# for the baseline levels plus the shared cluster.
SPEC = SweepSpec(
    base=RunSpec(target_population=400),
    providers=("ovhcloud",),
    mixes=("A", "C", "E", "F", "H", "J", "M", "O"),
    seeds=(42, 7),
)
CORES = os.cpu_count() or 1


def _timed_sweep(workers: int, out: Path) -> tuple[float, "object"]:
    started = time.perf_counter()
    result = run_sweep(SPEC, workers=workers, out=str(out))
    return time.perf_counter() - started, result


def test_runner_speedup(tmp_path):
    serial_s, serial = _timed_sweep(1, tmp_path / "serial.jsonl")
    parallel_s, parallel = _timed_sweep(4, tmp_path / "parallel.jsonl")
    assert serial.ok and parallel.ok

    serial_lines = sorted((tmp_path / "serial.jsonl").read_text().splitlines())
    parallel_lines = sorted((tmp_path / "parallel.jsonl").read_text().splitlines())
    assert serial_lines == parallel_lines  # bit-identical sorted JSONL

    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    publish(
        "runner_speedup",
        "\n".join(
            [
                f"16-cell fig4-style sweep ({SPEC.target_population} VMs/cell), "
                f"{CORES} cores available",
                f"  --workers 1 : {serial_s:7.2f}s",
                f"  --workers 4 : {parallel_s:7.2f}s",
                f"  speedup     : {speedup:7.2f}x",
                "  sorted checkpoints byte-identical: yes",
            ]
        ),
    )
    if CORES < 4:
        pytest.skip(f"only {CORES} core(s); speedup demonstrated in CI")
    assert speedup >= 2.0
