"""Micro-benchmark harness for the repro engines (``repro bench``).

Currently one target: ``repro bench engine`` profiles the vector
engine's events/sec against cluster size for the incremental kernel
vs the naive reference across every policy, verifying placement
equality as it measures, with an optional datacenter-scale tier
(50k/100k hosts) that adds a peak-RSS memory column.  The committed ``BENCH_engine.json`` at the repo root is this
harness's output and the CI perf-smoke baseline.
"""

from repro.bench.engine import (
    EngineBenchSpec,
    compare_engine_bench,
    crossover_report,
    run_engine_bench,
)

__all__ = [
    "EngineBenchSpec",
    "run_engine_bench",
    "compare_engine_bench",
    "crossover_report",
]
