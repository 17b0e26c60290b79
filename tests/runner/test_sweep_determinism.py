"""Differential tests: serial vs parallel sweeps are bit-identical.

The runner's core contract — cell results are a pure function of the
spec, for any worker count and completion order — is asserted at the
strongest level available: byte equality of the sorted checkpoint
lines, and object equality of the results and figure reductions.
"""

from pathlib import Path

from repro.obs.metrics import MetricsRegistry
from repro.api import RunSpec, SweepSpec, run_sweep

SPEC = SweepSpec(
    providers=("ovhcloud",),
    mixes=("A", "F", "O"),
    seeds=(42, 7),
    base=RunSpec(target_population=40),
)


def _sorted_lines(path: Path) -> list[str]:
    return sorted(path.read_text(encoding="utf-8").splitlines())


def test_serial_vs_parallel_checkpoints_byte_identical(tmp_path):
    serial = run_sweep(SPEC, workers=1, out=str(tmp_path / "serial.jsonl"))
    parallel = run_sweep(SPEC, workers=4, out=str(tmp_path / "parallel.jsonl"))
    assert serial.ok and parallel.ok
    assert len(serial.results) == len(parallel.results) == 6
    assert _sorted_lines(tmp_path / "serial.jsonl") == _sorted_lines(
        tmp_path / "parallel.jsonl"
    )
    # Object-level equality too (JSON round-trip is lossless).
    assert serial.results == parallel.results
    assert serial.fig3() == parallel.fig3()
    assert serial.fig4() == parallel.fig4()


def test_runner_metrics_progress_and_throughput(tmp_path):
    metrics = MetricsRegistry()
    lines: list[str] = []
    result = run_sweep(SPEC, workers=1, metrics=metrics, progress=lines.append)
    assert result.ok
    snap = metrics.to_dict()
    assert snap["runner.cells_total"]["value"] == 6
    assert snap["runner.cells_done"]["value"] == 6
    assert "runner.cells_failed" not in snap
    assert snap["runner.cell_seconds"]["count"] == 6
    assert snap["runner.throughput_cells_per_s"]["value"] > 0
    assert snap["runner.sweep_wall"]["count"] == 1
    assert len(lines) == 6
    assert "[6/6]" in lines[-1] and "-> ok" in lines[-1]
