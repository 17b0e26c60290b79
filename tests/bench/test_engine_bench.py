"""Unit tests for the ``repro bench engine`` harness (`repro.bench`)."""

import pytest

from repro.bench import (
    EngineBenchSpec,
    compare_engine_bench,
    crossover_report,
    run_engine_bench,
)
from repro.bench.engine import SCHEMA, BenchError


@pytest.fixture(scope="module")
def payload():
    # Tiny grid: enough to exercise generation, both kernels, the
    # per-cell verification and the payload shape.
    spec = EngineBenchSpec(
        hosts=(12,), policies=("progress", "first_fit"), vms_per_host=2.0,
        host_cpus=16, host_mem_gb=64.0, warmup_vms=5,
    )
    return run_engine_bench(spec)


def test_payload_shape(payload):
    assert payload["schema"] == SCHEMA
    assert len(payload["cells"]) == 2
    for cell in payload["cells"]:
        assert cell["verified"]
        assert cell["num_events"] > 0
        assert cell["tier"] == "standard"
        assert set(cell["kernels"]) == {"incremental", "naive"}
        for arm in cell["kernels"].values():
            assert arm["wall_s"] > 0
            assert arm["events_per_s"] > 0
            assert arm["select_mean_us"] >= 0
            assert arm["select_ops_per_s"] >= 0
            assert arm["peak_rss_mb"] > 0
        assert set(cell["speedups"]) == {"incremental"}
        for kernel, ratio in cell["speedups"].items():
            assert ratio == pytest.approx(
                cell["kernels"]["naive"]["wall_s"]
                / cell["kernels"][kernel]["wall_s"]
            )
        # Legacy schema-1 column: the incremental-vs-naive ratio.
        assert cell["speedup"] == cell["speedups"]["incremental"]
    head = payload["headline"]
    assert head["policy"] in ("progress", "first_fit")
    assert head["num_hosts"] == 12
    assert set(head["speedups"]) == {"incremental"}
    assert payload["environment"]["cpus"] >= 1


def test_headline_prefers_progress_at_largest_size(payload):
    assert payload["headline"]["policy"] == "progress"


def test_scale_tier_cells():
    spec = EngineBenchSpec(
        hosts=(8,), policies=("first_fit",), vms_per_host=2.0, warmup_vms=0,
        scale_hosts=(16,), scale_policies=("first_fit",),
        scale_vms_per_host=1.0, scale_warmup_vms=0,
    )
    payload = run_engine_bench(spec)
    tiers = {(c["num_hosts"], c["tier"]) for c in payload["cells"]}
    assert tiers == {(8, "standard"), (16, "scale")}
    assert payload["grid"]["scale_hosts"] == [16]
    assert payload["grid"]["scale_policies"] == ["first_fit"]


def test_progress_callback_gets_one_line_per_cell():
    lines = []
    spec = EngineBenchSpec(hosts=(8,), policies=("first_fit",),
                           vms_per_host=2.0, warmup_vms=0)
    run_engine_bench(spec, progress=lines.append)
    assert len(lines) == 1
    assert "first_fit" in lines[0]


def test_spec_validation():
    with pytest.raises(BenchError):
        EngineBenchSpec(policies=("nope",))
    with pytest.raises(BenchError):
        EngineBenchSpec(scale_policies=("nope",))
    with pytest.raises(BenchError):
        EngineBenchSpec(provider="nope")
    with pytest.raises(BenchError):
        EngineBenchSpec(hosts=())
    with pytest.raises(BenchError):
        EngineBenchSpec(hosts=(0,))
    with pytest.raises(BenchError):
        EngineBenchSpec(scale_hosts=(0,))


def _fake(cells):
    return {
        "schema": SCHEMA,
        "cells": [
            {
                "num_hosts": n,
                "policy": p,
                "speedup": s["incremental"],
                "speedups": dict(s),
            }
            for n, p, s in cells
        ],
    }


def test_compare_passes_within_tolerance():
    baseline = _fake([(500, "progress", {"incremental": 3.0})])
    current = _fake([(500, "progress", {"incremental": 1.6})])
    assert compare_engine_bench(current, baseline, tolerance=0.5) == []


def test_compare_flags_regression_per_kernel():
    baseline = _fake([
        (500, "progress", {"incremental": 3.0}),
        (500, "best_fit", {"incremental": 3.0}),
    ])
    current = _fake([
        (500, "progress", {"incremental": 1.4}),
        (500, "best_fit", {"incremental": 2.9}),
    ])
    problems = compare_engine_bench(current, baseline, tolerance=0.5)
    assert len(problems) == 1
    assert "kernel=incremental" in problems[0]
    assert "progress" in problems[0]


def test_compare_marks_known_crossover_cells():
    baseline = _fake([(500, "first_fit", {"incremental": 0.95})])
    current = _fake([(500, "first_fit", {"incremental": 0.40})])
    problems = compare_engine_bench(current, baseline, tolerance=0.5)
    assert len(problems) == 1
    assert "known crossover cell" in problems[0]


def test_compare_ignores_cells_missing_from_baseline():
    ok = {"incremental": 3.0}
    baseline = _fake([(500, "progress", ok)])
    current = _fake([(500, "progress", ok), (9999, "best_fit", {"incremental": 0.1})])
    assert compare_engine_bench(current, baseline) == []


def test_compare_requires_at_least_one_matching_cell():
    baseline = _fake([(500, "progress", {"incremental": 3.0})])
    current = _fake([(123, "worst_fit", {"incremental": 5.0})])
    problems = compare_engine_bench(current, baseline)
    assert len(problems) == 1
    assert "no benchmark cell matches" in problems[0]


def test_compare_rejects_schema_mismatch_and_bad_tolerance():
    good = _fake([(500, "progress", {"incremental": 3.0})])
    with pytest.raises(BenchError):
        compare_engine_bench({"schema": 999, "cells": []}, good)
    with pytest.raises(BenchError):
        compare_engine_bench(good, good, tolerance=1.5)


def test_crossover_report_lists_sub_1x_cells_only():
    payload = _fake([
        (500, "first_fit", {"incremental": 0.97}),
        (5000, "progress", {"incremental": 3.0}),
    ])
    lines = crossover_report(payload)
    assert len(lines) == 1
    assert "first_fit" in lines[0] and "incremental" in lines[0]
    assert "crossover" in lines[0]
