"""Trace (de)serialization tests."""

import pytest

from repro.core import ConfigError, WorkloadError
from repro.workload import (
    AZURE,
    WorkloadParams,
    generate_workload,
    iter_trace,
    load_trace,
    save_trace,
)
from repro.workload.traces import vm_from_dict, vm_to_dict


@pytest.fixture
def trace():
    return generate_workload(
        WorkloadParams(catalog=AZURE, level_mix="E", target_population=50, seed=1)
    )


def test_roundtrip_preserves_trace(tmp_path, trace):
    path = tmp_path / "trace.jsonl"
    save_trace(trace, path)
    loaded = load_trace(path)
    for orig, back in zip(trace, loaded):
        assert vm_to_dict(orig) == vm_to_dict(back)


def test_iter_trace_streams(tmp_path, trace):
    path = tmp_path / "trace.jsonl"
    save_trace(trace, path)
    it = iter_trace(path)
    first = next(it)
    assert first.vm_id == trace[0].vm_id


def test_dict_roundtrip_single():
    vm = generate_workload(
        WorkloadParams(catalog=AZURE, level_mix="A", target_population=10, seed=2)
    )[0]
    assert vm_to_dict(vm_from_dict(vm_to_dict(vm))) == vm_to_dict(vm)


def test_missing_fields_rejected():
    with pytest.raises(WorkloadError):
        vm_from_dict({"vm_id": "x", "vcpus": 1})


def test_invalid_json_line_reports_location(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"vm_id": "a", "vcpus": 1, "mem_gb": 1, "ratio": 1, "arrival": 0}\nnot-json\n')
    with pytest.raises(WorkloadError, match="bad.jsonl:2"):
        list(iter_trace(path))


def test_nan_departure_row_rejected(tmp_path):
    """``json`` parses a bare ``NaN``; the trace must not carry it into
    the event list, where it would sit out of order."""
    path = tmp_path / "nan.jsonl"
    path.write_text(
        '{"vm_id": "a", "vcpus": 1, "mem_gb": 1.0, "ratio": 1.0, "arrival": 0,'
        ' "departure": NaN}\n'
    )
    with pytest.raises(ConfigError, match="must be finite"):
        load_trace(path)


def test_blank_lines_ignored(tmp_path):
    path = tmp_path / "gaps.jsonl"
    path.write_text(
        '{"vm_id": "a", "vcpus": 1, "mem_gb": 1.0, "ratio": 2.0, "arrival": 0}\n'
        "\n"
        '{"vm_id": "b", "vcpus": 2, "mem_gb": 4.0, "ratio": 1.0, "arrival": 5}\n'
    )
    loaded = load_trace(path)
    assert [vm.vm_id for vm in loaded] == ["a", "b"]
    assert loaded[0].level.ratio == 2.0


def test_defaults_for_optional_fields(tmp_path):
    path = tmp_path / "minimal.jsonl"
    path.write_text('{"vm_id": "a", "vcpus": 1, "mem_gb": 1.0, "ratio": 1.0, "arrival": 0}\n')
    vm = load_trace(path)[0]
    assert vm.departure is None
    assert vm.usage_kind == "stress"


_ROW = '{"vm_id": "a", "vcpus": 1, "mem_gb": 1.0, "ratio": 1.0, "arrival": 0%s}'


@pytest.mark.parametrize(
    "line, match",
    [
        (_ROW % ', "departur": 3.0', "unknown trace row fields"),  # would never depart
        (_ROW.replace('"vcpus": 1', '"vcpus": 2.5') % "", "whole number"),
        ("[1, 2, 3]", "must be a mapping"),
    ],
    ids=["unknown-field", "fractional-vcpus", "not-an-object"],
)
def test_malformed_rows_are_workload_errors(tmp_path, line, match):
    path = tmp_path / "bad.jsonl"
    path.write_text(line + "\n")
    with pytest.raises(WorkloadError, match=match):
        load_trace(path)
