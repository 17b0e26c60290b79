"""Trace (de)serialization tests."""

import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ConfigError, ReproError, WorkloadError
from repro.simulator.events import workload_events
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


_GOOD = {"vm_id": "a", "vcpus": 1, "mem_gb": 1.0, "ratio": 1.0, "arrival": 0}


@pytest.mark.parametrize(
    "key, value, error",
    [
        ("mem_gb", "abc", WorkloadError),
        ("ratio", None, WorkloadError),
        ("arrival", "x", WorkloadError),
        ("mem_gb", math.nan, ConfigError),
        ("mem_gb", math.inf, ConfigError),
        ("usage_param", math.nan, ConfigError),
        ("usage_param", math.inf, ConfigError),
        # float() would read a JSON bool as 1.0 / 0.0.
        ("mem_gb", True, WorkloadError),
        ("ratio", True, WorkloadError),
        ("arrival", True, WorkloadError),
        ("departure", True, WorkloadError),
        ("usage_param", False, WorkloadError),
    ],
)
def test_bad_values_are_refused_at_their_line(tmp_path, key, value, error):
    """A NaN ``mem_gb`` used to load (and count as a capacity rejection),
    an infinite one overflowed in sizing, and ``float()``'s own errors
    escaped raw."""
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(_GOOD) + "\n" + json.dumps({**_GOOD, key: value}) + "\n")
    with pytest.raises(error, match=rf"bad\.jsonl:2: ") as caught:
        load_trace(path)
    assert type(caught.value) is error


#: One row edit the fuzz below may apply: a key and the value it gets
#: (``_DROP`` deletes the key).
_DROP = object()
_KEYS = ("vm_id", "vcpus", "mem_gb", "ratio", "arrival", "departure", "usage_kind",
         "usage_param", "extra")
_VALUES = (_DROP, None, "x", True, math.nan, math.inf, -math.inf, 2.5, 0, -1, 1e308)


@settings(max_examples=150, deadline=None)
@given(
    edits=st.lists(
        st.tuples(st.integers(0, 2), st.sampled_from(_KEYS), st.sampled_from(_VALUES)),
        max_size=4,
    ),
    duplicate=st.booleans(),
)
def test_loader_fuzz_succeeds_or_raises_repro_errors(edits, duplicate):
    """Any row mutation either loads into an event list or is refused
    with a ReproError, never a raw exception."""
    rows = [dict(_GOOD, vm_id=f"vm-{i}", arrival=i, departure=i + 5.0) for i in range(3)]
    for index, key, value in edits:
        if value is _DROP:
            rows[index].pop(key, None)
        else:
            rows[index][key] = value
    if duplicate:
        rows.append(dict(rows[0]))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.jsonl"
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        try:
            workload_events(load_trace(path))
        except ReproError:
            pass
