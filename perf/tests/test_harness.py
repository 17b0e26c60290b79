"""Harness self-tests.  Not part of tier-1; run with

    PYTHONPATH=src python -m pytest perf/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parents[1]
ROOT = PERF.parent
sys.path.insert(0, str(PERF))

import compare  # noqa: E402
import names  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


# -- names ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_has_exactly_the_contract_keys(contract):
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert contract["paths"] == ["perf"]
    assert contract["command"] == ["python3", "perf/run.py"]
    assert 1 <= contract["run_seconds"] <= 60
    assert contract["run_seconds"] == run.DEFAULT_SECONDS


def test_workload_names_agree(contract):
    assert [w["name"] for w in contract["workloads"]] == list(names.DRIVER_WORKLOADS)
    assert set(names.DRIVER_WORKLOADS) <= set(names.WORKLOADS)
    for w in contract["workloads"]:
        assert set(w) == {"name", "why"}
        assert w["why"] == names.WORKLOADS[w["name"]]
        assert len(w["why"]) <= 200 and "\n" not in w["why"]


def test_end_to_end_names_agree(contract):
    ledger = {m.name: m for m in names.END_TO_END}
    assert [m["name"] for m in contract["end_to_end"]] == list(names.DRIVER_END_TO_END)
    for m in contract["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert m["unit"] == ledger[m["name"]].unit
        assert m["better"] == ledger[m["name"]].better
        assert m["bound"] == names.DRIVER_END_TO_END[m["name"]]
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in contract["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in contract["end_to_end"])


def test_per_layer_names_agree(contract):
    assert [(m["name"], m["unit"], m["better"]) for m in contract["per_layer"]] == [
        (m.name, m.unit, m.better) for m in names.PER_LAYER
    ]
    assert all(set(m) == {"name", "unit", "better"} for m in contract["per_layer"])


def test_every_name_is_well_formed_and_used_once(contract):
    every = (
        list(names.WORKLOADS)
        + [m.name for m in names.END_TO_END]
        + [m.name for m in names.PER_LAYER if m.name not in
           {e.name for e in names.END_TO_END}]
    )
    assert len(every) == len(set(every))
    for name in every:
        assert NAME.fullmatch(name), name
    for m in (*names.END_TO_END, *names.PER_LAYER):
        assert UNIT.fullmatch(m.unit), m
        assert m.better in ("lower", "higher")
    in_file = [x["name"] for key in ("workloads", "end_to_end", "per_layer")
               for x in contract[key]]
    assert len(in_file) == len(set(in_file))


# -- digests: one smoke-size traced + two untraced runs per workload --------------


@pytest.fixture(scope="module")
def smoke_runs():
    cache: dict = {}

    def get(workload: str) -> dict:
        if workload not in cache:
            cache[workload] = {
                "traced": run.traced(workload, 7, 0, run.SMOKE_SCALE, None),
                "same": run.sample(workload, 7, 0, run.SMOKE_SCALE, setup_probes=0),
                "other": run.sample(workload, 8, 0, run.SMOKE_SCALE, setup_probes=0),
            }
        return cache[workload]

    return get


@pytest.mark.parametrize("workload", list(names.WORKLOADS))
def test_outside_driven_digest_equals_front_door(smoke_runs, workload):
    traced = smoke_runs(workload)["traced"]
    assert traced["digest_match"]
    assert traced["problems"] == []
    assert set(traced["metrics"]) == {m.name for m in names.PER_LAYER}
    assert traced["metrics"]["trace.coverage"] > 0.9


@pytest.mark.parametrize("workload", list(names.WORKLOADS))
def test_same_seed_same_digest_other_seed_other_digest(smoke_runs, workload):
    runs = smoke_runs(workload)
    assert runs["same"]["problems"] == [] and runs["other"]["problems"] == []
    assert runs["same"]["digest"] == runs["traced"]["digest"]
    assert runs["other"]["digest"] != runs["same"]["digest"]
    for name in names.DRIVER_END_TO_END:
        assert runs["same"][name] > 0


# -- isolation -----------------------------------------------------------------


def test_end_to_end_path_imports_no_outside_driver_code():
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); import worker; "
        "rc = worker.main(['--workload', 'object_1k', '--seed', '7', '--mode', "
        "'measure', '--scale', '0.05', '--t0', repr(time.monotonic())]); "
        "bad = [m for m in sys.modules if m == 'layers' or m.startswith('layers.')]; "
        "sys.exit(rc or (3 if bad else 0))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(PERF)],
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"},
        stdout=subprocess.DEVNULL,
    )
    assert proc.returncode == 0


def test_bare_directory_fails_without_printing_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERF, tmp_path / "perf", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "vector_5k", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_refuses_more_workers_than_cpus(monkeypatch):
    import os

    import worker

    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    import time

    rc = worker.main(["--workload", "shard_2w", "--seed", "7", "--mode", "setup",
                      "--scale", "0.05", "--t0", repr(time.monotonic())])
    assert rc == 2


def test_sample_is_the_sum_of_each_specs_best_call():
    import worker

    calls = [
        {"spec_walls": [1.0, 5.0], "spec_cpus": [0.9, 4.0], "events": 60},
        {"spec_walls": [2.0, 3.0], "spec_cpus": [0.8, 4.5], "events": 60},
    ]
    best = worker._best(calls)
    assert best["wall_s"] == 4.0 and best["cpu_s"] == pytest.approx(4.8)
    assert best["events_per_s"] == 15.0


# -- compare.py verdicts on synthetic ledgers ------------------------------------


def _ledger(values: dict, digest: str = "d", failed: float = 0.0) -> dict:
    """values: metric -> list of per-round samples, one workload."""
    metrics = {}
    rounds = [dict() for _ in next(iter(values.values()))]
    for name, samples in {**values, "failed_ops_ratio": [failed] * len(rounds)}.items():
        spec = next(m for m in names.END_TO_END if m.name == name)
        metrics[name] = {**run.summarise(samples), "unit": spec.unit,
                         "better": spec.better, "bound": names.bound_for(name, "vector_5k")}
        for r, v in zip(rounds, samples):
            r[name] = v
    env = {"git_sha": "0" * 40, "seed": 7, "rounds": len(rounds), "nproc": 2,
           "loadavg_1m_start": 0.0}
    return {"env": env, "workloads": {
        "vector_5k": {"digest": digest, "metrics": metrics, "rounds": rounds}}}


def _verdicts(a: dict, b: dict) -> dict:
    rows, _ = compare.compare(a, b)
    return {r["metric"]: r["verdict"] for r in rows}


def test_compare_same_better_worse():
    base = _ledger({"wall_s": [5.0, 5.01, 5.02, 5.03, 5.04]})
    assert _verdicts(base, _ledger({"wall_s": [5.1, 5.11, 5.12, 5.13, 5.14]}))["wall_s"] == "same"
    assert _verdicts(base, _ledger({"wall_s": [5.6, 5.61, 5.62, 5.63, 5.64]}))["wall_s"] == "worse"
    assert _verdicts(base, _ledger({"wall_s": [4.0, 4.01, 4.02, 4.03, 4.04]}))["wall_s"] == "better"


def test_compare_direction_follows_better():
    base = _ledger({"events_per_s": [1000, 1001, 1002, 1003, 1004]})
    faster = _ledger({"events_per_s": [1200, 1201, 1202, 1203, 1204]})
    assert _verdicts(base, faster)["events_per_s"] == "better"
    assert _verdicts(faster, base)["events_per_s"] == "worse"


def test_compare_unresolved_when_spread_exceeds_bound():
    noisy = _ledger({"wall_s": [4.0, 4.6, 5.0, 5.6, 6.2]})
    slower = _ledger({"wall_s": [5.0, 5.6, 6.0, 6.6, 7.2]})
    assert _verdicts(noisy, slower)["wall_s"] == "unresolved"
    # ... unless every run of B beats every run of A.
    clear = _ledger({"wall_s": [2.0, 2.4, 2.8, 3.2, 3.6]})
    assert _verdicts(noisy, clear)["wall_s"] == "better"


def test_compare_exact_metric_and_setup_floor():
    a = _ledger({"setup_s": [0.30, 0.30, 0.31, 0.31, 0.32]}, failed=0.25)
    b = _ledger({"setup_s": [0.39, 0.39, 0.40, 0.40, 0.41]}, failed=0.26)
    v = _verdicts(a, b)
    assert v["failed_ops_ratio"] == "worse"
    assert v["setup_s"] == "same"  # +29% but under 0.1 s
    assert _verdicts(a, a)["failed_ops_ratio"] == "same"


def test_compare_reports_digest_change_and_exit_status(tmp_path, capsys):
    a = _ledger({"wall_s": [5.0, 5.01, 5.02, 5.03, 5.04]}, digest="x")
    b = _ledger({"wall_s": [5.6, 5.61, 5.62, 5.63, 5.64]}, digest="y")
    (tmp_path / "a.json").write_text(json.dumps(a))
    (tmp_path / "b.json").write_text(json.dumps(b))
    assert compare.main([str(tmp_path / "a.json"), str(tmp_path / "a.json")]) == 0
    assert compare.main([str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 1
    out = capsys.readouterr().out
    assert "True" in out and "worse" in out
    _, per_workload = compare.compare(a, b)
    assert per_workload[0]["digest_changed"]
