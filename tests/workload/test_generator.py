"""Tests of the CloudFactory-style workload generator."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import VMSpec, WorkloadError
from repro.workload import (
    AZURE,
    Catalog,
    OVERSUB_MEM_CAP_GB,
    OVHCLOUD,
    PROVIDERS,
    WorkloadParams,
    generate_workload,
    peak_population,
)
from repro.workload.traces import load_trace

DAY = 86_400.0
GOLDEN_DIR = Path(__file__).resolve().parent.parent / "fixtures" / "golden"


def params(**kw):
    defaults = dict(catalog=AZURE, level_mix="E", target_population=200, seed=3)
    defaults.update(kw)
    return WorkloadParams(**defaults)


def test_same_seed_same_trace():
    a = generate_workload(params())
    b = generate_workload(params())
    assert a == b


def test_generator_reproduces_the_frozen_golden_traces():
    # scripts/regen_golden.py wrote each trace from the parameters its
    # manifest records; the generator must still produce it exactly.
    for tier in (GOLDEN_DIR, GOLDEN_DIR / "scale"):
        manifest = json.loads((tier / "manifest.json").read_text(encoding="utf-8"))
        trace = generate_workload(WorkloadParams(
            catalog=PROVIDERS[manifest["catalog"]],
            level_mix=tuple(manifest["level_mix"]),
            target_population=manifest["target_population"],
            seed=manifest["seed"],
        ))
        assert len(trace) == manifest["num_vms"], tier
        assert trace == load_trace(tier / "trace.jsonl"), tier


def test_different_seeds_differ():
    a = generate_workload(params(seed=1))
    b = generate_workload(params(seed=2))
    assert a != b


def test_population_approaches_target():
    trace = generate_workload(params(target_population=300, seed=9))
    peak = peak_population(trace)
    assert 0.75 * 300 <= peak <= 1.25 * 300


def test_level_shares_respected():
    trace = generate_workload(params(level_mix=(50, 25, 25), seed=4,
                                     target_population=500))
    ratios = np.array([vm.level.ratio for vm in trace])
    share_1 = np.mean(ratios == 1.0)
    assert share_1 == pytest.approx(0.5, abs=0.06)
    assert np.mean(ratios == 2.0) == pytest.approx(0.25, abs=0.05)


def test_zero_share_levels_absent():
    trace = generate_workload(params(level_mix="F"))
    assert {vm.level.ratio for vm in trace} == {1.0, 3.0}


def test_oversubscribed_vms_respect_memory_cap():
    # §III-A: oversubscribed offers are capped at 8 GB.
    trace = generate_workload(params(level_mix=(0, 50, 50), seed=5))
    for vm in trace:
        assert vm.spec.mem_gb <= OVERSUB_MEM_CAP_GB


def test_premium_vms_use_full_catalog():
    trace = generate_workload(params(catalog=OVHCLOUD, level_mix="A", seed=6,
                                     target_population=500))
    assert any(vm.spec.mem_gb > OVERSUB_MEM_CAP_GB for vm in trace)


def test_premium_only_trace_from_a_large_flavor_catalog():
    # No flavor fits under the 8 GB cap, but a 1:1-only mix never
    # draws from the restricted catalog, so the trace must generate.
    big = Catalog("big", ((VMSpec(8, 32.0), 0.5), (VMSpec(16, 64.0), 0.5)))
    trace = generate_workload(params(catalog=big, level_mix=(100, 0, 0)))
    assert {vm.level.ratio for vm in trace} == {1.0}
    assert {vm.spec for vm in trace} == set(big.specs)
    with pytest.raises(WorkloadError, match="fits under"):
        generate_workload(params(catalog=big, level_mix=(50, 50, 0)))


def test_departures_within_duration_or_none():
    trace = generate_workload(params())
    for vm in trace:
        if vm.departure is not None:
            assert vm.arrival < vm.departure <= 7 * DAY


def test_behaviour_shares():
    trace = generate_workload(params(seed=8, target_population=600))
    kinds = np.array([vm.usage_kind for vm in trace])
    assert np.mean(kinds == "stress") == pytest.approx(0.6, abs=0.06)
    assert np.mean(kinds == "idle") == pytest.approx(0.1, abs=0.04)
    assert np.mean(kinds == "interactive") == pytest.approx(0.3, abs=0.05)


def test_arrival_count_follows_littles_law():
    # lambda * duration = target/lifetime * duration.
    p = params(target_population=100, seed=11)
    trace = generate_workload(p)
    expected = 100 / p.mean_lifetime * p.duration
    assert len(trace) == pytest.approx(expected, rel=0.2)


def test_invalid_params_rejected():
    with pytest.raises(WorkloadError):
        params(target_population=0)
    with pytest.raises(WorkloadError):
        params(duration=-1.0)
    with pytest.raises(WorkloadError):
        params(diurnal_amplitude=1.5)
    with pytest.raises(WorkloadError):
        params(behaviour_shares={"idle": 0.5, "stress": 0.2, "interactive": 0.2})
    for seed in (-1, True, 2.5):  # -1 used to escape as numpy's raw ValueError
        with pytest.raises(WorkloadError, match="seed"):
            params(seed=seed)


def test_seed_accepts_a_numpy_int_and_a_seed_sequence():
    assert type(params(seed=np.int64(3)).seed) is int
    sequence = np.random.SeedSequence(3)
    assert params(seed=sequence).seed is sequence


def test_peak_population_counts_overlap():
    from repro.core import LEVEL_1_1, VMRequest, VMSpec

    def mk(vm_id, arrival, departure):
        return VMRequest(vm_id=vm_id, spec=VMSpec(1, 1.0), level=LEVEL_1_1,
                         arrival=arrival, departure=departure)

    trace = [mk("a", 0.0, 10.0), mk("b", 5.0, 15.0), mk("c", 12.0, None)]
    assert peak_population(trace) == 2
    assert peak_population([mk("a", 0.0, 10.0), mk("b", 10.0, 20.0)]) == 1
