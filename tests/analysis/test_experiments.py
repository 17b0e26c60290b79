"""Tests of the Fig. 3 / Fig. 4 experiment drivers (small populations)."""

import pytest

from repro.analysis import evaluate_catalog, fig3_series, fig4_grid
from repro.api import RunSpec, evaluate
from repro.workload import OVHCLOUD, WorkloadParams, generate_workload


def test_distribution_outcome_fields():
    out = evaluate(RunSpec(provider="ovhcloud", mix="F", target_population=120, seed=42))
    assert out.provider == "ovhcloud"
    assert out.mix == (50, 0, 50)
    assert set(out.baseline_pms_per_level) == {1.0, 3.0}
    assert out.baseline_pms == sum(out.baseline_pms_per_level.values())
    assert out.slackvm_pms >= 1


def test_complementary_mix_saves_pms():
    """The headline effect: mixing CPU-bound 1:1 with memory-bound 3:1
    needs fewer shared PMs than dedicated clusters."""
    out = evaluate(RunSpec(provider="ovhcloud", mix="F", target_population=300, seed=42))
    assert out.savings_percent > 0
    assert out.slackvm_pms < out.baseline_pms


def test_single_level_mix_has_no_structural_gain():
    out = evaluate(RunSpec(provider="ovhcloud", mix="A", target_population=150, seed=1))
    # One level: the shared cluster IS a dedicated cluster (modulo
    # scheduler differences) — savings must be (near) zero.
    assert abs(out.savings_percent) <= 10.0
    assert set(out.baseline_pms_per_level) == {1.0}


def test_explicit_workload_is_used():
    trace = generate_workload(
        WorkloadParams(catalog=OVHCLOUD, level_mix="F", target_population=100, seed=7)
    )
    out = evaluate_catalog(OVHCLOUD, "F", workload=trace)
    out2 = evaluate_catalog(OVHCLOUD, "F", workload=trace)
    assert out.slackvm_pms == out2.slackvm_pms  # fully deterministic


def test_unallocated_shares_are_shares():
    out = evaluate(RunSpec(provider="ovhcloud", mix="E", target_population=120, seed=3))
    for shares in (out.baseline_unallocated, out.slackvm_unallocated):
        assert 0.0 <= shares.cpu <= 1.0
        assert 0.0 <= shares.mem <= 1.0


def test_fig3_series_subset():
    outcomes = fig3_series(
        OVHCLOUD, target_population=100, seed=5,
        mixes={"A": (100, 0, 0), "F": (50, 0, 50)},
    )
    assert set(outcomes) == {"A", "F"}
    # A is CPU-bound => baseline strands much memory, little CPU.
    a = outcomes["A"]
    assert a.baseline_unallocated.mem > a.baseline_unallocated.cpu


def test_fig4_grid_seed_averaging():
    grid = fig4_grid(
        OVHCLOUD, target_population=100, seeds=(1, 2),
        mixes={"F": (50, 0, 50)},
    )
    assert set(grid) == {"F"}
    assert isinstance(grid["F"], float)
