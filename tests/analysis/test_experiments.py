"""Tests of the §VII-B protocol and its Fig. 3 / Fig. 4 reductions
(small populations)."""

import dataclasses

import numpy as np
import pytest

from repro.api import RunSpec, SweepSpec, evaluate, run_sweep
from repro.core.errors import ConfigError, RunnerError
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
    # The spec's own recipe differs (population 500, seed 0): the sizes
    # must be the supplied trace's, not what the spec would generate.
    spec = RunSpec(provider="ovhcloud", mix="F")
    out = evaluate(spec, workload=trace)
    assert out == evaluate(spec, workload=list(trace))  # fully deterministic
    generated = evaluate(spec.replace(target_population=100, seed=7))
    assert out == dataclasses.replace(generated, seed=spec.seed)


@pytest.mark.parametrize(
    "field, value",
    [("engine", "object"), ("num_hosts", 12), ("oversub", "percentile")],
)
def test_evaluate_refuses_fields_the_protocol_cannot_honour(field, value):
    """Regression: these were accepted and silently ignored — the
    protocol sizes its own vector-engine clusters at static levels."""
    spec = RunSpec(provider="ovhcloud", mix="F", target_population=60, **{field: value})
    with pytest.raises(ConfigError, match=field):
        evaluate(spec)


def test_evaluate_accepts_fail_fast_and_shard_geometry():
    """``fail_fast`` is the probes' own business at ``shards=1``; a
    sharded spec is probed with the shard count clamped to the fleet."""
    base = RunSpec(provider="ovhcloud", mix="F", target_population=60, seed=3)
    assert evaluate(base.replace(fail_fast=True)) == evaluate(base)
    sharded = evaluate(base.replace(shards=3, workers=1))
    assert sharded.baseline_pms_per_level == evaluate(base).baseline_pms_per_level
    assert sharded.slackvm_pms >= 1


def test_unallocated_shares_are_shares():
    out = evaluate(RunSpec(provider="ovhcloud", mix="E", target_population=120, seed=3))
    for shares in (out.baseline_unallocated, out.slackvm_unallocated):
        assert 0.0 <= shares.cpu <= 1.0
        assert 0.0 <= shares.mem <= 1.0


SWEEP = SweepSpec(
    providers=("ovhcloud",),
    mixes=("A", "hot:40,20,40"),
    seeds=(5, 6),
    base=RunSpec(target_population=100),
)


@pytest.fixture(scope="module")
def sweep():
    return run_sweep(SWEEP)


def test_fig3_series_subset(sweep):
    """``SweepResult.fig3()``: each label's outcome at the first seed."""
    outcomes = sweep.fig3()
    assert list(outcomes) == ["A", "hot"]
    for label, outcome in outcomes.items():
        assert outcome is sweep.results[f"ovhcloud/{label}/5"].outcome
    # A is CPU-bound => baseline strands much memory, little CPU.
    a = outcomes["A"]
    assert a.baseline_unallocated.mem > a.baseline_unallocated.cpu


def test_fig4_grid_seed_averaging(sweep):
    """``SweepResult.fig4()``: seed-mean savings keyed by the spec's labels."""
    grid = sweep.fig4()
    assert list(grid) == ["A", "hot"]
    for label, mean in grid.items():
        per_seed = [
            sweep.results[f"ovhcloud/{label}/{seed}"].outcome.savings_percent
            for seed in (5, 6)
        ]
        assert mean == float(np.mean(per_seed))


@pytest.mark.parametrize("figure", ["fig3", "fig4"])
def test_figure_of_a_provider_outside_the_sweep_is_an_error(sweep, figure):
    """A typo'd provider used to read as an empty figure."""
    with pytest.raises(ConfigError, match=r"'azrue'.*\('ovhcloud',\)"):
        getattr(sweep, figure)("azrue")


def test_rows_of_an_evaluate_grid_are_refused(sweep):
    # No rows would read as "no strategy ran", not as the wrong accessor.
    with pytest.raises(RunnerError, match=r"rows\(\).*§VII-B evaluate protocol"):
        sweep.rows()


def test_figures_are_per_provider_and_never_partial():
    two = run_sweep(SWEEP.replace(providers=("ovhcloud", "azure"), mixes=("F",), seeds=(5,)))
    assert two.fig3()["F"].provider == "ovhcloud"  # the spec's first by default
    assert two.fig3("azure")["F"].provider == "azure"
    assert two.fig4("azure") == {"F": two.fig3("azure")["F"].savings_percent}
    broken = run_sweep(SWEEP.replace(providers=("nope",), mixes=("F",), seeds=(5,)))
    with pytest.raises(RunnerError, match="1/1 sweep cells failed"):
        broken.fig4()
