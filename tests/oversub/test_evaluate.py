"""Strategy-comparison tests (kept tiny: real engine runs per cell)."""

import math

import pytest

from repro.api import RunSpec, SweepSpec, build_workload, run_sweep
from repro.core.errors import RunnerError
from repro.hardware.machine import MachineSpec
from repro.oversub import OversubParams, make_estimator
from repro.oversub.evaluate import SAMPLES_PER_WINDOW, render_oversub_table
from repro.simulator import VectorSimulation, demand_lower_bound

# Small population + small machine keeps each cell to a handful of
# hosts while still producing rejections under scarcity.
BASE = RunSpec(target_population=24, host_cpus=8, host_mem_gb=32.0,
               oversub_update_every=1800.0)
GRID = dict(base=BASE, providers=("azure",), mixes=("F",), seeds=(3,),
            strategies=("static", "percentile"), scarcity=0.5)


@pytest.fixture(scope="module")
def grid():
    return run_sweep(SweepSpec(**GRID))


@pytest.fixture(scope="module")
def sweep(grid):
    return grid.rows()


def test_grid_shape(sweep):
    assert len(sweep) == 2
    assert [c["strategy"] for c in sweep] == ["static", "percentile"]
    assert all(c["provider"] == "azure" and c["mix_label"] == "F" for c in sweep)


def test_static_is_its_own_baseline(sweep):
    static = sweep[0]
    assert static["packing_gain_percent"] == 0.0
    assert static["eff_ratio_mean"] == pytest.approx(1.0)


def test_scarce_cluster_actually_rejects(sweep):
    # Without rejections the gain column measures nothing.
    assert sweep[0]["rejected"] > 0
    assert sweep[0]["placed"] + sweep[0]["rejected"] == sweep[0]["arrivals"]


def test_dynamic_strategy_never_packs_fewer(sweep):
    # Effective capacity >= used >= nothing below physical at admission
    # time, so a dynamic strategy can only open headroom here.
    assert sweep[1]["placed"] >= sweep[0]["placed"]


def test_sweep_is_deterministic(sweep, tmp_path):
    # A second run, through a pool and a checkpoint, gives the same rows.
    again = run_sweep(SweepSpec(**{**GRID, "mixes": ("F", "J")}), workers=2,
                      out=str(tmp_path / "oversub.jsonl"))
    assert again.rows()[:2] == sweep


def test_naive_kernel_agrees_with_incremental(sweep):
    # The cell's percentile run, replayed on the reference kernel.
    workload = build_workload(BASE.replace(provider="azure", mix="F", seed=3))
    lb = demand_lower_bound(workload, MachineSpec("tiny", 8, 32.0))
    machines = [MachineSpec(f"pm-{i}", 8, 32.0) for i in range(math.ceil(lb * 0.5))]
    oversub = OversubParams(estimator=make_estimator("percentile"), update_every=1800.0,
                            samples_per_window=SAMPLES_PER_WINDOW)
    naive = VectorSimulation(machines, policy="progress", kernel="naive",
                             oversub=oversub).run(workload)
    assert len(naive.placements) == sweep[1]["placed"]
    assert naive.oversub.violation_rate == sweep[1]["violation_rate"]


def test_table_renders_all_cells(sweep):
    table = render_oversub_table(sweep)
    lines = table.splitlines()
    assert len(lines) == 1 + len(sweep)
    assert lines[0].startswith("strategy")
    assert "static" in lines[1] and "percentile" in lines[2]
    # Empty input still renders the header row (widths shrink to it).
    empty = render_oversub_table([]).splitlines()
    assert len(empty) == 1 and empty[0].startswith("strategy")


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(strategies=("oracle",)),
        dict(strategies=("static", "static")),
        dict(providers=("azure", "azure")),
        dict(mixes=()),
        dict(seeds=()),
        dict(scarcity=0.0),
        dict(scarcity=2.5),
        dict(base={"policy": "wishful"}),
        dict(base=BASE.replace(shards=2)),
        dict(base={"target_population": 0}),
        dict(seeds=(-1,)),
        dict(seeds=(True,)),
        dict(seeds=(0, 2.5)),
    ],
)
def test_spec_validation(kwargs):
    with pytest.raises(RunnerError):
        SweepSpec(**{**GRID, **kwargs})


def test_cells_honour_base_pooling():
    # Each strategy run places with the cell's pooling knob, not the
    # engine default.
    def static_row(pooling):
        spec = SweepSpec(base=RunSpec(target_population=60, pooling=pooling),
                         providers=("azure",), mixes=("M",), seeds=(3,),
                         strategies=("static",))
        return run_sweep(spec).rows()[0]

    pooled, unpooled = static_row(True), static_row(False)
    assert pooled["pooled"] > 0
    assert unpooled["pooled"] == 0


@pytest.mark.parametrize("figure", ["fig3", "fig4"])
def test_figures_of_a_strategy_grid_are_refused(grid, figure):
    # An empty figure would read as "no savings", not as the wrong accessor.
    with pytest.raises(RunnerError, match=rf"{figure}\(\).*§VIII strategy comparison"):
        getattr(grid, figure)()
