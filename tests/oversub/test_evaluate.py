"""Sweep-evaluation tests (kept tiny: real engine runs per cell)."""

import pytest

from repro.core import ConfigError
from repro.hardware.machine import MachineSpec
from repro.oversub.evaluate import (
    OversubSweepSpec,
    render_oversub_table,
    run_oversub_sweep,
)

# Small population + small machine keeps each cell to a handful of
# hosts while still producing rejections under scarcity.
TINY = dict(
    target_population=24,
    machine=MachineSpec("tiny", 8, 32.0),
    scarcity=0.5,
    update_every=1800.0,
    samples_per_window=4,
)


@pytest.fixture(scope="module")
def sweep():
    return run_oversub_sweep(
        OversubSweepSpec(strategies=("static", "percentile"), seeds=(3,), **TINY)
    )


def test_grid_shape(sweep):
    assert len(sweep.cells) == 2
    assert [c.strategy for c in sweep.cells] == ["static", "percentile"]
    assert all(c.provider == "azure" and c.mix_label == "F" for c in sweep.cells)


def test_static_is_its_own_baseline(sweep):
    static = sweep.cells[0]
    assert static.packing_gain_percent == 0.0
    assert static.eff_ratio_mean == pytest.approx(1.0)


def test_scarce_cluster_actually_rejects(sweep):
    # Without rejections the gain column measures nothing.
    assert sweep.cells[0].rejected > 0
    assert sweep.cells[0].placed + sweep.cells[0].rejected == sweep.cells[0].arrivals


def test_dynamic_strategy_never_packs_fewer(sweep):
    # Effective capacity >= used >= nothing below physical at admission
    # time, so a dynamic strategy can only open headroom here.
    assert sweep.cells[1].placed >= sweep.cells[0].placed


def test_sweep_is_deterministic(sweep):
    again = run_oversub_sweep(
        OversubSweepSpec(strategies=("static", "percentile"), seeds=(3,), **TINY)
    )
    assert again.to_dicts() == sweep.to_dicts()


def test_naive_kernel_agrees_with_incremental(sweep):
    naive = run_oversub_sweep(
        OversubSweepSpec(
            strategies=("static", "percentile"), seeds=(3,), kernel="naive", **TINY
        )
    )
    assert [c.placed for c in naive.cells] == [c.placed for c in sweep.cells]
    assert [c.violation_rate for c in naive.cells] == [
        c.violation_rate for c in sweep.cells
    ]


def test_table_renders_all_cells(sweep):
    table = sweep.table()
    lines = table.splitlines()
    assert len(lines) == 1 + len(sweep.cells)
    assert lines[0].startswith("strategy")
    assert "static" in lines[1] and "percentile" in lines[2]
    # Empty input still renders the header row (widths shrink to it).
    empty = render_oversub_table([]).splitlines()
    assert len(empty) == 1 and empty[0].startswith("strategy")


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(strategies=()),
        dict(strategies=("oracle",)),
        dict(providers=("aws",)),
        dict(mixes=()),
        dict(seeds=()),
        dict(scarcity=0.0),
        dict(scarcity=2.5),
        dict(policy="wishful"),
        dict(kernel="quantum"),
        dict(target_population=0),
        dict(seeds=(-1,)),
        dict(seeds=(True,)),
        dict(seeds=(0, 2.5)),
    ],
)
def test_spec_validation(kwargs):
    with pytest.raises(ConfigError):
        OversubSweepSpec(**kwargs)
