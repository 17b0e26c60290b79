"""Figure 4 — PM savings (%) across level mixes, Azure & OVHcloud.

Paper shape: gains concentrate on mixes combining 1:1 with 3:1 VMs
(complementary CPU-bound + memory-bound workloads) — up to 9.6% for
OVHcloud (distribution F) and 8.8% for Azure at low 1:1 shares — while
the no-3:1 diagonal shows only marginal threshold-effect gains.
"""

import os

from conftest import RESULTS_DIR, publish
from repro.analysis.export import export_fig4_csv
from repro.analysis import render_fig4
from repro.api import RunSpec, SweepSpec, run_sweep

SEEDS = (42, 7)
POPULATION = 500
WORKERS = min(4, os.cpu_count() or 1)

NO_3TO1 = {"A", "B", "D", "G", "K"}
COMPLEMENTARY = {"E", "F", "I", "J"}  # mixes pairing 1:1 with 3:1


def compute():
    # One grid over a process pool; bit-identical for any worker count.
    spec = SweepSpec(base=RunSpec(target_population=POPULATION),
                     providers=("ovhcloud", "azure"), seeds=SEEDS)
    sweep = run_sweep(spec, workers=WORKERS)
    return {provider: sweep.fig4(provider) for provider in spec.providers}


def test_fig4(benchmark):
    grids = benchmark.pedantic(compute, rounds=1, iterations=1)
    text = []
    for provider, grid in grids.items():
        text.append(f"Figure 4 — PM savings (%) for {provider} "
                    f"({POPULATION} VMs, seeds {SEEDS})")
        text.append(render_fig4(grid))
        text.append("")
    publish("fig4", "\n".join(text))
    for provider, grid in grids.items():
        export_fig4_csv(grid, RESULTS_DIR / f"fig4_{provider}.csv")

    for provider, grid in grids.items():
        # Pure single-level corners have no structural sharing gain.
        assert abs(grid["A"]) < 5.0
        assert abs(grid["O"]) < 5.0
        # Complementary mixes beat the no-3:1 diagonal on average.
        comp = sum(grid[k] for k in COMPLEMENTARY) / len(COMPLEMENTARY)
        diag = sum(grid[k] for k in NO_3TO1) / len(NO_3TO1)
        assert comp > diag
        # Headline magnitude: the best complementary mix lands in the
        # several-percent range the paper reports (9.6% / 8.8%).
        best = max(grid[k] for k in COMPLEMENTARY)
        assert 4.0 <= best <= 20.0

    # OVHcloud's distribution F is a strong saver (paper: 9.6%).
    assert grids["ovhcloud"]["F"] >= 4.0
