"""Figure 4 variant — the paper's suggested production composition.

§VII-B2: "Production-ready schedulers may therefore benefit from
incorporating our M/C ratio progress score ... complementing it with
their existing scheduling rules."  This bench re-runs the OVHcloud
Fig. 4 sweep with `progress_bestfit` (the progress score blended with a
best-fit packing rule) and checks the composition is at least as good
as the pure metric on every mix.
"""

from conftest import publish
from repro.analysis import render_fig4
from repro.api import RunSpec, SweepSpec, run_sweep

SEEDS = (42,)
POPULATION = 500


def compute():
    return {
        policy: run_sweep(SweepSpec(
            base=RunSpec(target_population=POPULATION, policy=policy),
            providers=("ovhcloud",), seeds=SEEDS,
        )).fig4()
        for policy in ("progress", "progress_bestfit")
    }


def test_fig4_combined(benchmark):
    grids = benchmark.pedantic(compute, rounds=1, iterations=1)
    text = []
    for name, grid in grids.items():
        text.append(f"Figure 4 variant — PM savings % with {name} (OVHcloud)")
        text.append(render_fig4(grid))
        text.append("")
    publish("fig4_combined_scheduler", "\n".join(text))
    pure = grids["progress"]
    combined = grids["progress_bestfit"]
    # The composition is at least as good on aggregate...
    assert sum(combined.values()) >= sum(pure.values()) - 1.0
    # ...and never materially worse on any single mix.
    for label in pure:
        assert combined[label] >= pure[label] - 3.0, label
