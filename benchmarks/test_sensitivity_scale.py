"""Sensitivity — do the savings scale with cluster size? (§VII-B2)

The paper distinguishes two gain sources: the *complementarity* gain,
which "scales with the cluster size", and the *threshold effect* (one
partially-filled PM per dedicated cluster), which is "marginal, as it
does not scale with the number of VMs".  Sweeping the target population
on distribution F separates them: the percentage saving should persist
(not vanish) as clusters grow, while a pure threshold effect would
decay like 1/N.
"""

import numpy as np

from conftest import publish
from repro.analysis import format_table
from repro.api import RunSpec, evaluate

SEEDS = (42, 7)
POPULATIONS = (125, 250, 500, 1000)


def compute():
    out = {}
    for pop in POPULATIONS:
        outcomes = [
            evaluate(RunSpec(provider="ovhcloud", mix="F", target_population=pop, seed=s))
            for s in SEEDS
        ]
        out[pop] = (
            float(np.mean([o.baseline_pms for o in outcomes])),
            float(np.mean([o.slackvm_pms for o in outcomes])),
            float(np.mean([o.savings_percent for o in outcomes])),
        )
    return out


def test_scale_sensitivity(benchmark):
    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    table = format_table(
        ["target VMs", "baseline PMs", "slackvm PMs", "saved (%)"],
        [
            [pop, f"{b:.1f}", f"{s:.1f}", f"{p:.1f}"]
            for pop, (b, s, p) in rows.items()
        ],
    )
    publish("sensitivity_scale",
            "Sensitivity — savings vs cluster scale (OVHcloud F)\n" + table)
    # The complementarity gain persists at scale: the largest cluster
    # still saves materially (a pure threshold effect at 1000 VMs would
    # be ~ (n_levels-1)/cluster ~ 1.5%).
    assert rows[POPULATIONS[-1]][2] >= 3.0
    # And savings never trend to zero monotonically.
    savings = [p for _, _, p in rows.values()]
    assert max(savings[-2:]) >= 0.5 * max(savings[:2])
