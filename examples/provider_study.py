#!/usr/bin/env python3
"""Provider study: sweep oversubscription-level mixes for a provider.

Reproduces a small-scale version of the paper's Figures 3 and 4 for a
chosen provider: for every mix of (1:1, 2:1, 3:1) shares in 25% steps,
report the stranded CPU/memory of dedicated clusters vs the SlackVM
shared cluster, and the PM savings.

Run: python examples/provider_study.py [azure|ovhcloud] [population]
"""

import sys

from repro.analysis import render_fig3, render_fig4
from repro.api import RunSpec, SweepSpec, run_sweep


def main() -> None:
    provider = sys.argv[1] if len(sys.argv) > 1 else "ovhcloud"
    population = int(sys.argv[2]) if len(sys.argv) > 2 else 250

    print(f"Sweeping 15 level mixes for {provider} "
          f"(target {population} concurrent VMs, one-week trace)...")
    sweep = run_sweep(SweepSpec(base=RunSpec(target_population=population),
                                providers=(provider,), seeds=(42,)))
    outcomes = sweep.fig3()

    print()
    print("Figure 3 — unallocated resources at peak, baseline vs SlackVM")
    print(render_fig3(outcomes))
    print()
    print("Figure 4 — PMs saved by the shared cluster (%)")
    print(render_fig4(sweep.fig4()))
    print()
    best = max(outcomes.items(), key=lambda kv: kv[1].savings_percent)
    label, o = best
    s1, s2, s3 = o.mix
    print(f"Best mix: {label} ({s1:.0f}% 1:1, {s2:.0f}% 2:1, {s3:.0f}% 3:1) "
          f"-> {o.savings_percent:.1f}% PMs saved "
          f"({o.baseline_pms} dedicated vs {o.slackvm_pms} shared)")


if __name__ == "__main__":
    main()
