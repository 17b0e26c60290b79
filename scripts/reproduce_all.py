#!/usr/bin/env python3
"""Regenerate every paper artifact into one consolidated report.

A thin orchestrator over the same code paths the benches use; writes
``REPORT.md`` (default) with every table and figure, ready to diff
against EXPERIMENTS.md.

Run: python scripts/reproduce_all.py [--fast] [--workers N] [-o REPORT.md]
     (--fast uses smaller populations/durations; ~30 s instead of ~2 min)

Figures 3 and 4 are one ``repro.api.run_sweep`` grid (both
providers x 15 mixes x the seeds), and the §VIII strategy comparison a
second one; both are sharded over ``--workers`` processes (default: all
cores).  The runner's determinism contract
keeps the report bit-identical for any worker count, so parallelism
only changes the wall clock.
"""

from __future__ import annotations

import argparse
import os
import time
from pathlib import Path

from repro.analysis import (
    render_fig2,
    render_fig3,
    render_fig4,
    render_table1,
    render_table2,
    render_table4,
    table1_row,
    table2_row,
)
from repro.api import RunSpec, SweepSpec, run_sweep
from repro.oversub.evaluate import render_oversub_table
from repro.perfmodel import TestbedParams, run_testbed
from repro.workload import PROVIDERS


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true",
                        help="smaller populations/durations")
    parser.add_argument("--workers", type=int, default=os.cpu_count() or 1,
                        help="process-pool width for the sweeps "
                             "(default: all cores; results are identical "
                             "for any value)")
    parser.add_argument("-o", "--output", default="REPORT.md")
    args = parser.parse_args()

    population = 150 if args.fast else 500
    duration = 600.0 if args.fast else 1800.0
    seeds = (42,) if args.fast else (42, 7)
    started = time.perf_counter()
    sections: list[str] = ["# SlackVM reproduction report", ""]

    def add(title: str, body: str) -> None:
        sections.extend([f"## {title}", "", "```", body, "```", ""])
        print(f"[{time.perf_counter() - started:6.1f}s] {title}")

    t1 = {name: (r.mean_vcpus, r.mean_mem_gb)
          for name, r in ((n, table1_row(c)) for n, c in PROVIDERS.items())}
    add("Table I — mean vCPU & vRAM per VM", render_table1(t1))

    t2 = {name: table2_row(cat).ratios for name, cat in PROVIDERS.items()}
    add("Table II — M/C ratio per oversubscription level", render_table2(t2))

    testbed = run_testbed(TestbedParams(duration=duration))
    add("Table IV — median p90 response times", render_table4(testbed.table4()))
    add("Figure 2 — p90 quartiles (ms)", render_fig2({
        "baseline": {k: v.quartiles_ms() for k, v in testbed.baseline.items()},
        "slackvm": {k: v.quartiles_ms() for k, v in testbed.slackvm.items()},
    }))

    sweep = run_sweep(
        SweepSpec(base=RunSpec(target_population=population),
                  providers=("ovhcloud", "azure"), seeds=seeds),
        workers=args.workers,
    )
    add("Figure 3 — unallocated resources (OVHcloud)",
        render_fig3(sweep.fig3("ovhcloud")))
    for provider in sweep.spec.providers:
        add(f"Figure 4 — PM savings % ({provider})",
            render_fig4(sweep.fig4(provider)))

    oversub = run_sweep(
        SweepSpec(base=RunSpec(target_population=60 if args.fast else 120),
                  providers=("azure", "ovhcloud"), mixes=("F", "J"), seeds=(42,),
                  strategies=("static", "percentile", "doa", "greedy")),
        workers=args.workers,
    )
    add("Dynamic oversubscription — packing gain vs violation risk "
        "(§VIII, scarcity 0.5)", render_oversub_table(oversub.rows()))

    out = Path(args.output)
    out.write_text("\n".join(sections), encoding="utf-8")
    print(f"\nWrote {out} in {time.perf_counter() - started:.1f}s")


if __name__ == "__main__":
    main()
