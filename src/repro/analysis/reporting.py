"""Plain-text renderers for the paper's tables and figures.

The bench harness prints the same rows/series the paper reports;
these helpers keep that formatting in one place (simple ASCII — no
plotting dependencies are available offline).
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.analysis.experiments import DistributionOutcome
from repro.workload.distributions import DISTRIBUTIONS

__all__ = [
    "format_table",
    "render_table1",
    "render_table2",
    "render_table4",
    "render_fig2",
    "render_fig3",
    "render_fig4",
]


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Minimal fixed-width table renderer."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    for j, row in enumerate(cells):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if j == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def render_table1(rows: Mapping[str, tuple[float, float]]) -> str:
    """rows: provider -> (mean vCPUs, mean vRAM GB)."""
    return format_table(
        ["Dataset", "mean vCPU", "mean vRAM (GB)"],
        [[name, f"{v:.2f}", f"{m:.2f}"] for name, (v, m) in rows.items()],
    )


def render_table2(rows: Mapping[str, Mapping[float, float]]) -> str:
    """rows: provider -> {oversubscription ratio -> M/C}."""
    levels = sorted(next(iter(rows.values())))
    return format_table(
        ["Oversubscription levels", *[f"{int(r)}:1" for r in levels]],
        [
            [name, *[f"{ratios[r]:.1f}" for r in levels]]
            for name, ratios in rows.items()
        ],
    )


def render_table4(table: Mapping[str, tuple[float, float, float]]) -> str:
    """table: level -> (baseline ms, slackvm ms, ratio)."""
    return format_table(
        ["Oversubscription levels", "Baseline (ms)", "SlackVM (ms)"],
        [
            [name, f"{b:.2f}", f"{s:.2f} (x{x:.2f})"]
            for name, (b, s, x) in table.items()
        ],
    )


def render_fig2(
    quartiles: Mapping[str, Mapping[str, tuple[float, float, float]]]
) -> str:
    """quartiles: scenario -> level -> (q1, median, q3) in ms."""
    rows = []
    for scenario, levels in quartiles.items():
        for level, (q1, q2, q3) in levels.items():
            rows.append([scenario, level, f"{q1:.2f}", f"{q2:.2f}", f"{q3:.2f}"])
    return format_table(
        ["Scenario", "Level", "p90 Q1 (ms)", "p90 median (ms)", "p90 Q3 (ms)"], rows
    )


def render_fig3(outcomes: Mapping[str, DistributionOutcome]) -> str:
    """Unallocated CPU/memory shares, baseline vs SlackVM, per mix."""
    rows = []
    for label, o in outcomes.items():
        s1, s2, s3 = o.mix
        rows.append(
            [
                label,
                f"{s1:.0f}/{s2:.0f}/{s3:.0f}",
                f"{o.baseline_unallocated.cpu * 100:.1f}",
                f"{o.baseline_unallocated.mem * 100:.1f}",
                f"{o.slackvm_unallocated.cpu * 100:.1f}",
                f"{o.slackvm_unallocated.mem * 100:.1f}",
            ]
        )
    return format_table(
        [
            "Dist",
            "1:1/2:1/3:1 (%)",
            "base CPU unalloc (%)",
            "base MEM unalloc (%)",
            "slack CPU unalloc (%)",
            "slack MEM unalloc (%)",
        ],
        rows,
    )


def render_fig4(
    savings: Mapping[str, float],
    mixes: Mapping[str, tuple[float, float, float]] = DISTRIBUTIONS,
) -> str:
    """PM-savings heatmap over (1:1 share, 2:1 share), Fig. 4 layout.

    ``mixes`` maps each label of ``savings`` to its share triple (the
    paper's letters by default; pass the cells' own mixes for labelled
    custom triples).
    """
    shares = sorted({mixes[k][0] for k in savings}, reverse=False)
    y_shares = sorted({mixes[k][1] for k in savings}, reverse=True)
    by_mix = {tuple(mixes[k]): v for k, v in savings.items()}
    rows = []
    for s2 in y_shares:
        row = [f"2:1={s2:>3.0f}%"]
        for s1 in shares:
            s3 = 100 - s1 - s2
            if s3 < 0:
                row.append("")
            else:
                v = by_mix.get((float(s1), float(s2), float(s3)))
                row.append("" if v is None else f"{v:.1f}")
        rows.append(row)
    return format_table(["PM saved (%)", *[f"1:1={s:.0f}%" for s in shares]], rows)
