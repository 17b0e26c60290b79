"""Plain-text chart rendering (no plotting stack is available offline).

Renders the paper's figure *shapes* directly in the terminal:

* :func:`grouped_hbar` — horizontal grouped bars, used for Figure 3's
  unallocated-resource comparison;
* :func:`boxplot` — five-number-summary box plots, used for Figure 2's
  p90 distributions.

Pure-text, deterministic, tested — suitable for bench artifacts and CI
logs.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

from repro.core.errors import ConfigError

__all__ = ["grouped_hbar", "boxplot"]

_FULL = "█"
_PART = " ▏▎▍▌▋▊▉█"


def _bar(value: float, max_value: float, width: int) -> str:
    """A left-aligned bar of ``width`` cells using eighth-block glyphs."""
    if max_value <= 0:
        return ""
    cells = max(0.0, min(1.0, value / max_value)) * width
    full = int(cells)
    frac = cells - full
    partial = _PART[round(frac * 8)] if full < width else ""
    return _FULL * full + partial.strip()


def grouped_hbar(
    categories: Sequence[str],
    series: Mapping[str, Sequence[float]],
    width: int = 40,
    unit: str = "",
) -> str:
    """Grouped horizontal bars: one block per category, one bar per series."""
    if not categories or not series:
        raise ConfigError("grouped_hbar needs categories and series")
    for name, values in series.items():
        if len(values) != len(categories):
            raise ConfigError(
                f"series {name!r} has {len(values)} values for "
                f"{len(categories)} categories"
            )
    peak = max(max(values) for values in series.values())
    if peak <= 0:
        peak = 1.0
    name_w = max(len(name) for name in series)
    blocks = []
    for i, cat in enumerate(categories):
        lines = [f"{cat}"]
        for name, values in series.items():
            lines.append(
                f"  {name.ljust(name_w)} |{_bar(values[i], peak, width).ljust(width)}| "
                f"{values[i]:.1f}{unit}"
            )
        blocks.append("\n".join(lines))
    return "\n".join(blocks)


def boxplot(
    rows: Mapping[str, tuple[float, float, float, float, float]],
    width: int = 50,
    log: bool = False,
    unit: str = "",
) -> str:
    """Five-number box plots (min, Q1, median, Q3, max) on a shared axis.

    ``log=True`` uses a log10 axis — Figure 2's Y axis is log-scale.
    """
    if not rows:
        raise ConfigError("boxplot needs at least one row")
    if width < 10:
        raise ConfigError("width must be >= 10")
    for label, q in rows.items():
        if len(q) != 5 or any(b < a for a, b in zip(q, q[1:])):
            raise ConfigError(f"row {label!r} is not an ordered 5-number summary")
        if log and q[0] <= 0:
            raise ConfigError("log axis requires positive values")
    lo = min(q[0] for q in rows.values())
    hi = max(q[4] for q in rows.values())
    if hi <= lo:
        hi = lo + 1.0

    def pos(x: float) -> int:
        if log:
            t = (math.log10(x) - math.log10(lo)) / (math.log10(hi) - math.log10(lo))
        else:
            t = (x - lo) / (hi - lo)
        return min(width - 1, max(0, round(t * (width - 1))))

    label_w = max(len(label) for label in rows)
    lines = []
    for label, (mn, q1, med, q3, mx) in rows.items():
        cells = [" "] * width
        for i in range(pos(mn), pos(mx) + 1):
            cells[i] = "-"
        for i in range(pos(q1), pos(q3) + 1):
            cells[i] = "="
        cells[pos(mn)] = "|"
        cells[pos(mx)] = "|"
        cells[pos(med)] = "#"
        lines.append(
            f"{label.ljust(label_w)} {''.join(cells)}  "
            f"(med {med:.2f}{unit})"
        )
    axis = f"{' ' * label_w} {lo:.2f}{unit}{' ' * (width - 12)}{hi:.2f}{unit}"
    scale = "log scale" if log else "linear scale"
    return "\n".join(lines + [axis + f"  [{scale}]"])
