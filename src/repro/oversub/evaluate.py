"""Strategy comparison: packing gain vs. violation risk (§VIII).

Answers the question the estimator layer exists for: *how many more
VMs does a dynamic strategy pack into a scarce cluster, and what
violation risk does it buy them for?*  For one trace the cluster is
deliberately sized *below* the workload's demand lower bound
(``scarcity < 1``), the trace is run once per strategy through the
vector engine, and each dynamic strategy's placed count is compared
against the :class:`StaticRatio` baseline.

Violation rate comes from the shared controller ledger — a host window
whose demand peak exceeds the physical capacity — and is reported for
the static baseline too, so the table shows *added* risk, not absolute
risk.  Everything is a pure function of the arguments: fixed iteration
order, no wall-clock anywhere.  The grid over providers × mixes ×
seeds is :class:`repro.api.SweepSpec` with ``strategies`` set.

Kept out of ``repro.oversub.__init__``: this module imports the
simulation engines, which import the rest of the package.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.core.types import VMRequest
from repro.hardware.machine import MachineSpec
from repro.oversub.controller import OversubParams
from repro.oversub.estimators import make_estimator
from repro.simulator.engine import SimulationResult
from repro.simulator.sizing import demand_lower_bound
from repro.simulator.vectorpool import VectorSimulation

if TYPE_CHECKING:
    from repro.core.config import SlackVMConfig

__all__ = ["SAMPLES_PER_WINDOW", "compare_strategies", "render_oversub_table"]

#: Usage samples per estimator window in the comparison.
SAMPLES_PER_WINDOW = 8


def _run_strategy(
    strategy: str,
    machines: Sequence[MachineSpec],
    workload: Sequence[VMRequest],
    config: SlackVMConfig,
    policy: str,
    update_every: float,
) -> SimulationResult:
    oversub = OversubParams(
        estimator=make_estimator(strategy),
        update_every=update_every,
        samples_per_window=SAMPLES_PER_WINDOW,
    )
    sim = VectorSimulation(list(machines), config=config, policy=policy, oversub=oversub)
    return sim.run(list(workload))


def compare_strategies(
    workload: Sequence[VMRequest],
    machine: MachineSpec,
    config: SlackVMConfig,
    policy: str,
    update_every: float,
    strategies: Sequence[str],
    scarcity: float,
) -> list[dict[str, Any]]:
    """Run ``workload`` once per strategy on a scarce cluster of ``machine``.

    The cluster is ``ceil(scarcity × demand lower bound)`` hosts (at
    least one), every host configured by ``config`` (levels, pooling).
    Returns one JSON-primitive row per strategy, in order: ``strategy``,
    ``hosts``, ``arrivals``, ``placed``, ``rejected``, ``pooled``,
    ``violation_rate``, ``eff_ratio_mean`` and ``packing_gain_percent``
    (placed-count gain over the static run).
    """
    lb = demand_lower_bound(workload, machine)
    hosts = max(1, math.ceil(lb * scarcity))
    machines = [
        MachineSpec(name=f"pm-{i}", cpus=machine.cpus, mem_gb=machine.mem_gb)
        for i in range(hosts)
    ]
    # The static baseline anchors the gain column even when the caller
    # did not request it as a row.
    baseline = _run_strategy("static", machines, workload, config, policy, update_every)
    base_placed = len(baseline.placements)
    rows = []
    for strategy in strategies:
        result = (
            baseline
            if strategy == "static"
            else _run_strategy(strategy, machines, workload, config, policy, update_every)
        )
        placed = len(result.placements)
        gain = (
            100.0 * (placed - base_placed) / base_placed if base_placed else 0.0
        )
        summary = result.oversub
        assert summary is not None  # every run here has a controller
        rows.append({
            "strategy": strategy,
            "hosts": hosts,
            "arrivals": len(workload),
            "placed": placed,
            "rejected": len(result.rejections),
            "pooled": result.pooled_placements,
            "violation_rate": summary.violation_rate,
            "eff_ratio_mean": summary.eff_ratio_mean,
            "packing_gain_percent": gain,
        })
    return rows


_COLUMNS = (
    "strategy",
    "provider",
    "mix",
    "seed",
    "hosts",
    "placed",
    "rejected",
    "gain%",
    "viol%",
    "eff×",
)


def render_oversub_table(rows: Sequence[Mapping[str, Any]]) -> str:
    """Aligned text table of :meth:`repro.api.SweepResult.rows`, one
    line per row (plus header)."""
    table = [_COLUMNS]
    for r in rows:
        table.append(
            (
                r["strategy"],
                r["provider"],
                r["mix_label"],
                str(r["seed"]),
                str(r["hosts"]),
                str(r["placed"]),
                str(r["rejected"]),
                f"{r['packing_gain_percent']:+.1f}",
                f"{100.0 * r['violation_rate']:.2f}",
                f"{r['eff_ratio_mean']:.2f}",
            )
        )
    widths = [max(len(row[i]) for row in table) for i in range(len(_COLUMNS))]
    lines = [
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
        for row in table
    ]
    return "\n".join(lines)
