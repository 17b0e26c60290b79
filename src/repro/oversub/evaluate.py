"""Strategy-sweep evaluation: packing gain vs. violation risk.

Answers the question the estimator layer exists for: *how many more
VMs does a dynamic strategy pack into a scarce cluster, and what
violation risk does it buy them for?*  For every (provider, mix, seed)
cell the cluster is deliberately sized *below* the workload's demand
lower bound (``scarcity < 1``), the same trace is run once per
strategy through the vector engine, and each dynamic strategy's placed
count is compared against the cell's :class:`StaticRatio` baseline.

Violation rate comes from the shared controller ledger — a host window
whose demand peak exceeds the physical capacity — and is reported for
the static baseline too, so the table shows *added* risk, not absolute
risk.  Everything is a pure function of the spec: fixed iteration
order, seeded workloads, no wall-clock anywhere.

Kept out of ``repro.oversub.__init__``: this module imports the
simulation engines, which import the rest of the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from repro.core.errors import ConfigError
from repro.core.spec import bound, check_bounds, check_int
from repro.core.types import VMRequest
from repro.hardware.machine import SIM_WORKER, MachineSpec
from repro.oversub.controller import OversubParams
from repro.oversub.estimators import STRATEGIES, make_estimator
from repro.runner.spec import resolve_mix_entry
from repro.simulator.engine import SimulationResult
from repro.simulator.sizing import demand_lower_bound
from repro.simulator.vectorpool import KERNELS, VectorSimulation, check_policy
from repro.workload.catalog import PROVIDERS
from repro.workload.distributions import LevelMix
from repro.workload.generator import WorkloadParams, generate_workload

__all__ = [
    "OversubSweepSpec",
    "OversubCellResult",
    "OversubSweepResult",
    "run_oversub_sweep",
    "render_oversub_table",
]


@dataclass(frozen=True)
class OversubSweepSpec:
    """Grid of one strategy-comparison sweep.

    ``scarcity`` scales the cluster below the workload's demand lower
    bound; at 1.0 even a perfect packing is tight, below it the static
    baseline must reject VMs — the regime where dynamic
    oversubscription can show a packing gain.
    """

    strategies: tuple[str, ...] = ("static", "percentile", "doa", "greedy")
    providers: tuple[str, ...] = ("azure",)
    mixes: tuple[str, ...] = ("F",)
    seeds: tuple[int, ...] = (0,)
    target_population: int = bound(1, default=120)
    scarcity: float = bound(0, 2, open_low=True, default=0.5)
    policy: str = "progress"
    kernel: str = "incremental"
    update_every: float = bound(0, open_low=True, default=3600.0)
    samples_per_window: int = bound(1, default=8)
    machine: MachineSpec = field(default=SIM_WORKER)

    def __post_init__(self) -> None:
        if not self.strategies:
            raise ConfigError("need at least one strategy")
        for name in self.strategies:
            if name not in STRATEGIES:
                raise ConfigError(
                    f"unknown strategy {name!r}; expected one of {sorted(STRATEGIES)}"
                )
        for provider in self.providers:
            if provider not in PROVIDERS:
                raise ConfigError(
                    f"unknown provider {provider!r}; "
                    f"expected one of {sorted(PROVIDERS)}"
                )
        if not self.mixes or not self.seeds:
            raise ConfigError("need at least one mix and one seed")
        object.__setattr__(self, "seeds", tuple(check_int("seeds", s, 0) for s in self.seeds))
        check_bounds(self)
        check_policy(self.policy)
        if self.kernel not in KERNELS:
            raise ConfigError(
                f"unknown kernel {self.kernel!r}; expected one of {KERNELS}"
            )

    @classmethod
    def from_run_spec(
        cls,
        base: "RunSpec",  # noqa: F821 — deferred import, avoids a cycle
        strategies: tuple[str, ...],
        mixes: tuple[str, ...],
        seeds: tuple[int, ...],
        scarcity: float = 0.5,
        samples_per_window: int = 8,
    ) -> "OversubSweepSpec":
        """Expand a base :class:`repro.api.RunSpec` into a strategy grid.

        The base spec contributes everything a single run defines
        (provider, population, policy, kernel, machine shape, update
        period); the grid axes — strategies, mixes, seeds — and the
        sweep-only scarcity knob come in alongside.  This is the CLI's
        parse target: one validated spec instead of a dozen loose args.
        """
        return cls(
            strategies=strategies,
            providers=(base.provider,),
            mixes=mixes,
            seeds=seeds,
            target_population=base.target_population,
            scarcity=scarcity,
            policy=base.policy,
            kernel=base.kernel,
            update_every=base.oversub_update_every,
            samples_per_window=samples_per_window,
            machine=MachineSpec(
                name="oversub-pm", cpus=base.host_cpus, mem_gb=base.host_mem_gb
            ),
        )


@dataclass(frozen=True)
class OversubCellResult:
    """One (strategy, provider, mix, seed) run."""

    strategy: str
    provider: str
    mix_label: str
    seed: int
    hosts: int
    arrivals: int
    placed: int
    rejected: int
    pooled: int
    violation_rate: float
    eff_ratio_mean: float
    #: Placed-count gain over the cell's static baseline, in percent.
    packing_gain_percent: float

    def to_dict(self) -> dict[str, object]:
        return {
            "strategy": self.strategy,
            "provider": self.provider,
            "mix_label": self.mix_label,
            "seed": self.seed,
            "hosts": self.hosts,
            "arrivals": self.arrivals,
            "placed": self.placed,
            "rejected": self.rejected,
            "pooled": self.pooled,
            "violation_rate": self.violation_rate,
            "eff_ratio_mean": self.eff_ratio_mean,
            "packing_gain_percent": self.packing_gain_percent,
        }


@dataclass(frozen=True)
class OversubSweepResult:
    spec: OversubSweepSpec
    cells: tuple[OversubCellResult, ...]

    def table(self) -> str:
        return render_oversub_table(self.cells)

    def to_dicts(self) -> list[dict[str, object]]:
        return [cell.to_dict() for cell in self.cells]


def _run_strategy(
    spec: OversubSweepSpec,
    strategy: str,
    machines: Sequence[MachineSpec],
    workload: Sequence[VMRequest],
) -> SimulationResult:
    oversub = OversubParams(
        estimator=make_estimator(strategy),
        update_every=spec.update_every,
        samples_per_window=spec.samples_per_window,
    )
    sim = VectorSimulation(
        list(machines),
        policy=spec.policy,
        kernel=spec.kernel,
        oversub=oversub,
    )
    return sim.run(list(workload))


def _cell_results(
    spec: OversubSweepSpec, provider: str, mix_entry: str, seed: int
) -> Iterator[OversubCellResult]:
    mix_label, mix = resolve_mix_entry(mix_entry)
    params = WorkloadParams(
        catalog=PROVIDERS[provider],
        level_mix=mix,
        target_population=spec.target_population,
        seed=seed,
    )
    workload = generate_workload(params)
    lb = demand_lower_bound(workload, spec.machine)
    hosts = max(1, math.ceil(lb * spec.scarcity))
    machines = [
        MachineSpec(
            name=f"pm-{i}", cpus=spec.machine.cpus, mem_gb=spec.machine.mem_gb
        )
        for i in range(hosts)
    ]
    # The static baseline anchors the gain column even when the caller
    # did not request it as a row.
    baseline = _run_strategy(spec, "static", machines, workload)
    base_placed = len(baseline.placements)
    for strategy in spec.strategies:
        result = (
            baseline
            if strategy == "static"
            else _run_strategy(spec, strategy, machines, workload)
        )
        placed = len(result.placements)
        gain = (
            100.0 * (placed - base_placed) / base_placed if base_placed else 0.0
        )
        summary = result.oversub
        assert summary is not None  # every run here has a controller
        yield OversubCellResult(
            strategy=strategy,
            provider=provider,
            mix_label=mix_label,
            seed=seed,
            hosts=hosts,
            arrivals=len(workload),
            placed=placed,
            rejected=len(result.rejections),
            pooled=result.pooled_placements,
            violation_rate=summary.violation_rate,
            eff_ratio_mean=summary.eff_ratio_mean,
            packing_gain_percent=gain,
        )


def run_oversub_sweep(spec: OversubSweepSpec) -> OversubSweepResult:
    """Run the full strategy × provider × mix × seed grid."""
    cells: list[OversubCellResult] = []
    for provider in spec.providers:
        for mix_entry in spec.mixes:
            for seed in spec.seeds:
                cells.extend(_cell_results(spec, provider, mix_entry, seed))
    return OversubSweepResult(spec=spec, cells=tuple(cells))


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


def render_oversub_table(cells: Sequence[OversubCellResult]) -> str:
    """Aligned text table, one row per cell (plus header)."""
    rows = [_COLUMNS]
    for c in cells:
        rows.append(
            (
                c.strategy,
                c.provider,
                c.mix_label,
                str(c.seed),
                str(c.hosts),
                str(c.placed),
                str(c.rejected),
                f"{c.packing_gain_percent:+.1f}",
                f"{100.0 * c.violation_rate:.2f}",
                f"{c.eff_ratio_mean:.2f}",
            )
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(_COLUMNS))]
    lines = [
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
        for row in rows
    ]
    return "\n".join(lines)
