"""At-scale experiment drivers (paper §VII-B, Figures 3 & 4).

For one provider catalog and one oversubscription-level mix, the
protocol is:

1. generate a one-week workload trace targeting 500 concurrent VMs;
2. **baseline** — split the trace per level and size one dedicated
   First-Fit cluster per level (each PM offers a single level);
3. **SlackVM** — size one shared cluster where every PM hosts all
   levels through vNodes and the global scheduler maximizes the
   Algorithm 2 progress score;
4. report PMs saved (Fig. 4) and unallocated CPU/memory shares at each
   cluster's peak (Fig. 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.core.config import SlackVMConfig
from repro.core.types import OversubscriptionLevel, VMRequest
from repro.hardware.machine import SIM_WORKER, MachineSpec
from repro.simulator.metrics import (
    UnallocatedShares,
    combine_unallocated,
    pm_savings_percent,
    unallocated_at_peak,
)
from repro.simulator.sizing import minimal_cluster
from repro.workload.catalog import Catalog
from repro.workload.distributions import DISTRIBUTIONS, LevelMix
from repro.workload.generator import WorkloadParams, generate_workload

__all__ = [
    "DistributionOutcome",
    "evaluate_catalog",
    "fig3_series",
    "fig4_grid",
]


@dataclass(frozen=True)
class DistributionOutcome:
    """Baseline-vs-SlackVM comparison for one level mix."""

    provider: str
    mix: LevelMix
    seed: int
    baseline_pms_per_level: dict[float, int]
    slackvm_pms: int
    baseline_unallocated: UnallocatedShares
    slackvm_unallocated: UnallocatedShares
    pooled_placements: int

    @property
    def baseline_pms(self) -> int:
        return sum(self.baseline_pms_per_level.values())

    @property
    def savings_percent(self) -> float:
        return pm_savings_percent(self.baseline_pms, self.slackvm_pms)


def evaluate_catalog(
    catalog: Catalog,
    mix: LevelMix | str,
    machine: MachineSpec = SIM_WORKER,
    target_population: int = 500,
    seed: int = 0,
    policy: str = "progress",
    pooling: bool = True,
    baseline_policy: str = "first_fit",
    workload: Sequence[VMRequest] | None = None,
    kernel: str = "incremental",
    shards: int = 1,
    router: str = "hash",
    workers: int = 0,
) -> DistributionOutcome:
    """Run the full §VII-B protocol for one (provider, mix) point.

    The shared-cluster search runs on ``kernel`` and, for
    ``shards > 1``, fans each probe out through
    :class:`repro.sharding.ShardedSimulation` (shard count clamped to
    the probed cluster size, since the sizing search explores clusters
    smaller than the requested geometry).  The per-level dedicated
    baselines keep the default engine — they exist to reproduce the
    paper's reference numbers, not to be fast.
    """
    mix_tuple = (
        DISTRIBUTIONS[mix.upper()] if isinstance(mix, str) else tuple(mix)  # type: ignore[arg-type]
    )
    if workload is None:
        params = WorkloadParams(
            catalog=catalog,
            level_mix=mix_tuple,
            target_population=target_population,
            seed=seed,
        )
        workload = generate_workload(params)
    workload = list(workload)

    baseline_pms: dict[float, int] = {}
    baseline_results = []
    # Split per level actually present in the trace (robust to externally
    # supplied workloads whose shares differ from ``mix``).
    present = sorted({vm.level.ratio for vm in workload})
    for ratio in present:
        sub = [vm for vm in workload if vm.level.ratio == ratio]
        cfg = SlackVMConfig(levels=(OversubscriptionLevel(ratio),))
        sized = minimal_cluster(sub, machine, policy=baseline_policy, config=cfg)
        baseline_pms[ratio] = sized.pms
        baseline_results.append(sized.result)

    shared_cfg = SlackVMConfig(
        levels=tuple(OversubscriptionLevel(r) for r in present), pooling=pooling
    )
    simulation_factory = None
    if kernel != "incremental" or shards > 1:
        from repro.sharding.dispatcher import ShardedSimulation

        def simulation_factory(machines: list[MachineSpec]) -> ShardedSimulation:
            return ShardedSimulation(
                machines,
                shared_cfg,
                policy=policy,
                kernel=kernel,
                shards=min(shards, len(machines)),
                router=router,
                workers=workers,
                seed=seed,
            )

    sized_shared = minimal_cluster(
        workload,
        machine,
        policy=policy,
        config=shared_cfg,
        simulation_factory=simulation_factory,
    )

    return DistributionOutcome(
        provider=catalog.name,
        mix=mix_tuple,  # type: ignore[arg-type]
        seed=seed,
        baseline_pms_per_level=baseline_pms,
        slackvm_pms=sized_shared.pms,
        baseline_unallocated=combine_unallocated(baseline_results),
        slackvm_unallocated=unallocated_at_peak(sized_shared.result),
        pooled_placements=sized_shared.result.pooled_placements,
    )


def fig3_series(
    catalog: Catalog,
    machine: MachineSpec = SIM_WORKER,
    target_population: int = 500,
    seed: int = 0,
    mixes: Mapping[str, LevelMix] | None = None,
    workers: int = 1,
    **kwargs,
) -> dict[str, DistributionOutcome]:
    """Unallocated-resource comparison across distributions A–O (Fig. 3).

    ``workers > 1`` shards the mixes over a process pool via
    :func:`repro.runner.parallel_fig3_series` — results are
    bit-identical to the serial path for any worker count.
    """
    if workers > 1:
        from repro.runner.figures import parallel_fig3_series

        return parallel_fig3_series(
            catalog,
            machine=machine,
            target_population=target_population,
            seed=seed,
            mixes=mixes,
            workers=workers,
            **kwargs,
        )
    mixes = dict(mixes) if mixes is not None else dict(DISTRIBUTIONS)
    return {
        label: evaluate_catalog(
            catalog,
            mix,
            machine=machine,
            target_population=target_population,
            seed=seed,
            **kwargs,
        )
        for label, mix in mixes.items()
    }


def fig4_grid(
    catalog: Catalog,
    machine: MachineSpec = SIM_WORKER,
    target_population: int = 500,
    seeds: Sequence[int] = (0,),
    mixes: Mapping[str, LevelMix] | None = None,
    workers: int = 1,
    **kwargs,
) -> dict[str, float]:
    """Mean PM savings (%) per distribution, seed-averaged (Fig. 4).

    ``workers > 1`` shards the (mix, seed) grid over a process pool via
    :func:`repro.runner.parallel_fig4_grid` — results are bit-identical
    to the serial path for any worker count.
    """
    if workers > 1:
        from repro.runner.figures import parallel_fig4_grid

        return parallel_fig4_grid(
            catalog,
            machine=machine,
            target_population=target_population,
            seeds=seeds,
            mixes=mixes,
            workers=workers,
            **kwargs,
        )
    mixes = dict(mixes) if mixes is not None else dict(DISTRIBUTIONS)
    out: dict[str, float] = {}
    for label, mix in mixes.items():
        vals = [
            evaluate_catalog(
                catalog,
                mix,
                machine=machine,
                target_population=target_population,
                seed=seed,
                **kwargs,
            ).savings_percent
            for seed in seeds
        ]
        out[label] = float(np.mean(vals))
    return out
