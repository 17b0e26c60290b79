"""Materialize a :class:`~repro.api.spec.RunSpec` and run it.

The construction pipeline is factored so front ends can reuse any
stage: ``build_workload`` (trace), ``build_machines`` (fleet, with
demand-derived auto-sizing), ``build_config`` (levels present in the
trace + pooling), ``build_simulation`` (engine selection), and the two
drivers — :func:`run` for one simulation and :func:`evaluate` for the
paper's full §VII-B baseline-vs-SlackVM protocol.

Every stage is a pure function of the spec (plus the trace it
generated), so ``run(spec)`` is deterministic and seed-reproducible by
construction.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Union

from repro.analysis.experiments import DistributionOutcome
from repro.api.spec import RunSpec
from repro.core.config import SlackVMConfig
from repro.core.errors import ConfigError
from repro.core.types import OversubscriptionLevel, VMRequest
from repro.hardware.machine import MachineSpec
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.records import NULL_RECORDER, DecisionRecorder
from repro.oversub.controller import OversubParams
from repro.oversub.estimators import make_estimator
from repro.sharding.dispatcher import ShardedSimulation
from repro.simulator.engine import (
    Simulation,
    SimulationResult,
    WorkloadRunner,
    build_hosts,
)
from repro.simulator.metrics import combine_unallocated, unallocated_at_peak
from repro.simulator.sizing import demand_lower_bound, minimal_cluster
from repro.workload.catalog import PROVIDERS
from repro.workload.generator import WorkloadParams, generate_workload

__all__ = [
    "AUTO_SIZE_HEADROOM",
    "build_config",
    "build_machines",
    "build_simulation",
    "build_workload",
    "evaluate",
    "run",
]

#: Auto-sizing headroom over the demand lower bound (``num_hosts=0``):
#: enough slack that well-behaved policies place everything, without
#: paying the full minimal-cluster binary search on every run.
AUTO_SIZE_HEADROOM = 1.15


def build_workload(spec: RunSpec) -> list[VMRequest]:
    """The spec's one-week trace — a pure function of ``(spec, seed)``."""
    params = WorkloadParams(
        catalog=PROVIDERS[spec.provider],
        level_mix=spec.mix_tuple,
        target_population=spec.target_population,
        seed=spec.seed,
    )
    return generate_workload(params)


def build_machines(
    spec: RunSpec, workload: Optional[Sequence[VMRequest]] = None
) -> list[MachineSpec]:
    """The spec's host fleet.

    ``num_hosts=0`` auto-sizes: the demand lower bound of the workload
    (generated from the spec when not supplied) times
    :data:`AUTO_SIZE_HEADROOM`, floored at the shard count so every
    shard owns at least one host.
    """
    count = spec.num_hosts
    if count == 0:
        if workload is None:
            workload = build_workload(spec)
        envelope = MachineSpec(
            name="host", cpus=spec.host_cpus, mem_gb=spec.host_mem_gb
        )
        count = math.ceil(demand_lower_bound(workload, envelope) * AUTO_SIZE_HEADROOM)
        count = max(count, spec.shards)
    return [
        MachineSpec(name=f"host-{i}", cpus=spec.host_cpus, mem_gb=spec.host_mem_gb)
        for i in range(count)
    ]


def build_config(
    spec: RunSpec, workload: Optional[Sequence[VMRequest]] = None
) -> SlackVMConfig:
    """Oversubscription levels present in the trace + the pooling knob."""
    if workload is None:
        workload = build_workload(spec)
    present = sorted({vm.level.ratio for vm in workload})
    if not present:
        return SlackVMConfig(pooling=spec.pooling)
    return SlackVMConfig(
        levels=tuple(OversubscriptionLevel(r) for r in present),
        pooling=spec.pooling,
    )


def _oversub_params(spec: RunSpec) -> Optional[OversubParams]:
    if spec.oversub is None:
        return None
    return OversubParams(
        estimator=make_estimator(spec.oversub),
        update_every=spec.oversub_update_every,
    )


def build_simulation(
    spec: RunSpec,
    machines: Sequence[MachineSpec],
    config: Optional[SlackVMConfig] = None,
    recorder: DecisionRecorder = NULL_RECORDER,
    metrics: MetricsRegistry = NULL_METRICS,
) -> Union[ShardedSimulation, Simulation]:
    """The spec's engine over an explicit fleet.

    The vector engine always goes through
    :class:`~repro.sharding.ShardedSimulation` — ``shards=1`` delegates
    to a single in-process :class:`VectorSimulation`, byte-identical to
    constructing one directly, so there is exactly one construction
    path whatever the shard count.  ``engine="object"`` builds the
    reference object-graph engine (no kernel seam, no sharding).
    """
    cfg = config if config is not None else SlackVMConfig(pooling=spec.pooling)
    if spec.engine == "object":
        from repro.scheduling.baselines import scheduler_for_policy

        if len({(m.cpus, m.mem_gb) for m in machines}) > 1:
            raise ConfigError(
                "the object engine builds homogeneous clusters; "
                "got heterogeneous machine specs"
            )
        hosts = build_hosts(machines[0], len(machines), cfg)
        return Simulation(
            hosts,
            scheduler_for_policy(spec.policy),
            fail_fast=spec.fail_fast,
            recorder=recorder,
            metrics=metrics,
        )
    return ShardedSimulation(
        machines,
        cfg,
        policy=spec.policy,
        shards=spec.shards,
        router=spec.router,
        workers=spec.workers,
        seed=spec.seed,
        fail_fast=spec.fail_fast,
        recorder=recorder,
        metrics=metrics,
        oversub=_oversub_params(spec),
    )


def run(
    spec: RunSpec,
    workload: Optional[Sequence[VMRequest]] = None,
    recorder: DecisionRecorder = NULL_RECORDER,
    metrics: MetricsRegistry = NULL_METRICS,
) -> SimulationResult:
    """The single entry point: one spec in, one result out.

    ``workload`` overrides the generated trace (e.g. a replayed
    production trace); topology auto-sizing then sizes against it.
    """
    wl = list(workload) if workload is not None else build_workload(spec)
    machines = build_machines(spec, wl)
    config = build_config(spec, wl)
    sim = build_simulation(
        spec, machines, config=config, recorder=recorder, metrics=metrics
    )
    return sim.run(wl)


#: ``RunSpec`` fields :func:`evaluate` cannot honour: the protocol sizes
#: its own vector-engine clusters at the trace's static levels.
_NOT_IN_PROTOCOL = {"engine": "vector", "num_hosts": 0, "oversub": None}


def evaluate(
    spec: RunSpec,
    baseline_policy: str = "first_fit",
    workload: Optional[Sequence[VMRequest]] = None,
) -> DistributionOutcome:
    """The §VII-B protocol for one (provider, mix, seed) point.

    1. take the spec's one-week trace (``workload`` overrides it, e.g.
       a replayed production trace);
    2. **baseline** — split it per level present and size one dedicated
       ``baseline_policy`` cluster per level (each PM offers one level);
    3. **SlackVM** — size one shared cluster where every PM hosts all
       levels, probing with the spec's policy and shard geometry
       through :func:`build_simulation` (shard count clamped to the
       probed size — the search explores fleets smaller than the
       geometry);
    4. report PMs saved (Fig. 4) and the unallocated CPU / memory
       shares at each cluster's peak (Fig. 3).

    The dedicated baselines keep the default engine — they reproduce
    the paper's reference numbers and are not the thing under study.
    """
    for name, required in _NOT_IN_PROTOCOL.items():
        value = getattr(spec, name)
        if value != required:
            raise ConfigError(
                f"evaluate() sizes its own vector-engine clusters and cannot "
                f"honour {name}={value!r}; use run(spec) for a single "
                f"simulation with that setting"
            )
    wl = list(workload) if workload is not None else build_workload(spec)
    machine = MachineSpec(name="host", cpus=spec.host_cpus, mem_gb=spec.host_mem_gb)

    baseline_pms: dict[float, int] = {}
    baseline_results = []
    # Split per level actually present in the trace (robust to supplied
    # workloads whose shares differ from ``spec.mix``).
    for ratio in sorted({vm.level.ratio for vm in wl}):
        sized = minimal_cluster(
            [vm for vm in wl if vm.level.ratio == ratio],
            machine,
            policy=baseline_policy,
            config=SlackVMConfig(levels=(OversubscriptionLevel(ratio),)),
        )
        baseline_pms[ratio] = sized.pms
        baseline_results.append(sized.result)

    shared_cfg = build_config(spec, wl)

    def probe(machines: list[MachineSpec]) -> WorkloadRunner:
        # An unsharded probe stops at its first rejection; fail_fast is
        # ill-defined across shards, so sharded probes run to the end.
        shards = min(spec.shards, len(machines))
        probe_spec = spec.replace(shards=shards, fail_fast=shards == 1)
        return build_simulation(probe_spec, machines, config=shared_cfg)

    shared = minimal_cluster(wl, machine, simulation_factory=probe)
    return DistributionOutcome(
        provider=spec.provider,
        mix=spec.mix_tuple,
        seed=spec.seed,
        baseline_pms_per_level=baseline_pms,
        slackvm_pms=shared.pms,
        baseline_unallocated=combine_unallocated(baseline_results),
        slackvm_unallocated=unallocated_at_peak(shared.result),
        pooled_placements=shared.result.pooled_placements,
    )
