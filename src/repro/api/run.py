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
from repro.simulator.engine import Simulation, SimulationResult, build_hosts
from repro.simulator.sizing import demand_lower_bound
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
            oversub=_oversub_params(spec),
        )
    return ShardedSimulation(
        machines,
        cfg,
        policy=spec.policy,
        kernel=spec.kernel,
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


def evaluate(
    spec: RunSpec,
    baseline_policy: str = "first_fit",
    workload: Optional[Sequence[VMRequest]] = None,
) -> "DistributionOutcome":  # noqa: F821 — deferred import below
    """The §VII-B protocol (dedicated baselines vs shared SlackVM).

    Wraps :func:`repro.analysis.experiments.evaluate_catalog` — the
    minimal-cluster search per level plus the shared cluster, run on
    the spec's kernel and shard geometry.
    """
    from repro.analysis.experiments import evaluate_catalog

    machine = MachineSpec(
        name="host", cpus=spec.host_cpus, mem_gb=spec.host_mem_gb
    )
    return evaluate_catalog(
        PROVIDERS[spec.provider],
        spec.mix_tuple,
        machine=machine,
        target_population=spec.target_population,
        seed=spec.seed,
        policy=spec.policy,
        pooling=spec.pooling,
        baseline_policy=baseline_policy,
        workload=workload,
        kernel=spec.kernel,
        shards=spec.shards,
        router=spec.router,
        workers=spec.workers,
    )
