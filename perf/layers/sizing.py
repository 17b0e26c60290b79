"""Outside-driven ``evaluate``: the §VII-B protocol, one cell at a time.

Follows ``repro.api.evaluate`` for a default-geometry spec (one shard):
one minimal-cluster search per level present in the trace on a
dedicated first-fit cluster, then one on the shared cluster under the
spec's policy.  The searches go through the public
``minimal_cluster(simulation_factory=…, lower_bound=…)`` seam, so the
search itself is the program's; only the probes are ours
(``traced_vector_run`` with ``fail_fast``).
"""

from __future__ import annotations

from typing import Sequence

from repro.api import RunSpec, build_workload
from repro.core.config import SlackVMConfig
from repro.core.types import OversubscriptionLevel, VMRequest
from repro.hardware.machine import MachineSpec
from repro.simulator.engine import SimulationResult
from repro.simulator.sizing import SizingResult, demand_lower_bound, minimal_cluster

from layers.batch import traced_vector_run
from layers.spans import Tracer

#: ``evaluate``'s default for the dedicated per-level clusters.
BASELINE_POLICY = "first_fit"


class _Probe:
    """What ``minimal_cluster`` asks its factory for: ``run(workload)``."""

    def __init__(self, tr: Tracer, machines: list, config: SlackVMConfig, policy: str):
        self.tr, self.machines, self.config, self.policy = tr, machines, config, policy

    def run(self, workload: Sequence[VMRequest]) -> SimulationResult:
        with self.tr.span("sizing.probe", hosts=len(self.machines)) as span:
            result = traced_vector_run(
                self.tr, self.machines, self.config, self.policy, None, workload,
                fail_fast=True,
            )
            span["feasible"] = result.feasible
            span["events"] = len(result.timeline.times)
        return result


def _search(
    tr: Tracer,
    workload: Sequence[VMRequest],
    machine: MachineSpec,
    policy: str,
    config: SlackVMConfig,
) -> SizingResult:
    with tr.span("sizing.search", policy=policy):
        with tr.span("sizing.lower_bound"):
            lower = demand_lower_bound(workload, machine)
        return minimal_cluster(
            workload,
            machine,
            policy=policy,
            config=config,
            simulation_factory=lambda machines: _Probe(tr, machines, config, policy),
            lower_bound=lower,
        )


def traced_evaluate(tr: Tracer, spec: RunSpec) -> tuple[dict, int, int]:
    """One cell.  Returns (baseline PMs per level, shared-cluster PMs, VMs)."""
    machine = MachineSpec(name="host", cpus=spec.host_cpus, mem_gb=spec.host_mem_gb)
    with tr.span("workload.generate"):
        workload = build_workload(spec)
    present = sorted({vm.level.ratio for vm in workload})
    baseline: dict[float, int] = {}
    for ratio in present:
        sub = [vm for vm in workload if vm.level.ratio == ratio]
        dedicated = SlackVMConfig(levels=(OversubscriptionLevel(ratio),))
        baseline[ratio] = _search(tr, sub, machine, BASELINE_POLICY, dedicated).pms
    shared = SlackVMConfig(
        levels=tuple(OversubscriptionLevel(r) for r in present), pooling=spec.pooling
    )
    return baseline, _search(tr, workload, machine, spec.policy, shared).pms, len(workload)
