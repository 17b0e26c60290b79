"""Minimal-cluster sizing (paper §VII-B1).

"For each workload, a simulation was initiated, starting from an empty
cluster and progressively increased until the minimal number of PMs was
determined."  This module implements that search:

1. a *lower bound* from the peak concurrent fractional demand (no
   packing can beat it);
2. an exponential probe upward until a feasible size is found;
3. a binary refinement, followed by a downward verification walk
   (placement heuristics are not guaranteed monotonic in cluster size,
   so the boundary is re-checked instead of trusted).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence, Union

from repro.core.config import SlackVMConfig
from repro.core.errors import SimulationError
from repro.core.types import VMRequest
from repro.hardware.machine import MachineSpec
from repro.simulator.engine import SimulationResult, WorkloadRunner
from repro.simulator.vectorpool import VectorSimulation

__all__ = ["SizingResult", "demand_lower_bound", "minimal_cluster"]

#: Sizing searches explore at most this many cluster sizes above the
#: lower bound before giving up (guards against impossible workloads,
#: e.g. a VM larger than the machine).
MAX_PROBE_FACTOR = 64


@dataclass(frozen=True)
class SizingResult:
    """Outcome of a minimal-cluster search."""

    pms: int
    result: SimulationResult
    lower_bound: int
    probes: tuple[tuple[int, bool], ...] = field(default=())


def demand_lower_bound(
    workload: Sequence[VMRequest],
    machine: Union[MachineSpec, Sequence[MachineSpec]],
) -> int:
    """Cluster size no packing can beat: peak fractional demand / capacity.

    CPU demand counts ``vcpus / ratio`` physical cores per VM (the best
    possible oversubscribed packing, ignoring ceil effects); memory at
    its physical reservation.  For a heterogeneous machine pattern the
    largest capacity in each dimension is used, which keeps the result
    a valid lower bound.
    """
    if not isinstance(machine, MachineSpec):
        pattern = list(machine)
        cpus = max(m.cpus for m in pattern)
        mem = max(m.mem_gb for m in pattern)
        machine = MachineSpec(name="envelope", cpus=cpus, mem_gb=mem)
    deltas: list[tuple[float, int, float, float]] = []
    for vm in workload:
        alloc = vm.allocation()
        deltas.append((vm.arrival, 1, alloc.cpu, alloc.mem))
        if vm.departure is not None:
            deltas.append((vm.departure, 0, -alloc.cpu, -alloc.mem))
    # Departures (key 0) release before arrivals (key 1) at equal times.
    deltas.sort(key=lambda d: (d[0], d[1]))
    cpu = mem = 0.0
    peak_cpu = peak_mem = 0.0
    for _, _, dc, dm in deltas:
        cpu += dc
        mem += dm
        peak_cpu = max(peak_cpu, cpu)
        peak_mem = max(peak_mem, mem)
    return max(
        1,
        math.ceil(peak_cpu / machine.cpus - 1e-9),
        math.ceil(peak_mem / machine.mem_gb - 1e-9),
    )


def minimal_cluster(
    workload: Sequence[VMRequest],
    machine: Union[MachineSpec, Sequence[MachineSpec]],
    policy: str = "progress",
    config: SlackVMConfig | None = None,
    simulation_factory: Callable[[list[MachineSpec]], WorkloadRunner] | None = None,
    lower_bound: int | None = None,
) -> SizingResult:
    """Smallest cluster of ``machine`` hosting ``workload``.

    ``machine`` may be a single spec (homogeneous cluster) or a pattern
    of specs cycled as the cluster grows (heterogeneous hardware — the
    progress score computes its target ratio per PM, §VI).

    ``simulation_factory`` may replace the default
    :class:`VectorSimulation` construction (used by ablations that need
    custom engines); it receives the machine list and must return a
    :class:`~repro.simulator.engine.WorkloadRunner`.

    ``lower_bound`` overrides the demand-derived search floor — needed
    when a custom engine packs tighter than the static accounting the
    default bound assumes (e.g. dynamic oversubscription levels).
    """
    workload = list(workload)
    if not workload:
        raise SimulationError("cannot size a cluster for an empty workload")
    cfg = config or SlackVMConfig()
    pattern = [machine] if isinstance(machine, MachineSpec) else list(machine)
    if not pattern:
        raise SimulationError("machine pattern cannot be empty")

    def simulate(n: int) -> SimulationResult:
        machines = [
            MachineSpec(
                name=f"{pattern[i % len(pattern)].name}-{i}",
                cpus=pattern[i % len(pattern)].cpus,
                mem_gb=pattern[i % len(pattern)].mem_gb,
            )
            for i in range(n)
        ]
        if simulation_factory is not None:
            sim = simulation_factory(machines)
        else:
            sim = VectorSimulation(machines, config=cfg, policy=policy, fail_fast=True)
        return sim.run(workload)

    lb = demand_lower_bound(workload, machine) if lower_bound is None else lower_bound
    if lb < 1:
        raise SimulationError(f"lower_bound must be >= 1, got {lb}")
    probes: list[tuple[int, bool]] = []
    cache: dict[int, SimulationResult] = {}

    def feasible(n: int) -> bool:
        if n not in cache:
            cache[n] = simulate(n)
            probes.append((n, cache[n].feasible))
        return cache[n].feasible

    # Exponential probe up from the lower bound.
    step = 1
    n = lb
    last_bad = lb - 1
    while not feasible(n):
        last_bad = n
        step *= 2
        n = lb + step - 1
        if step > MAX_PROBE_FACTOR * max(lb, 1):
            raise SimulationError(
                f"no feasible cluster within {n} PMs — is a VM larger than the machine?"
            )
    # Binary refinement in (last_bad, n].
    lo, hi = last_bad, n
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    # Heuristics are not strictly monotonic: walk down past the boundary.
    while hi - 1 >= lb and feasible(hi - 1):
        hi -= 1
    return SizingResult(
        pms=hi, result=cache[hi], lower_bound=lb, probes=tuple(probes)
    )
