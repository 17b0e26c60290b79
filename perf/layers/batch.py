"""Outside-driven run loops of the two batch engines.

Each function replays one workload through the engine's *public*
pieces — ``workload_event_list`` / ``workload_events``,
``VectorCluster.select/deploy/remove``, ``ScoreBasedScheduler.select``,
``LocalScheduler.deploy/remove``, ``Timeline.record``,
``OversubController.advance`` — in the order the engine's own loop
calls them, with a clock read either side of every call, and returns
the same ``SimulationResult`` the front door does (the caller compares
digests).  The loops mirror ``VectorSimulation.run`` (uninstrumented
batched path) and ``Simulation.run``; when those change shape, these
need the same change, and the digest check says so.
"""

from __future__ import annotations

from time import perf_counter
from typing import Optional, Sequence

from repro.core.config import SlackVMConfig
from repro.core.types import VMRequest
from repro.hardware.machine import MachineSpec
from repro.localsched.agent import LocalScheduler
from repro.oversub.controller import OversubController
from repro.scheduling.global_scheduler import ScoreBasedScheduler
from repro.simulator.engine import PlacementRecord, SimulationResult, Timeline
from repro.simulator.events import (
    EventKind,
    iter_event_batches,
    workload_event_list,
    workload_events,
)
from repro.simulator.vectorpool import VectorCluster

from layers.spans import Tracer


class ClusterCapacityTarget:
    """``repro.oversub.controller.CapacityTarget`` over a VectorCluster's
    public accessors."""

    def __init__(self, cluster: VectorCluster):
        self.cluster = cluster

    def placements(self):
        return self.cluster.placed_requests()

    def physical_capacity(self):
        return self.cluster.physical_cpu

    def allocated_capacity(self):
        return self.cluster.alloc_cpu

    def apply_effective_capacity(self, eff) -> None:
        self.cluster.set_effective_capacity(eff)


def traced_vector_run(
    tr: Tracer,
    machines: Sequence[MachineSpec],
    config: SlackVMConfig,
    policy: str,
    kernel: Optional[str],
    workload: Sequence[VMRequest],
    fail_fast: bool = False,
    controller: Optional[OversubController] = None,
) -> SimulationResult:
    pc = perf_counter
    with tr.span("events.build"):
        events = workload_event_list(list(workload))
    with tr.span("vectorpool.init"):
        # ``None``: whatever kernel the engine picks when not told.
        kwargs = {} if kernel is None else {"kernel": kernel}
        cluster = VectorCluster(machines, config, **kwargs)
    target = ClusterCapacityTarget(cluster) if controller is not None else None
    placements: dict[str, PlacementRecord] = {}
    rejections: list[str] = []
    timeline = Timeline()
    record = timeline.record
    select, deploy, remove = cluster.select, cluster.deploy, cluster.remove
    alive: set[str] = set()
    pooled = 0
    select_samples: list[float] = []
    deploy_s = remove_s = timeline_s = advance_s = 0.0
    deploys = removes = samples = advances = 0
    halted = False
    with tr.span("engine.loop"):
        loop_start = pc()
        for departures, arrivals in iter_event_batches(events):
            for event in departures:
                if controller is not None:
                    t0 = pc()
                    controller.advance(target, event.time)
                    advance_s += pc() - t0
                    advances += 1
                vm = event.vm
                if vm.vm_id in alive:
                    t0 = pc()
                    remove(vm.vm_id)
                    remove_s += pc() - t0
                    removes += 1
                    alive.discard(vm.vm_id)
                t0 = pc()
                record(event.time, cluster.total_alloc_cpu, cluster.total_alloc_mem)
                timeline_s += pc() - t0
                samples += 1
            for event in arrivals:
                if controller is not None:
                    t0 = pc()
                    controller.advance(target, event.time)
                    advance_s += pc() - t0
                    advances += 1
                vm = event.vm
                t0 = pc()
                host = select(vm, policy)
                select_samples.append(pc() - t0)
                if host is None:
                    rejections.append(vm.vm_id)
                    if fail_fast:
                        halted = True
                        break
                else:
                    t0 = pc()
                    placed = deploy(vm, host)
                    deploy_s += pc() - t0
                    deploys += 1
                    pooled += placed.pooled
                    placements[vm.vm_id] = placed
                    alive.add(vm.vm_id)
                t0 = pc()
                record(event.time, cluster.total_alloc_cpu, cluster.total_alloc_mem)
                timeline_s += pc() - t0
                samples += 1
            if halted:
                break
        loop_end = pc()
        tr.add_class("vectorpool.select", len(select_samples), sum(select_samples),
                     loop_start, loop_end, samples=select_samples)
        tr.add_class("vectorpool.deploy", deploys, deploy_s, loop_start, loop_end)
        tr.add_class("vectorpool.remove", removes, remove_s, loop_start, loop_end)
        tr.add_class("engine.timeline", samples, timeline_s, loop_start, loop_end)
        tr.add_class("oversub.advance", advances, advance_s, loop_start, loop_end)
    physical = cluster.physical_cpu if controller is not None else cluster.cap_cpu
    return SimulationResult(
        num_hosts=cluster.num_hosts,
        capacity_cpu=float(physical.sum()),
        capacity_mem=float(cluster.cap_mem.sum()),
        placements=placements,
        rejections=rejections,
        timeline=timeline,
        pooled_placements=pooled,
        oversub=controller.summary() if controller is not None else None,
    )


def traced_object_run(
    tr: Tracer,
    hosts: Sequence[LocalScheduler],
    scheduler: ScoreBasedScheduler,
    workload: Sequence[VMRequest],
) -> SimulationResult:
    pc = perf_counter
    with tr.span("events.build"):
        queue = workload_events(list(workload))
    hosts = list(hosts)
    placements: dict[str, PlacementRecord] = {}
    rejections: list[str] = []
    timeline = Timeline()
    alive: set[str] = set()
    pooled = 0
    cap_cpu = float(sum(h.machine.cpus for h in hosts))
    cap_mem = float(sum(h.machine.mem_gb for h in hosts))
    select_samples: list[float] = []
    deploy_s = remove_s = timeline_s = 0.0
    deploys = removes = samples = 0
    with tr.span("engine.loop"):
        loop_start = pc()
        for event in queue.drain():
            vm = event.vm
            if event.kind is EventKind.ARRIVAL:
                t0 = pc()
                idx = scheduler.select(hosts, vm)
                select_samples.append(pc() - t0)
                if idx is None:
                    rejections.append(vm.vm_id)
                else:
                    t0 = pc()
                    placement = hosts[idx].deploy(vm)
                    deploy_s += pc() - t0
                    deploys += 1
                    pooled += placement.pooled
                    placements[vm.vm_id] = PlacementRecord(
                        vm.vm_id, idx, placement.hosted_level.ratio, placement.pooled
                    )
                    alive.add(vm.vm_id)
            elif vm.vm_id in alive:
                t0 = pc()
                hosts[placements[vm.vm_id].host].remove(vm.vm_id)
                remove_s += pc() - t0
                removes += 1
                alive.discard(vm.vm_id)
            t0 = pc()
            timeline.record(
                event.time,
                float(sum(h.allocated_cpus for h in hosts)),
                float(sum(h.allocated_mem for h in hosts)),
            )
            timeline_s += pc() - t0
            samples += 1
        loop_end = pc()
        tr.add_class("scheduling.select", len(select_samples), sum(select_samples),
                     loop_start, loop_end, samples=select_samples, hosts=len(hosts))
        tr.add_class("localsched.deploy", deploys, deploy_s, loop_start, loop_end)
        tr.add_class("localsched.remove", removes, remove_s, loop_start, loop_end)
        tr.add_class("engine.timeline", samples, timeline_s, loop_start, loop_end)
    return SimulationResult(
        num_hosts=len(hosts),
        capacity_cpu=cap_cpu,
        capacity_mem=cap_mem,
        placements=placements,
        rejections=rejections,
        timeline=timeline,
        pooled_placements=pooled,
    )
