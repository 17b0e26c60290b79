"""The event loop, its placement-backend seam, and the object engine.

The simulator is an allocation-bookkeeping DES: an arrival selects a
host and deploys, a departure frees, every event samples the
cluster-wide allocation.  :func:`run_events` is that loop, the only one
in the package; it drives a :class:`PlacementBackend`, and whatever an
engine variant does between events rides on its ``before_event`` hook.
:class:`Simulation` is the faithful-but-slow object backend;
:class:`~repro.simulator.vectorpool.VectorBackend` implements identical
semantics on arrays, and the test suite asserts their equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional, Protocol, Sequence

import numpy as np

from repro.core.config import SlackVMConfig
from repro.core.errors import SimulationError
from repro.core.types import VMRequest
from repro.hardware.machine import MachineSpec
from repro.localsched.agent import LocalScheduler
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs import names as metric_names
from repro.obs.records import (
    ADMISSION_GROWTH,
    ADMISSION_POOLED,
    ADMISSION_REJECTED,
    DecisionRecord,
    DecisionRecorder,
    HostDecision,
    NULL_RECORDER,
)
from repro.scheduling.global_scheduler import ScoreBasedScheduler
from repro.simulator.events import iter_event_batches, workload_event_list

if TYPE_CHECKING:  # annotation-only: keeps simulator below oversub (layering fence)
    from repro.oversub.controller import OversubSummary

__all__ = [
    "PlacementRecord", "Timeline", "SimulationResult", "PlacementBackend",
    "WorkloadRunner", "LoopState", "run_events", "Simulation", "build_hosts",
]


@dataclass(frozen=True, slots=True)
class PlacementRecord:
    vm_id: str
    host: int
    hosted_ratio: float
    pooled: bool


@dataclass
class Timeline:
    """Per-event snapshots of cluster-wide allocation."""

    times: list[float] = field(default_factory=list)
    alloc_cpu: list[float] = field(default_factory=list)
    alloc_mem: list[float] = field(default_factory=list)

    def record(self, time: float, cpu: float, mem: float) -> None:
        self.times.append(time)
        self.alloc_cpu.append(cpu)
        self.alloc_mem.append(mem)

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (
            np.asarray(self.times),
            np.asarray(self.alloc_cpu),
            np.asarray(self.alloc_mem),
        )


@dataclass
class SimulationResult:
    num_hosts: int
    capacity_cpu: float
    capacity_mem: float
    placements: dict[str, PlacementRecord]
    rejections: list[str]
    timeline: Timeline
    pooled_placements: int = 0
    #: Dynamic-oversubscription ledger; None when no estimator ran.
    oversub: Optional[OversubSummary] = None

    @property
    def feasible(self) -> bool:
        """No deployment was rejected."""
        return not self.rejections

    def peak_index(self) -> int:
        """Timeline index of the heaviest combined allocation.

        Raises :class:`~repro.core.errors.SimulationError` when the
        timeline is empty (empty workload, or a ``fail_fast`` run whose
        very first arrival was rejected) — there is no peak instant to
        index.  The share accessors below stay total: an empty timeline
        simply means nothing was ever allocated.
        """
        if not self.timeline.times:
            raise SimulationError(
                "timeline is empty (no events were simulated); "
                "peak_index() is undefined"
            )
        _, cpu, mem = self.timeline.as_arrays()
        weight = cpu / self.capacity_cpu + mem / self.capacity_mem
        return int(np.argmax(weight))

    def unallocated_at_peak(self) -> tuple[float, float]:
        """(cpu share, mem share) left unallocated at the peak instant.

        An empty timeline has everything unallocated: ``(1.0, 1.0)``.
        """
        if not self.timeline.times:
            return (1.0, 1.0)
        i = self.peak_index()
        _, cpu, mem = self.timeline.as_arrays()
        return (
            1.0 - cpu[i] / self.capacity_cpu,
            1.0 - mem[i] / self.capacity_mem,
        )


class PlacementBackend(Protocol):
    """What :func:`run_events` needs of a cluster: place, remove, snapshot.

    Hosts are indices below ``num_hosts``.  The loop tracks which VMs
    are alive and where; it only removes a VM it deployed.
    """

    num_hosts: int
    #: ``DecisionRecord.scheduler`` of the decisions this backend takes.
    scheduler_name: str

    def select(self, vm: VMRequest) -> Optional[int]:
        """Best host for ``vm``; None when no host can admit it."""

    def decide(self, vm: VMRequest) -> tuple[Optional[int], tuple[HostDecision, ...]]:
        """``select`` plus the per-host table a decision record carries."""

    def deploy(self, vm: VMRequest, host: int) -> PlacementRecord:
        """Place ``vm`` on the ``host`` just selected for it."""

    def remove(self, vm_id: str, host: int) -> None:
        """Free a deployed VM (``host`` as its placement records it)."""

    def totals(self) -> tuple[float, float]:
        """Cluster-wide allocated ``(cpu, mem)`` right now."""

    def capacity(self) -> tuple[float, float]:
        """Physical ``(cpu, mem)`` of the fleet, net of dead hosts."""


class WorkloadRunner(Protocol):
    """Any engine variant or dispatcher: what sizing searches probe."""

    def run(self, workload: list[VMRequest]) -> SimulationResult: ...


class LoopState(NamedTuple):
    """The bookkeeping of :func:`run_events` a hook may rewrite in place:
    a hook that moves a VM replaces its placement, one that loses a VM
    drops it from ``alive`` (its departure then frees nothing)."""

    placements: dict[str, PlacementRecord]
    alive: set[str]


def run_events(
    backend: PlacementBackend,
    workload: Sequence[VMRequest],
    *,
    fail_fast: bool = False,
    recorder: DecisionRecorder = NULL_RECORDER,
    metrics: MetricsRegistry = NULL_METRICS,
    before_event: Optional[Callable[[float, LoopState], None]] = None,
) -> SimulationResult:
    """Drive ``workload`` through ``backend``: the one event loop.

    Events fire in ``(time, kind, seq)`` order, in same-timestamp
    batches: a tick's departures all land before its first selection,
    so a lazily synchronised backend syncs once per batch.  Every event
    ends with a timeline sample; with ``fail_fast`` the first rejection
    ends the run before its own sample.

    ``before_event(time, state)`` runs ahead of every event and is the
    only place an engine variant acts (advance an oversubscription
    controller, fail hosts and re-place the victims): it
    mutates the backend's cluster itself and reports moved or lost VMs
    through ``state``.  An enabled ``recorder`` routes arrivals through
    ``backend.decide`` and gets one ``DecisionRecord`` each; enabled
    ``metrics`` get the ``engine.*`` series.
    """
    recording = recorder.enabled
    measuring = metrics.enabled
    placements: dict[str, PlacementRecord] = {}
    rejections: list[str] = []
    alive: set[str] = set()
    state = LoopState(placements, alive)
    timeline = Timeline()
    sample = timeline.record
    select, deploy, remove, totals = (
        backend.select, backend.deploy, backend.remove, backend.totals
    )
    pooled = 0
    arrival_seq = 0
    decisions: tuple[HostDecision, ...] = ()
    halted = False
    for departures, arrivals in iter_event_batches(workload_event_list(workload)):
        for event in departures:
            if before_event is not None:
                before_event(event.time, state)
            vm_id = event.vm.vm_id
            if vm_id in alive:
                remove(vm_id, placements[vm_id].host)
                alive.discard(vm_id)
                if measuring:
                    metrics.counter(metric_names.DEPARTURES).inc()
            cpu, mem = totals()
            sample(event.time, cpu, mem)
        for event in arrivals:
            if before_event is not None:
                before_event(event.time, state)
            vm = event.vm
            t0 = perf_counter() if measuring else 0.0
            if recording:
                host, decisions = backend.decide(vm)
            else:
                host = select(vm)
            if measuring:
                metrics.timer(metric_names.SELECT_S).observe(perf_counter() - t0)
                metrics.counter(metric_names.ARRIVALS).inc()
            if host is None:
                placed = None
                rejections.append(vm.vm_id)
                if measuring:
                    metrics.counter(metric_names.REJECTIONS).inc()
            else:
                allocated = totals()[0] if recording else 0.0
                placed = deploy(vm, host)
                pooled += placed.pooled
                placements[vm.vm_id] = placed
                alive.add(vm.vm_id)
                if measuring:
                    metrics.counter(metric_names.PLACEMENTS).inc()
                    if placed.pooled:
                        metrics.counter(metric_names.POOLED).inc()
            if recording:
                if measuring:
                    metrics.histogram(metric_names.CANDIDATES).observe(
                        sum(d.eligible for d in decisions)
                    )
                if placed is None:
                    admission, hosted_ratio, growth = ADMISSION_REJECTED, None, None
                else:
                    admission = ADMISSION_POOLED if placed.pooled else ADMISSION_GROWTH
                    hosted_ratio = placed.hosted_ratio
                    # CPUs the hosting vNode acquired: vNodes grow by whole cores.
                    growth = int(totals()[0] - allocated)
                recorder.record_decision(
                    DecisionRecord(
                        seq=arrival_seq,
                        time=event.time,
                        vm_id=vm.vm_id,
                        scheduler=backend.scheduler_name,
                        hosts=decisions,
                        chosen=host,
                        admission=admission,
                        hosted_ratio=hosted_ratio,
                        growth=growth,
                    )
                )
                arrival_seq += 1
            if host is None and fail_fast:
                halted = True
                break
            cpu, mem = totals()
            sample(event.time, cpu, mem)
        if halted:
            break
    if measuring:
        cpu, mem = totals()
        metrics.gauge(metric_names.FINAL_ALLOC_CPU).set(cpu)
        metrics.gauge(metric_names.FINAL_ALLOC_MEM).set(mem)
    cap_cpu, cap_mem = backend.capacity()
    return SimulationResult(
        num_hosts=backend.num_hosts,
        capacity_cpu=cap_cpu,
        capacity_mem=cap_mem,
        placements=placements,
        rejections=rejections,
        timeline=timeline,
        pooled_placements=pooled,
    )


def build_hosts(
    machine: MachineSpec, count: int, config: SlackVMConfig | None = None
) -> list[LocalScheduler]:
    """A homogeneous cluster of ``count`` accounting-mode hosts."""
    cfg = config or SlackVMConfig()
    return [
        LocalScheduler(
            MachineSpec(
                name=f"{machine.name}-{i}",
                cpus=machine.cpus,
                mem_gb=machine.mem_gb,
                topology_factory=machine.topology_factory,
            ),
            cfg,
        )
        for i in range(count)
    ]


class Simulation:
    """The object engine: a cluster of hosts + a global scheduler.

    It is its own :class:`PlacementBackend` (``run`` hands ``self`` to
    :func:`run_events`).  With an enabled ``recorder`` every arrival
    emits one :class:`~repro.obs.records.DecisionRecord` (full
    filter/score table via :meth:`ScoreBasedScheduler.decide`) and
    every deploy one admission record.  It models no dynamic
    oversubscription: that is the vector engine's capacity override.
    """

    def __init__(
        self,
        hosts: Sequence[LocalScheduler],
        scheduler: ScoreBasedScheduler,
        fail_fast: bool = False,
        recorder: DecisionRecorder = NULL_RECORDER,
        metrics: MetricsRegistry = NULL_METRICS,
    ):
        self.hosts = list(hosts)
        self.scheduler = scheduler
        self.fail_fast = fail_fast
        self.recorder = recorder
        self.metrics = metrics
        if recorder.enabled:
            # Local agents emit their own admission records; wire any
            # un-instrumented host to the simulation's sink.
            for host in self.hosts:
                if host.recorder is None:
                    host.recorder = recorder

    # -- PlacementBackend ------------------------------------------------------

    @property
    def num_hosts(self) -> int:
        return len(self.hosts)

    @property
    def scheduler_name(self) -> str:
        return self.scheduler.name

    def select(self, vm: VMRequest) -> Optional[int]:
        return self.scheduler.select(self.hosts, vm)

    def decide(self, vm: VMRequest) -> tuple[Optional[int], tuple[HostDecision, ...]]:
        return self.scheduler.decide(self.hosts, vm)

    def deploy(self, vm: VMRequest, host: int) -> PlacementRecord:
        placement = self.hosts[host].deploy(vm)
        return PlacementRecord(
            vm.vm_id, host, placement.hosted_level.ratio, placement.pooled
        )

    def remove(self, vm_id: str, host: int) -> None:
        self.hosts[host].remove(vm_id)

    def totals(self) -> tuple[float, float]:
        return (
            float(sum(h.allocated_cpus for h in self.hosts)),
            float(sum(h.allocated_mem for h in self.hosts)),
        )

    def capacity(self) -> tuple[float, float]:
        return (
            float(sum(h.machine.cpus for h in self.hosts)),
            float(sum(h.machine.mem_gb for h in self.hosts)),
        )

    def run(self, workload: list[VMRequest]) -> SimulationResult:
        return run_events(
            self, workload,
            fail_fast=self.fail_fast, recorder=self.recorder, metrics=self.metrics,
        )
