"""The online placement service.

Architecture (docs/ARCHITECTURE.md §15)::

    RequestSource ──► bounded admission queue ──► scheduler ──► shard(s)
      (open loop)        (backpressure)        (single writer)   (vector placement kernel)

One synchronous loop fires the virtual clock's timers in ``(deadline,
seq)`` order and, after each, drains a FIFO of ready continuations:

* **arrivals** admit each open-loop request to the bounded queue — or
  reject it on the spot when the backlog sits at the bound (the
  generator never slows down, the service sheds);
* the **scheduler** is the *single writer* over the shards: it takes
  commands back to back, waits a sampled service time per decision,
  then routes the request to its shard (a host, or its pending FIFO);
* per-VM **departure** and pending-**expiry** timers only enqueue
  commands for the scheduler.

Ties: equal deadlines fire in creation order; a command put while the
scheduler is idle resumes it through the ready FIFO; a placement arms
its expiry and then its departure timer as it is made, before the
scheduler's own next decision timer; ``_STOP`` is queued once the
arrival stream has closed, and the run ends when the scheduler reads it.

Everything observable is deterministic per seed — the decision log and
the shards' audit logs replay byte-for-byte — except the wall
-clock placement-latency histogram, which is the point: it prices the
scheduler's compute (the placement kernel) in user-facing seconds.
"""

from __future__ import annotations

import itertools
import math
import time
from collections import deque
from dataclasses import dataclass
from hashlib import sha256
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.api.run import build_machines
from repro.api.spec import RunSpec
from repro.core.config import SlackVMConfig
from repro.core.errors import CapacityError, ConfigError, ServingError
from repro.core.spec import Spec, bound, check_bounds
from repro.core.types import OversubscriptionLevel, VMRequest, VMSpec
from repro.hardware.machine import MachineSpec
from repro.obs import names as metric_names
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.serving.clock import VirtualClock, run_virtual
from repro.serving.config import DIST_KINDS, DiurnalConfig, RVConfig, TrafficConfig
from repro.serving.generator import RequestSource, ServiceRequest
from repro.sharding.dispatcher import ShardPlan
from repro.sharding.router import HashRouter
from repro.simulator.vectorpool import VectorBackend, VectorCluster, check_policy
from repro.workload.catalog import OVERSUB_MEM_CAP_GB, PROVIDERS, Catalog
from repro.workload.distributions import LevelMix, normalize_mix

__all__ = [
    "SERVICE_SPEC_VERSION",
    "ServiceSpec",
    "PlacementService",
    "ServiceReport",
    "serve",
]

#: Bump when the field set changes incompatibly (fingerprints shift).
SERVICE_SPEC_VERSION = 1

#: Headroom over the Little's-law demand estimate when auto-sizing.
AUTO_SIZE_HEADROOM = 1.25

#: Sentinel closing the scheduler's command queue.
_STOP = None


@dataclass(frozen=True)
class ServiceSpec(Spec):
    """One service run, fully described (the serving twin of RunSpec).

    ``rate`` is the mean arrival rate in requests per *virtual* second
    and ``duration`` the admission window in virtual seconds; requests
    already queued when the window closes are still served.
    ``num_hosts=0`` auto-sizes the fleet from Little's law
    (``rate * mean_lifetime`` concurrent VMs at the catalog's mean
    footprint, with :data:`AUTO_SIZE_HEADROOM`).  ``shards`` splits the
    fleet into that many independent shards behind a seeded
    consistent-hash router.
    """

    VERSIONS = (SERVICE_SPEC_VERSION,)

    # -- traffic -------------------------------------------------------------
    provider: str = "azure"
    mix: Union[str, LevelMix] = "F"
    rate: float = bound(0, open_low=True, default=50.0)
    duration: float = bound(0, open_low=True, default=30.0)
    seed: int = bound(0, default=0)
    mean_lifetime: float = bound(0, open_low=True, default=20.0)
    interarrival_kind: str = "exponential"
    lifetime_kind: str = "exponential"
    diurnal_amplitude: float = bound(0, 1, open_high=True, default=0.0)

    # -- topology ------------------------------------------------------------
    num_hosts: int = bound(0, default=0)
    host_cpus: int = bound(1, default=32)
    host_mem_gb: float = bound(0, open_low=True, default=128.0)
    shards: int = bound(1, default=1)

    # -- scheduling ----------------------------------------------------------
    policy: str = "progress"
    queue_bound: int = bound(1, default=64)
    timeout_s: float = bound(0, open_low=True, default=5.0)
    max_pending: int = bound(0, default=1000)
    service_kind: str = "exponential"
    service_mean: float = bound(0, open_low=True, default=0.005)

    def __post_init__(self) -> None:
        object.__setattr__(self, "mix", normalize_mix(self.mix))
        if self.provider not in PROVIDERS:
            raise ConfigError(
                f"unknown provider {self.provider!r}; "
                f"expected one of {sorted(PROVIDERS)}"
            )
        # ``num_hosts=0`` auto-sizes the fleet.
        check_bounds(self)
        for kind_field in ("interarrival_kind", "lifetime_kind", "service_kind"):
            kind = getattr(self, kind_field)
            if kind not in DIST_KINDS:
                raise ConfigError(
                    f"unknown {kind_field} {kind!r}; expected one of {DIST_KINDS}"
                )
        if self.num_hosts and self.shards > self.num_hosts:
            raise ConfigError(
                f"cannot split {self.num_hosts} hosts into {self.shards} shards"
            )
        check_policy(self.policy)

    # -- derived views -------------------------------------------------------

    def traffic(self) -> TrafficConfig:
        """The validated traffic payload this spec describes."""
        return TrafficConfig(
            interarrival=RVConfig(self.interarrival_kind, 1.0 / self.rate),
            lifetime=RVConfig(self.lifetime_kind, self.mean_lifetime),
            diurnal=(
                DiurnalConfig(self.diurnal_amplitude) if self.diurnal_amplitude > 0 else None
            ),
        )

    def service_time(self) -> RVConfig:
        """Per-decision scheduler service time (virtual seconds)."""
        return RVConfig(self.service_kind, self.service_mean)


def _mean_footprint(catalog: Catalog, mix: Union[str, LevelMix]) -> Tuple[float, float]:
    """Expected physical (cpu, mem) per VM under the mix shares."""
    from repro.workload.distributions import mix_shares

    restricted = catalog.restricted(OVERSUB_MEM_CAP_GB)
    cpu = mem = 0.0
    for ratio, share in sorted(mix_shares(mix).items()):
        if share <= 0:
            continue
        cat = catalog if ratio <= 1.0 else restricted
        mean_vcpus = sum(p * s.vcpus for s, p in cat.entries)
        mean_mem = sum(p * s.mem_gb for s, p in cat.entries)
        cpu += share * mean_vcpus / ratio
        mem += share * mean_mem
    return cpu, mem


def auto_size(spec: ServiceSpec) -> int:
    """Little's-law fleet size: steady-state population × mean footprint."""
    population = spec.rate * spec.mean_lifetime
    cpu, mem = _mean_footprint(PROVIDERS[spec.provider], spec.mix)
    hosts = max(
        population * cpu / spec.host_cpus,
        population * mem / spec.host_mem_gb,
    )
    return max(spec.shards, 1, math.ceil(hosts * AUTO_SIZE_HEADROOM))


def build_fleet(spec: ServiceSpec) -> List[MachineSpec]:
    """The service's host fleet, constructed through the RunSpec seam."""
    count = spec.num_hosts if spec.num_hosts else auto_size(spec)
    run_spec = RunSpec(
        provider=spec.provider,
        mix=spec.mix,
        seed=spec.seed,
        num_hosts=count,
        host_cpus=spec.host_cpus,
        host_mem_gb=spec.host_mem_gb,
        policy=spec.policy,
        shards=spec.shards,
    )
    return build_machines(run_spec)


@dataclass
class ServiceReport:
    """The SLO report of one completed service run."""

    spec: ServiceSpec
    counts: Dict[str, int]
    rates: Dict[str, float]
    latency: Dict[str, float]
    queue: Dict[str, float]
    cluster: Dict[str, float]
    decision_log: List[str]
    fingerprint: str  # sha256 over decision + audit logs (determinism key)

    def to_dict(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "counts": self.counts,
            "rates": self.rates,
            "latency": self.latency,
            "queue": self.queue,
            "cluster": self.cluster,
            "fingerprint": self.fingerprint,
            "decision_log": list(self.decision_log),
        }

    def summary(self) -> str:
        c = self.counts
        lines = [
            f"served {c['arrivals']} arrivals over {self.spec.duration:g} "
            f"virtual s on {int(self.cluster['hosts'])} host(s), "
            f"{self.spec.shards} shard(s)",
            f"placed {c['placed']} ({c['pending']} capacity-pending), "
            f"rejected {c['rejected']}, timed out {c['timeouts']}, "
            f"departed {c['departures']}",
            f"placement latency p50 {self.latency['placement_p50_s'] * 1e3:.3f} ms"
            f" / p99 {self.latency['placement_p99_s'] * 1e3:.3f} ms (wall), "
            f"wait p99 {self.latency['wait_p99_s']:.3f} s (virtual)",
            f"queue depth max {int(self.queue['depth_max'])} "
            f"(bound {int(self.queue['bound'])}); "
            f"timeout rate {self.rates['timeout']:.2%}, "
            f"rejection rate {self.rates['reject']:.2%}",
            f"decision log {len(self.decision_log)} entries, "
            f"sha256 {self.fingerprint[:16]}",
        ]
        return "\n".join(lines)


def _hist_stats(hist: Histogram, prefix: str, unit: str = "s") -> Dict[str, float]:
    snap = hist.snapshot()
    count = int(snap.get("count", 0))
    stats = {f"{prefix}_count": float(count)}
    for key in ("mean", "p50", "p99", "max"):
        stats[f"{prefix}_{key}_{unit}"] = float(snap.get(key, 0.0)) if count else 0.0
    return stats


class _Shard:
    """One block of the fleet: a :class:`VectorBackend` and the VMs it holds.

    ``pending`` is the capacity-pending FIFO (``vm_id -> VMRequest`` in
    insertion order), ``active`` maps each placed VM to its host and
    ``audit_log`` appends one ``(action, vm_id, detail)`` per decision.
    """

    def __init__(self, machines: Sequence[MachineSpec], config: SlackVMConfig,
                 policy: str, max_pending: int) -> None:
        self.config = config
        self.hosts = list(machines)
        self.scheduler = VectorBackend(VectorCluster(self.hosts, config), policy)
        self.max_pending = max_pending
        self.pending: Dict[str, VMRequest] = {}
        self.active: Dict[str, int] = {}
        self.audit_log: List[Tuple[str, str, str]] = []
        self._ids = itertools.count()

    def request(self, spec: VMSpec, level: OversubscriptionLevel
                ) -> Tuple[str, Optional[int], bool]:
        """Place a new VM: ``(vm_id, host, pooled)``, with ``host`` None
        while it waits in ``pending``.  A full ``pending`` raises
        :class:`CapacityError` (the id is spent all the same)."""
        vm = VMRequest(vm_id=f"vm-{next(self._ids):06d}", spec=spec, level=level)
        placed = self._try_place(vm)
        if placed is not None:
            return (vm.vm_id, *placed)
        if len(self.pending) >= self.max_pending:
            raise CapacityError(
                f"pending queue full ({self.max_pending}); request rejected"
            )
        self.pending[vm.vm_id] = vm
        self.audit_log.append(("queue", vm.vm_id, "no host fits; queued"))
        return vm.vm_id, None, False

    def _try_place(self, vm: VMRequest) -> Optional[Tuple[int, bool]]:
        host = self.scheduler.select(vm)
        if host is None:
            return None
        placement = self.scheduler.deploy(vm, host)
        hosted = self.scheduler.cluster.level_index(placement.hosted_ratio)
        self.active[vm.vm_id] = host
        self.audit_log.append(
            ("place", vm.vm_id,
             f"host {host} vNode {self.config.levels[hosted].name}"
             + (" (pooled)" if placement.pooled else ""))
        )
        return host, placement.pooled

    def delete(self, vm_id: str) -> None:
        """Release an active or pending VM, then retry the pending FIFO:
        whatever now fits is placed, so a blocked head does not hold
        back smaller requests behind it."""
        if vm_id in self.active:
            self.scheduler.remove(vm_id, self.active.pop(vm_id))
        else:
            del self.pending[vm_id]
        self.audit_log.append(("delete", vm_id, ""))
        for waiting, vm in list(self.pending.items()):
            if self._try_place(vm) is not None:
                del self.pending[waiting]


class PlacementService:
    """The long-running control-plane service over the fleet's shards.

    Construct, then drive :meth:`run` with
    :func:`~repro.serving.clock.run_virtual` (or call :func:`serve`).
    A service instance is single-use: one admission window, one report;
    a second :meth:`run` raises :class:`~repro.core.errors.ServingError`.
    """

    def __init__(
        self,
        spec: ServiceSpec,
        clock: Optional[VirtualClock] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.spec = spec
        self.clock = clock if clock is not None else VirtualClock()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        traffic_seed, service_seed = np.random.SeedSequence(spec.seed).spawn(2)
        self.source = RequestSource(
            PROVIDERS[spec.provider], spec.mix, spec.traffic(), traffic_seed
        )
        self._service_rng = np.random.default_rng(service_seed)
        self._service_time = spec.service_time()
        config = SlackVMConfig()
        machines = build_fleet(spec)
        plan = ShardPlan(len(machines), spec.shards)
        self.controllers = [
            _Shard(machines[plan.block(shard)], config, spec.policy, spec.max_pending)
            for shard in range(spec.shards)
        ]
        self._router = HashRouter(spec.shards, seed=spec.seed)
        self._commands: Deque[Optional[Tuple[str, Any]]] = deque()
        self._ready: Deque[Tuple[Callable[[Any], None], Any]] = deque()
        self._idle = False  # the scheduler waits on an empty command queue
        self._stopped = False  # the scheduler has read _STOP
        self._closes: Optional[float] = None  # admission window end, once run
        self._backlog = 0
        self._placed: Dict[str, Tuple[int, str]] = {}
        #: Append-only, seed-deterministic ledger of every decision.
        self.decision_log: List[str] = []
        self.counts: Dict[str, int] = {
            "arrivals": 0,
            "placed": 0,
            "pending": 0,
            "rejected": 0,
            "timeouts": 0,
            "departures": 0,
        }
        self._lat_place = Histogram("lat_place")
        self._lat_wait = Histogram("lat_wait")
        self._depth = Histogram("depth")

    # -- lifecycle -----------------------------------------------------------

    async def run(self) -> ServiceReport:
        """One full service run: admit, serve, drain, report.  Never
        suspends: ``async`` only so ``run_virtual`` drives it."""
        if self._closes is not None:
            raise ServingError("a PlacementService runs once; build a new one")
        self._closes = self.clock.now() + self.spec.duration
        ready = self._ready
        ready.extend(((self._next_arrival, None), (self._scheduler, None)))
        while not self._stopped:
            if not ready and not self.clock.advance():
                raise ServingError("virtual-time deadlock: no timer left before _STOP")
            while ready:
                fn, arg = ready.popleft()
                fn(arg)
        report = self.report()
        if self.metrics.enabled:
            self.metrics.gauge(metric_names.SERVING_TIMEOUT_RATE).set(report.rates["timeout"])
            self.metrics.gauge(metric_names.SERVING_REJECT_RATE).set(report.rates["reject"])
        return report

    # -- arrivals ------------------------------------------------------------

    def _next_arrival(self, _: None = None) -> None:
        """Arm the next request's arrival, or close the stream with _STOP."""
        gap, request = self.source.next_request(self.clock.now())
        if request.arrival > self._closes:
            self._ready.append((self._put, _STOP))
        else:
            self.clock.call_later(gap, self._arrive, request)

    def _arrive(self, request: ServiceRequest) -> None:
        self._tally("arrivals", metric_names.SERVING_ARRIVALS)
        self._depth.observe(self._backlog)
        if self.metrics.enabled:
            self.metrics.histogram(metric_names.SERVING_QUEUE_DEPTH).observe(self._backlog)
        if self._backlog >= self.spec.queue_bound:
            self._tally("rejected", metric_names.SERVING_REJECTED)
            self._log("reject", request.req_id, f"depth={self._backlog}")
        else:
            self._backlog += 1
            self._put(("arrive", request))
        self._next_arrival()

    def _put(self, command: Optional[Tuple[str, Any]]) -> None:
        """Queue a command for the scheduler, resuming it if idle."""
        self._commands.append(command)
        if self._idle:
            self._idle = False
            self._ready.append((self._scheduler, None))

    # -- the scheduler -------------------------------------------------------

    def _scheduler(self, served: Optional[ServiceRequest] = None) -> None:
        """The single writer: every shard mutation happens here.

        Resumed by a command put while idle, or with ``served`` once that
        request's decision time has elapsed.  Takes commands back to
        back until an admitted arrival's decision time (a timer that
        resumes it) or an empty queue (idle).
        """
        if served is not None:
            self._place(served)
        commands = self._commands
        while commands:
            command = commands.popleft()
            if command is _STOP:
                self._stopped = True
                return
            kind, payload = command
            if kind == "arrive":
                self._backlog -= 1
                waited = self.clock.now() - payload.arrival
                if waited <= self.spec.timeout_s:
                    self.clock.call_later(self._service_time.sample(self._service_rng),
                                          self._scheduler, payload)
                    return
                self._tally("timeouts", metric_names.SERVING_TIMEOUTS)
                self._log("timeout", payload.req_id, f"stage=queue waited={waited:.6f}")
            elif kind == "depart":
                self._handle_departure(payload)
            else:  # "expire"
                self._handle_expiry(payload)
        self._idle = True

    # -- command handlers (scheduler only) -----------------------------------

    def _place(self, request: ServiceRequest) -> None:
        shard = self._route(request)
        controller = self.controllers[shard]
        started = time.perf_counter()
        try:
            vm_id, host, pooled = controller.request(request.spec, request.level)
        except CapacityError:  # the shard's pending FIFO is at max_pending
            self._tally("rejected", metric_names.SERVING_REJECTED)
            self._log("reject", request.req_id, f"shard={shard} pending-full")
            return
        wall = time.perf_counter() - started
        now = self.clock.now()
        wait = now - request.arrival
        self._lat_place.observe(wall)
        self._lat_wait.observe(wait)
        if self.metrics.enabled:
            self.metrics.histogram(metric_names.SERVING_LATENCY_PLACEMENT).observe(wall)
            self.metrics.histogram(metric_names.SERVING_LATENCY_WAIT).observe(wait)
        self._placed[request.req_id] = (shard, vm_id)
        if host is not None:
            self._tally("placed", metric_names.SERVING_PLACED)
            self._log(
                "place", request.req_id,
                f"shard={shard} host={host} vm={vm_id} "
                f"pooled={int(pooled)} wait={wait:.6f}",
            )
        else:
            self._tally("pending", metric_names.SERVING_PENDING)
            self._log("pend", request.req_id,
                      f"shard={shard} vm={vm_id} wait={wait:.6f}")
            expires = max(0.0, request.arrival + self.spec.timeout_s - now)
            self.clock.call_later(expires, self._put, ("expire", request.req_id))
        self.clock.call_later(request.lifetime, self._put, ("depart", request.req_id))

    def _handle_departure(self, req_id: str) -> None:
        shard, vm_id = self._placed[req_id]  # armed only once placed
        controller = self.controllers[shard]
        if vm_id not in controller.active and vm_id not in controller.pending:
            return  # expired out of the pending queue earlier
        controller.delete(vm_id)
        self._tally("departures", metric_names.SERVING_DEPARTURES)
        self._log("depart", req_id, f"shard={shard} vm={vm_id}")

    def _handle_expiry(self, req_id: str) -> None:
        shard, vm_id = self._placed[req_id]
        controller = self.controllers[shard]
        if vm_id not in controller.pending:
            return  # placed (or already gone) before the deadline
        controller.delete(vm_id)
        self._tally("timeouts", metric_names.SERVING_TIMEOUTS)
        self._log("timeout", req_id, f"shard={shard} stage=pending vm={vm_id}")

    # -- helpers -------------------------------------------------------------

    def _route(self, request: ServiceRequest) -> int:
        if self.spec.shards == 1:
            return 0
        probe = VMRequest(
            vm_id=request.req_id, spec=request.spec, level=request.level
        )
        return self._router.route(probe)

    def _tally(self, key: str, metric: str) -> None:
        self.counts[key] += 1
        if self.metrics.enabled:
            self.metrics.counter(metric).inc()

    def _log(self, event: str, req_id: str, detail: str = "") -> None:
        line = f"{self.clock.now():.6f} {event} {req_id}"
        if detail:
            line = f"{line} {detail}"
        self.decision_log.append(line)

    def audit_fingerprint(self) -> str:
        """sha256 over the decision log and every shard's audit log."""
        digest = sha256()
        for line in self.decision_log:
            digest.update(line.encode("utf-8") + b"\n")
        for shard, controller in enumerate(self.controllers):
            for action, vm_id, detail in controller.audit_log:
                digest.update(f"{shard}|{action}|{vm_id}|{detail}\n".encode("utf-8"))
        return digest.hexdigest()

    def report(self) -> ServiceReport:
        arrivals = self.counts["arrivals"]
        active = pending = hosts = 0
        alloc_cpu = alloc_mem = cap_cpu = cap_mem = 0.0
        for controller in self.controllers:
            hosts += len(controller.hosts)
            active += len(controller.active)
            pending += len(controller.pending)
            cpu, mem = controller.scheduler.totals()
            alloc_cpu += cpu
            alloc_mem += mem
            cpu, mem = controller.scheduler.capacity()
            cap_cpu += cpu
            cap_mem += mem
        latency = {}
        latency.update(_hist_stats(self._lat_place, "placement"))
        latency.update(_hist_stats(self._lat_wait, "wait"))
        depth_snap = self._depth.snapshot()
        queue = {
            "bound": float(self.spec.queue_bound),
            "depth_max": float(depth_snap.get("max", 0.0) or 0.0),
            "depth_mean": float(depth_snap.get("mean", 0.0) or 0.0),
            "depth_p99": float(depth_snap.get("p99", 0.0) or 0.0),
        }
        return ServiceReport(
            spec=self.spec,
            counts=dict(self.counts),
            rates={
                "timeout": self.counts["timeouts"] / arrivals if arrivals else 0.0,
                "reject": self.counts["rejected"] / arrivals if arrivals else 0.0,
            },
            latency=latency,
            queue=queue,
            cluster={
                "hosts": float(hosts),
                "shards": float(self.spec.shards),
                "active_vms": float(active),
                "pending_vms": float(pending),
                "cpu_allocation_share": alloc_cpu / cap_cpu if cap_cpu else 0.0,
                "mem_allocation_share": alloc_mem / cap_mem if cap_mem else 0.0,
            },
            decision_log=list(self.decision_log),
            fingerprint=self.audit_fingerprint(),
        )


def serve(spec: ServiceSpec, metrics: Optional[MetricsRegistry] = None) -> ServiceReport:
    """Run one service admission window on a fresh virtual clock and report."""
    service = PlacementService(spec, metrics=metrics)
    return run_virtual(service.run(), service.clock)
