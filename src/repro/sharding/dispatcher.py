"""Two-level sharded simulation: global dispatcher over N vector shards.

The datacenter is partitioned into ``shards`` contiguous host blocks.
A global dispatcher replays the workload's event stream *once*, in the
exact ``(time, kind, seq)`` total order of
:func:`repro.simulator.events.workload_event_list`, routing every
arrival to a shard through a :mod:`repro.sharding.router` policy.  Each
shard then runs its sub-workload through an ordinary
:class:`~repro.simulator.vectorpool.VectorSimulation` — same
``kernel=`` default as an unsharded run — in its own worker process, and the
dispatcher merges the per-shard result streams back into one
:class:`~repro.simulator.engine.SimulationResult`
(:mod:`repro.sharding.merge`).

Determinism argument (docs/ARCHITECTURE.md §14): routing happens
*before* any worker starts and is a pure function of ``(plan, workload)``
— the routers never see wall-clock, worker scheduling, or process
count.  Each shard's sub-workload is therefore fixed up front, each
shard is itself deterministic, and the merge walks the global event
order again, so the merged stream is a pure function of the plan and
the workload regardless of ``workers`` or completion order.

``shards=1`` bypasses the worker machinery entirely and returns the
underlying :class:`VectorSimulation` result verbatim — that is the
byte-identity contract against the golden decision corpus.
"""

from __future__ import annotations

import hashlib
import itertools
import time
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.config import SlackVMConfig
from repro.core.errors import ConfigError, ShardingError
from repro.core.spec import Spec, bound, canonical_json, check_bounds, digest16
from repro.core.types import VMRequest
from repro.hardware.machine import MachineSpec
from repro.obs import names as metric_names
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.records import NULL_RECORDER, DecisionRecorder
from repro.oversub.controller import OversubParams
from repro.runner.checkpoint import JsonlCheckpoint
from repro.runner.pool import derive_seeds, error_record, run_pool
from repro.sharding.merge import merge_shard_results
from repro.sharding.router import ROUTERS, make_router
from repro.simulator.engine import SimulationResult
from repro.simulator.events import EventKind, workload_event_list
from repro.simulator.vectorpool import KERNELS, VectorSimulation, check_policy
from repro.workload.traces import vm_from_dict, vm_to_dict

__all__ = ["ShardPlan", "ShardedSimulation", "workload_digest"]


def workload_digest(workload: Sequence[VMRequest]) -> str:
    """Order-insensitive fingerprint of a workload trace.

    VMs are hashed in the canonical ``(arrival, vm_id)`` event order so
    the digest identifies the *trace*, not the incidental list order a
    caller happened to build it in.
    """
    digest = hashlib.sha256()
    for vm in sorted(workload, key=lambda v: (v.arrival, v.vm_id)):
        digest.update(canonical_json(vm_to_dict(vm)).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()[:16]


@dataclass(frozen=True, slots=True)
class ShardPlan(Spec):
    """The frozen geometry + policy tuple a sharded run is a function of.

    ``sizes``/``offsets`` describe the contiguous host blocks: shard
    ``s`` owns global hosts ``offsets[s] .. offsets[s] + sizes[s] - 1``.
    Blocks are balanced to within one host, remainder to the lowest
    shard indices; they are derived from ``num_hosts`` and ``shards``,
    and a payload that carries other blocks is refused.
    """

    num_hosts: int = bound(1)
    shards: int = bound(1)
    router: str = "hash"
    seed: int = bound(0, default=0)
    policy: str = "progress"
    kernel: str = "incremental"
    sizes: tuple[int, ...] = ()
    offsets: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        check_bounds(self)
        if self.num_hosts < self.shards:
            raise ConfigError(
                f"cannot split {self.num_hosts} hosts into {self.shards} shards"
            )
        if self.router not in ROUTERS:
            raise ConfigError(
                f"unknown router {self.router!r}; expected one of {ROUTERS}"
            )
        check_policy(self.policy)
        if self.kernel not in KERNELS:
            raise ConfigError(
                f"unknown kernel {self.kernel!r}; expected one of {KERNELS}"
            )
        base, extra = divmod(self.num_hosts, self.shards)
        sizes = tuple(base + (1 if s < extra else 0) for s in range(self.shards))
        offsets = (0, *itertools.accumulate(sizes[:-1]))
        if (self.sizes, self.offsets) == ((), ()):
            object.__setattr__(self, "sizes", sizes)
            object.__setattr__(self, "offsets", offsets)
        elif (self.sizes, self.offsets) != (sizes, offsets):
            raise ConfigError(
                f"blocks {self.sizes}@{self.offsets} are not the balanced split of "
                f"{self.num_hosts} hosts into {self.shards} shards"
            )

    def block(self, shard: int) -> slice:
        """Global host-index slice owned by ``shard``."""
        return slice(self.offsets[shard], self.offsets[shard] + self.sizes[shard])

    def fingerprint(self, workload: str = "") -> str:
        """Stable hex fingerprint; salts in a workload digest when given.

        Keys the shard checkpoint header: a checkpoint resumed against
        a different plan *or* a different trace must be refused.
        """
        return digest16({"plan": self.to_dict(), "workload": workload})


def _config_payload(config: SlackVMConfig) -> dict:
    return {
        "levels": [[lv.ratio, lv.mem_ratio] for lv in config.levels],
        "pooling": config.pooling,
        "negative_progress_factor": config.negative_progress_factor,
        "topology_aware": config.topology_aware,
        "prefer_physical_cores": config.prefer_physical_cores,
    }


def _config_from_payload(payload: dict) -> SlackVMConfig:
    from repro.core.types import OversubscriptionLevel

    return SlackVMConfig(
        levels=tuple(
            OversubscriptionLevel(ratio, mem_ratio)
            for ratio, mem_ratio in payload["levels"]
        ),
        pooling=payload["pooling"],
        negative_progress_factor=payload["negative_progress_factor"],
        topology_aware=payload["topology_aware"],
        prefer_physical_cores=payload["prefer_physical_cores"],
    )


def _run_shard(payload: dict) -> dict:
    """Execute one shard's sub-workload; module-level for pickling.

    Same JSON-primitive payload discipline as
    :func:`repro.api.sweep._run_cell`: everything crossing the
    process boundary (both ways) is built from JSON scalars and
    containers, so the serial path *is* the parallel path minus the
    pool, and results round-trip losslessly through the JSONL
    checkpoint (``json`` renders floats with ``repr``, which parses
    back bit-identical).  Worker faults are captured and returned as a
    record — the dispatcher re-raises in the parent with the shard
    traceback attached.
    """
    try:
        machines = [
            MachineSpec(name=name, cpus=cpus, mem_gb=mem_gb)
            for name, cpus, mem_gb in payload["machines"]
        ]
        config = _config_from_payload(payload["config"])
        workload = [vm_from_dict(row) for row in payload["workload"]]
        sim = VectorSimulation(
            machines,
            config,
            policy=payload["policy"],
            kernel=payload["kernel"],
        )
        started = time.perf_counter()
        result = sim.run(workload)
        wall_s = time.perf_counter() - started
        return {
            "ok": True,
            "shard": payload["shard"],
            "seed": payload["seed"],
            "num_hosts": result.num_hosts,
            "capacity_cpu": result.capacity_cpu,
            "capacity_mem": result.capacity_mem,
            "placements": [
                [rec.vm_id, rec.host, rec.hosted_ratio, rec.pooled]
                for rec in result.placements.values()
            ],
            "rejections": list(result.rejections),
            "pooled": result.pooled_placements,
            "times": result.timeline.times,
            "alloc_cpu": result.timeline.alloc_cpu,
            "alloc_mem": result.timeline.alloc_mem,
            "wall_s": wall_s,
        }
    except Exception as exc:  # noqa: BLE001 — fault capture, re-raised in parent
        return {"ok": False, "shard": payload["shard"], "error": error_record(exc)}


class ShardedSimulation:
    """Dispatcher + N vector-engine shards behind the ``run()`` seam.

    Constructor mirrors :class:`VectorSimulation` plus the sharding
    knobs; ``shards=1`` delegates to a single in-process
    :class:`VectorSimulation` (byte-identical to the unsharded engine,
    and the only mode that supports ``fail_fast``, ``oversub`` and
    decision recording — all three are global-state features that are
    ill-defined across independent shards).

    ``workers`` bounds the process pool; ``0`` means one worker per
    shard, ``1`` runs every shard inline (no pool — the debugging and
    property-test path).  ``checkpoint`` names a JSONL file written
    through :class:`repro.runner.checkpoint.JsonlCheckpoint` (header
    body ``"plan"``, fingerprint salted with the workload digest);
    ``resume=True`` skips shards that file already holds an ``ok``
    record for.
    """

    def __init__(
        self,
        machines: Sequence[MachineSpec],
        config: Optional[SlackVMConfig] = None,
        policy: str = "progress",
        kernel: str = "incremental",
        shards: int = 1,
        router: str = "hash",
        workers: int = 0,
        seed: int = 0,
        fail_fast: bool = False,
        recorder: DecisionRecorder = NULL_RECORDER,
        metrics: MetricsRegistry = NULL_METRICS,
        oversub: Optional[OversubParams] = None,
        checkpoint: Optional[str] = None,
        resume: bool = False,
    ):
        if shards > 1:
            if fail_fast:
                raise ConfigError(
                    "fail_fast is ill-defined across shards (a rejection in "
                    "one shard cannot halt the others mid-stream); use shards=1"
                )
            if oversub is not None:
                raise ConfigError(
                    "dynamic oversubscription is a global control loop; "
                    "it is not supported with shards > 1"
                )
            if recorder.enabled:
                raise ConfigError(
                    "decision recording crosses the process boundary only "
                    "for shards=1"
                )
        self.machines = list(machines)
        self.config = config or SlackVMConfig()
        self.policy = policy
        self.kernel = kernel
        self.shards = shards
        self.router = router
        self.workers = workers
        self.seed = seed
        self.fail_fast = fail_fast
        self.recorder = recorder
        self.metrics = metrics
        self.oversub = oversub
        self.checkpoint = checkpoint
        self.resume = resume
        #: Per-shard worker wall seconds of the last ``run()``, indexed
        #: by shard; empty for ``shards=1`` (no worker ran), 0.0 for a
        #: shard resumed from the checkpoint.  The max is the run's
        #: critical path — what wall-clock converges to when every shard
        #: gets its own core.
        self.shard_walls: tuple[float, ...] = ()
        # Validates geometry, router, policy and kernel eagerly.
        self.plan = ShardPlan(
            num_hosts=len(self.machines),
            shards=shards,
            router=router,
            seed=seed,
            policy=policy,
            kernel=kernel,
        )

    # -- routing -------------------------------------------------------------

    def _route(
        self, workload: list[VMRequest]
    ) -> tuple[list, list[int], list[list[VMRequest]]]:
        """Assign every event to a shard by replaying the global stream.

        Returns ``(events, event_shards, sub_workloads)`` where
        ``event_shards[i]`` owns ``events[i]`` and ``sub_workloads[s]``
        lists shard ``s``'s VMs in global arrival order.  Pure function
        of ``(plan, workload)`` — see the module docstring.
        """
        caps_cpu = [
            float(sum(m.cpus for m in self.machines[self.plan.block(s)]))
            for s in range(self.shards)
        ]
        caps_mem = [
            float(sum(m.mem_gb for m in self.machines[self.plan.block(s)]))
            for s in range(self.shards)
        ]
        router = make_router(
            self.router,
            self.shards,
            seed=self.seed,
            shard_cap_cpu=caps_cpu,
            shard_cap_mem=caps_mem,
        )
        events = workload_event_list(workload)
        assignment: dict[str, int] = {}
        event_shards: list[int] = []
        sub: list[list[VMRequest]] = [[] for _ in range(self.shards)]
        for ev in events:
            shard = assignment.get(ev.vm.vm_id)
            if shard is None:
                # First sighting routes the VM.  Normally that is its
                # ARRIVAL; a zero-lifetime VM's DEPARTURE sorts first
                # (departures precede arrivals at equal timestamps) and
                # routes it early so both events land on one shard.
                shard = router.route(ev.vm)
                assignment[ev.vm.vm_id] = shard
                sub[shard].append(ev.vm)
            elif ev.kind is EventKind.DEPARTURE:
                router.release(ev.vm, shard)
            event_shards.append(shard)
        return events, event_shards, sub

    # -- execution -----------------------------------------------------------

    def run(self, workload: list[VMRequest]) -> SimulationResult:
        # Checked here, not in __init__: the CLI sets both attributes
        # after construction.
        if self.resume and self.checkpoint is None:
            raise ConfigError("resume requires a checkpoint")
        if self.shards == 1:
            if self.checkpoint is not None:
                raise ConfigError(
                    "a shard checkpoint needs shards > 1 (shards=1 runs one "
                    "in-process simulation and writes no checkpoint)"
                )
            self.metrics.gauge(metric_names.SHARD_COUNT).set(1)
            sim = VectorSimulation(
                self.machines,
                self.config,
                policy=self.policy,
                fail_fast=self.fail_fast,
                recorder=self.recorder,
                metrics=self.metrics,
                kernel=self.kernel,
                oversub=self.oversub,
            )
            return sim.run(workload)

        events, event_shards, sub = self._route(workload)
        measuring = self.metrics.enabled
        if measuring:
            self.metrics.gauge(metric_names.SHARD_COUNT).set(self.shards)
            self.metrics.counter(metric_names.SHARD_ROUTED).inc(
                sum(1 for ev in events if ev.kind is EventKind.ARRIVAL)
            )
            counts = [len(vms) for vms in sub]
            for count in counts:
                self.metrics.histogram(metric_names.SHARD_QUEUE_DEPTH).observe(count)
            mean = sum(counts) / len(counts)
            self.metrics.gauge(metric_names.SHARD_IMBALANCE).set(
                max(counts) / mean if mean > 0 else 0.0
            )

        seeds = derive_seeds(self.seed, self.shards)
        payloads = [
            {
                "shard": s,
                "seed": seeds[s],
                "policy": self.policy,
                "kernel": self.kernel,
                "config": _config_payload(self.config),
                "machines": [
                    [m.name, m.cpus, m.mem_gb]
                    for m in self.machines[self.plan.block(s)]
                ],
                "workload": [vm_to_dict(vm) for vm in sub[s]],
            }
            for s in range(self.shards)
        ]

        results = self._execute(payloads, workload)

        self.shard_walls = tuple(record["wall_s"] or 0.0 for record in results)
        if measuring:
            for record in results:
                if record["wall_s"] is not None:
                    self.metrics.timer(metric_names.SHARD_WALL_S).observe(record["wall_s"])
        merge_started = time.perf_counter()
        merged = merge_shard_results(self.plan, events, event_shards, results)
        if measuring:
            self.metrics.timer(metric_names.SHARD_MERGE_S).observe(
                time.perf_counter() - merge_started
            )
        return merged

    def _execute(
        self, payloads: list[dict], workload: list[VMRequest]
    ) -> list[dict]:
        """Run shard payloads, via pool or inline, returning by index."""
        results: dict[int, dict] = {}
        ckpt: Optional[JsonlCheckpoint] = None
        if self.checkpoint is not None:
            ckpt = JsonlCheckpoint(self.checkpoint, "plan", ShardingError)
            fingerprint = self.plan.fingerprint(workload_digest(workload))
            for record in ckpt.start(fingerprint, self.plan.to_dict(), self.resume):
                if record.get("kind") == "shard" and record.get("ok"):
                    # A resumed shard ran in another process: no wall of
                    # this run (files written before the strip below
                    # still carry one).
                    results[int(record["shard"])] = {**record, "wall_s": None}

        pending = [p for p in payloads if p["shard"] not in results]
        workers = self.workers if self.workers > 0 else len(pending)
        try:
            for payload, record, error in run_pool(_run_shard, pending, workers):
                if error is None and not record["ok"]:
                    error = record["error"]
                if error is not None:
                    # Raised in the shard, or its worker died (e.g. OOM-killed).
                    raise ShardingError(
                        f"shard {payload['shard']} failed with "
                        f"{error['type']}: {error['message']}\n{error['traceback']}"
                    )
                results[record["shard"]] = record
                if ckpt is not None:
                    # wall_s is this run's operator telemetry; shard resume
                    # keys on the payload fingerprint and never reads it.
                    ckpt.append(
                        {"kind": "shard", **{k: v for k, v in record.items() if k != "wall_s"}}
                    )
        finally:
            if ckpt is not None:
                ckpt.close()
        return [results[s] for s in range(self.shards)]
