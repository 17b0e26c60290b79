"""Outside-driven sharded run: route, serialise, pool, merge.

Mirrors ``ShardedSimulation.run`` for ``shards > 1`` with the public
pieces it is made of — ``workload_event_list``, ``make_router``,
``vm_to_dict``/``vm_from_dict``, ``merge_shard_results`` — and a worker
of our own that replays its shard through ``traced_vector_run`` and
ships its spans home with the result record.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor, as_completed
from time import perf_counter
from typing import Sequence

from repro.core.config import SlackVMConfig
from repro.core.types import OversubscriptionLevel, VMRequest
from repro.hardware.machine import MachineSpec
from repro.sharding import ShardedSimulation, make_router
from repro.sharding.merge import merge_shard_results
from repro.simulator.engine import SimulationResult
from repro.simulator.events import EventKind, workload_event_list
from repro.workload.traces import vm_from_dict, vm_to_dict

from layers.batch import traced_vector_run
from layers.spans import Tracer


def run_shard(payload: dict) -> dict:
    """Pool worker: one shard's sub-workload, traced.  Returns the
    record schema ``merge_shard_results`` reads, plus the spans."""
    tr = Tracer(payload["workload_id"], origin=payload["origin"])
    with tr.span("dispatcher.shard", shard=payload["shard"]) as shard_span:
        with tr.span("dispatcher.deserialize"):
            machines = [
                MachineSpec(name=name, cpus=cpus, mem_gb=mem_gb)
                for name, cpus, mem_gb in payload["machines"]
            ]
            cfg = payload["config"]
            config = SlackVMConfig(
                levels=tuple(OversubscriptionLevel(r, m) for r, m in cfg["levels"]),
                pooling=cfg["pooling"],
                negative_progress_factor=cfg["negative_progress_factor"],
                topology_aware=cfg["topology_aware"],
                prefer_physical_cores=cfg["prefer_physical_cores"],
            )
            workload = [vm_from_dict(row) for row in payload["workload"]]
        started = perf_counter()
        result = traced_vector_run(
            tr, machines, config, payload["policy"], payload["kernel"], workload
        )
        # The same region the dispatcher's own ``wall_s`` covers.
        shard_span["sim_wall_s"] = perf_counter() - started
        with tr.span("dispatcher.result_record"):
            record = {
                "ok": True,
                "shard": payload["shard"],
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
            }
    record["spans"] = tr.spans
    return record


def traced_sharded_run(
    tr: Tracer, sim: ShardedSimulation, workload: Sequence[VMRequest]
) -> tuple[SimulationResult, dict]:
    """Returns the merged result and what the spans do not carry: routing
    counts, and the payloads (the caller sizes them once the traced wall
    has closed — pickling them a second time is not the program's cost)."""
    plan = sim.plan
    shards = plan.shards
    with tr.span("dispatcher.run"):
        with tr.span("events.build"):
            events = workload_event_list(list(workload))
        with tr.span("router.route"):
            blocks = [sim.machines[plan.block(s)] for s in range(shards)]
            router = make_router(
                sim.router,
                shards,
                seed=sim.seed,
                shard_cap_cpu=[float(sum(m.cpus for m in b)) for b in blocks],
                shard_cap_mem=[float(sum(m.mem_gb for m in b)) for b in blocks],
            )
            assignment: dict[str, int] = {}
            event_shards: list[int] = []
            sub: list[list[VMRequest]] = [[] for _ in range(shards)]
            for ev in events:
                shard = assignment.get(ev.vm.vm_id)
                if shard is None:
                    shard = router.route(ev.vm)
                    assignment[ev.vm.vm_id] = shard
                    sub[shard].append(ev.vm)
                elif ev.kind is EventKind.DEPARTURE:
                    router.release(ev.vm, shard)
                event_shards.append(shard)
        with tr.span("dispatcher.serialize"):
            config = sim.config
            payloads = [
                {
                    "shard": s,
                    "policy": sim.policy,
                    "kernel": sim.kernel,
                    "config": {
                        "levels": [[lv.ratio, lv.mem_ratio] for lv in config.levels],
                        "pooling": config.pooling,
                        "negative_progress_factor": config.negative_progress_factor,
                        "topology_aware": config.topology_aware,
                        "prefer_physical_cores": config.prefer_physical_cores,
                    },
                    "machines": [[m.name, m.cpus, m.mem_gb] for m in blocks[s]],
                    "workload": [vm_to_dict(vm) for vm in sub[s]],
                    "workload_id": tr.workload,
                    "origin": tr.origin,
                }
                for s in range(shards)
            ]
        with tr.span("dispatcher.pool"):
            results: dict[int, dict] = {}
            workers = sim.workers if sim.workers > 0 else shards
            # Default start method, as the dispatcher's own pool uses:
            # the start-up cost is part of what this span measures.
            with ProcessPoolExecutor(max_workers=min(workers, shards)) as pool:
                futures = [pool.submit(run_shard, p) for p in payloads]
                for future in as_completed(futures):
                    record = future.result()
                    results[record["shard"]] = record
            ordered = [results[s] for s in range(shards)]
            for record in ordered:
                tr.adopt(record.pop("spans"), shard=record["shard"])
        with tr.span("merge.merge"):
            merged = merge_shard_results(plan, events, event_shards, ordered)
    counts = [len(vms) for vms in sub]
    mean = sum(counts) / len(counts)
    info = {
        "routed": sum(counts),
        "imbalance": max(counts) / mean if mean > 0 else 0.0,
        "payloads": payloads,
    }
    return merged, info
