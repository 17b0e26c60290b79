"""The traced round: drive one workload from outside, layer by layer.

``trace_workload`` runs the outside-driven twin of a front-door call
under one root span and digests what it produced; ``Traced.finish``
turns the spans into the per-layer metrics of ``names.PER_LAYER`` and
dumps them.  Only ``worker.py --mode trace`` imports this package.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.api import build_config, build_machines, build_simulation, build_workload
from repro.simulator.conformance import result_stream

from layers.batch import traced_object_run, traced_vector_run
from layers.serving import clock_wakeup_us, traced_serve
from layers.sharding import traced_sharded_run
from layers.sizing import traced_evaluate
from layers.spans import Tracer
from names import PER_LAYER
from workloads import evaluate_cell_row, evaluate_digest, serve_outcome, sha

ROOT = "harness.front_door"


def _trace_run(tr: Tracer, spec: Any) -> dict:
    """``repro.api.run`` taken apart: generate, glue, engine."""
    with tr.span("workload.generate"):
        workload = build_workload(spec)
    with tr.span("api.glue"):
        machines = build_machines(spec, workload)
        config = build_config(spec, workload)
        sim = build_simulation(spec, machines, config=config)
    info: dict = {"vms": len(workload)}
    if spec.engine == "object":
        result = traced_object_run(tr, sim.hosts, sim.scheduler, workload)
    elif spec.shards > 1:
        result, shard_info = traced_sharded_run(tr, sim, workload)
        info.update(shard_info)
    else:
        controller = sim.oversub.build_controller() if sim.oversub is not None else None
        result = traced_vector_run(
            tr, sim.machines, sim.config, sim.policy, sim.kernel, workload,
            controller=controller,
        )
    info["result"] = result
    return info


@dataclass
class Traced:
    """One outside-driven run: its spans, its digest, what they do not carry."""

    tr: Tracer
    wall_s: float
    digest: str
    seed: int
    info: dict = field(default_factory=dict)  # run(): vms, result, shard extras
    report: Any = None  # serve(): the ServiceReport
    wakeup_us: float = 0.0

    def finish(self, front: dict, trace_out: Optional[str]) -> dict:
        """Per-layer metrics against the best untraced call; dump the spans."""
        metrics = self.metrics(front)
        if trace_out:
            self.tr.dump(
                trace_out,
                seed=self.seed,
                digest=self.digest,
                front_door_wall_s=front["wall_s"],
                traced_wall_s=self.wall_s,
                metrics=metrics,
            )
        return {"traced_wall_s": self.wall_s, "digest": self.digest, "metrics": metrics}

    def metrics(self, front: dict) -> dict:
        tr = self.tr
        busy, calls = tr.busy, tr.calls
        m = {metric.name: 0.0 for metric in PER_LAYER}

        m["workload.generate_s"] = busy("workload.generate")
        m["workload.vms"] = self.info.get("vms", 0)
        if m["workload.vms"]:
            m["workload.generate_us_per_vm"] = (
                m["workload.generate_s"] / m["workload.vms"] * 1e6
            )
        m["api.glue_s"] = busy("api.glue")
        m["events.build_s"] = busy("events.build")
        m["events.count"] = calls("engine.timeline")

        m["vectorpool.init_s"] = busy("vectorpool.init")
        for op in ("select", "deploy", "remove"):
            m[f"vectorpool.{op}_s"] = busy(f"vectorpool.{op}")
            m[f"vectorpool.{op}_calls"] = calls(f"vectorpool.{op}")
        m["vectorpool.select_p50_us"] = tr.p_us("vectorpool.select", "p50_us")
        m["vectorpool.select_p99_us"] = tr.p_us("vectorpool.select", "p99_us")
        if m["vectorpool.select_calls"]:
            m["vectorpool.reject_ratio"] = (
                1.0 - m["vectorpool.deploy_calls"] / m["vectorpool.select_calls"]
            )
        m["engine.timeline_s"] = busy("engine.timeline")
        m["engine.loop_self_s"] = tr.self_s("engine.loop")

        probes = [s for s in tr.spans if s["name"] == "sizing.probe"]
        m["sizing.probes"] = len(probes)
        m["sizing.probe_s"] = busy("sizing.probe")
        if probes:
            m["sizing.feasible_ratio"] = sum(p["feasible"] for p in probes) / len(probes)
            m["sizing.events_simulated"] = sum(p["events"] for p in probes)
        m["sizing.lower_bound_s"] = busy("sizing.lower_bound")

        m["scheduling.select_s"] = busy("scheduling.select")
        m["scheduling.select_calls"] = calls("scheduling.select")
        m["scheduling.select_p50_us"] = tr.p_us("scheduling.select", "p50_us")
        m["scheduling.hosts_scanned"] = sum(
            s["calls"] * s["hosts"] for s in tr.spans if s["name"] == "scheduling.select"
        )
        m["localsched.deploy_s"] = busy("localsched.deploy")
        m["localsched.remove_s"] = busy("localsched.remove")

        if "payloads" in self.info:
            self._sharding(m)
        m["oversub.advance_s"] = busy("oversub.advance")
        summary = self.info["result"].oversub if "result" in self.info else None
        if summary is not None:
            m["oversub.updates"] = summary.updates
            m["oversub.host_windows"] = summary.host_windows
        if self.report is not None:
            self._serving(m, front)

        m["trace.coverage"] = 1.0 - tr.self_s(ROOT) / self.wall_s
        m["trace.overhead_ratio"] = self.wall_s / front["wall_s"]
        m["failed_ops_ratio"] = front["refused"] / front["arrivals"]
        return m

    def _sharding(self, m: dict) -> None:
        tr, busy = self.tr, self.tr.busy
        shard_walls = [s["sim_wall_s"] for s in tr.spans if s["name"] == "dispatcher.shard"]
        m["router.route_s"] = busy("router.route")
        m["router.routed"] = self.info["routed"]
        m["router.imbalance"] = self.info["imbalance"]
        m["dispatcher.serialize_s"] = busy("dispatcher.serialize")
        # Sized here, after the traced wall closed: pickling the payloads
        # a second time is not the program's cost.
        m["dispatcher.payload_mb"] = (
            sum(len(pickle.dumps(p)) for p in self.info["payloads"]) / 2**20
        )
        m["dispatcher.shard_wall_max_s"] = max(shard_walls)
        m["dispatcher.shard_wall_sum_s"] = sum(shard_walls)
        m["merge.merge_s"] = busy("merge.merge")
        # Parent-side events.build only: the shards' own ran inside the
        # pool and is already inside shard_wall_max_s.
        parent_events = sum(
            s["busy_s"] for s in tr.spans
            if s["name"] == "events.build" and "shard" not in s
        )
        m["dispatcher.pool_overhead_s"] = (
            busy("dispatcher.run") - parent_events - m["router.route_s"]
            - m["dispatcher.serialize_s"] - m["dispatcher.shard_wall_max_s"]
            - m["merge.merge_s"]
        )

    def _serving(self, m: dict, front: dict) -> None:
        tr, report = self.tr, self.report
        m["generator.draw_s"] = tr.busy("generator.draw")
        m["generator.requests"] = tr.calls("generator.draw")
        m["clock.wakeup_us"] = self.wakeup_us
        m["controlplane.request_s"] = tr.busy("controlplane.request")
        m["controlplane.request_p50_us"] = tr.p_us("controlplane.request", "p50_us")
        m["controlplane.delete_s"] = tr.busy("controlplane.delete")
        m["service.self_s"] = tr.self_s("service.run") + tr.self_s("service.build")
        m["service.queue_depth_mean"] = report.queue["depth_mean"]
        m["service.wait_p99_vs"] = report.latency["wait_p99_s"]
        m["service.reject_ratio"] = report.rates["reject"]
        m["service.timeout_ratio"] = report.rates["timeout"]
        m["service.decision_p99_us"] = front["decision_p99_us"]
        m["decision_p50_us"] = front["decision_p50_us"]
        m["decision_p90_us"] = front["decision_p90_us"]


def trace_workload(name: str, door: str, specs: list, seed: int) -> Traced:
    tr = Tracer(name)
    if door == "serve":
        # Benched outside the traced wall (once per process).
        wakeup_us = clock_wakeup_us()
        with tr.span(ROOT) as root:
            report, registry = traced_serve(tr, specs[0], wakeup_us)
        digest = serve_outcome(specs[0], report, registry).digest
        return Traced(tr, root["busy_s"], digest, seed, report=report, wakeup_us=wakeup_us)
    if door == "evaluate":
        rows, vms = [], 0
        with tr.span(ROOT) as root:
            for spec in specs:
                baseline, shared, n = traced_evaluate(tr, spec)
                rows.append(evaluate_cell_row(spec, baseline, shared))
                vms += n
        return Traced(tr, root["busy_s"], evaluate_digest(rows), seed, info={"vms": vms})
    with tr.span(ROOT) as root:
        info = _trace_run(tr, specs[0])
    return Traced(tr, root["busy_s"], sha(result_stream(info["result"])), seed, info=info)
