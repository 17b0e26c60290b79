"""The eight workloads: specs, front-door calls, digests and output checks.

This is the end-to-end path.  It calls the program only through its
front doors (``repro.api.run`` / ``evaluate``, ``repro.serving.serve``)
and hands them nothing but specs built from ``(seed, scale)``; it
imports nothing from ``layers/``.  Everything that inspects a result
(``outcome``) runs outside the timed region.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from repro.api import RunSpec, build_workload, evaluate, run
from repro.hardware.machine import MachineSpec
from repro.obs import names as metric_names
from repro.obs.metrics import MetricsRegistry
from repro.serving import RequestSource, ServiceSpec, serve
from repro.simulator.conformance import result_stream
from repro.simulator.sizing import demand_lower_bound
from repro.workload.catalog import PROVIDERS

#: Size of the warm-up call relative to the full workload.  At 1/20 the
#: set-up was nine parts interpreter start and imports to one part
#: warm-up, and on this host import time moved 35% from one hour to the
#: next while computing moved 7%; at 1/5 they weigh about the same.
WARMUP_SCALE = 0.2

_GRID = dict(provider="azure", mix=(40, 30, 30), host_cpus=48, host_mem_gb=192.0)


@dataclass
class Outcome:
    """What one front-door call produced, as the ledger records it."""

    digest: str
    arrivals: int  # placement requests (evaluate_grid: cells)
    refused: int  # rejected + timed out (evaluate_grid: failed cells)
    events: int  # input events: arrivals + finite departures
    problems: list[str] = field(default_factory=list)  # failed output checks
    #: Serving only: decision_n and decision_p50/p90/p99_us over the
    #: per-decision walls the service's own histogram recorded.
    decisions: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    door: str  # "run" | "evaluate" | "serve": which traced twin drives it
    specs: Callable[[int, float], list]
    call: Callable[[Any], Any]  # the front door, on one spec
    outcome: Callable[[list, list], Outcome]  # specs, their results


def _scaled(n: int, scale: float, floor: int = 1) -> int:
    return max(floor, round(n * scale))


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- run() ---------------------------------------------------------------------


def _run_specs(population: int, hosts: int, **extra: Any) -> Callable[[int, float], list]:
    shards = extra.get("shards", 1)

    def specs(seed: int, scale: float) -> list:
        return [
            RunSpec(
                target_population=_scaled(population, scale),
                num_hosts=_scaled(hosts, scale, floor=shards),
                seed=seed,
                **_GRID,
                **extra,
            )
        ]

    return specs


def _object_specs(seed: int, scale: float) -> list:
    return [
        RunSpec(
            provider="azure",
            mix="F",
            target_population=_scaled(1000, scale),
            engine="object",
            seed=seed,
        )
    ]


@functools.lru_cache(maxsize=None)
def _trace_counts(spec: RunSpec) -> tuple[int, int]:
    """(arrivals, input events) of the spec's generated trace — counted
    from the inputs, once per worker, not read off the result."""
    trace = build_workload(spec)
    return len(trace), len(trace) + sum(1 for vm in trace if vm.departure is not None)


def _run_outcome(specs: list, results: list) -> Outcome:
    (spec,), (result,) = specs, results
    arrivals, events = _trace_counts(spec)
    problems = []
    placed, rejected = len(result.placements), len(result.rejections)
    if placed + rejected != arrivals:
        problems.append(f"placed {placed} + rejected {rejected} != arrivals {arrivals}")
    if len(result.timeline.times) != events:
        problems.append(
            f"{len(result.timeline.times)} timeline samples for {events} input events"
        )
    _, cpu, mem = result.timeline.as_arrays()
    # A dynamic estimator may admit CPU reservations past physical
    # cores by design; memory is never oversubscribed by it.
    if spec.oversub is None and cpu.max() > result.capacity_cpu + 1e-6:
        problems.append(f"peak cpu {cpu.max()} > capacity {result.capacity_cpu}")
    if mem.max() > result.capacity_mem + 1e-6:
        problems.append(f"peak mem {mem.max()} > capacity {result.capacity_mem}")
    return Outcome(
        digest=sha(result_stream(result)),
        arrivals=arrivals,
        refused=rejected,
        events=events,
        problems=problems,
    )


# -- evaluate() ----------------------------------------------------------------

_EVAL_CELLS = [(p, m) for p in ("azure", "ovhcloud") for m in ("F", "K", "O")]
#: Traces per cell.  A search takes 3 to 5 probes depending on the trace,
#: so the work in one 6-cell grid varies by 9-10% (sd) with the seed
#: alone, at this population as at 500 — its wall spread 14% (quartile
#: distance over ten seeds); eight grids bring that to about 5%.
_EVAL_REPEATS = 8
#: What ``repro sweep``, the paper's many-cell driver, defaults to.
_EVAL_POPULATION = 250


def _evaluate_specs(seed: int, scale: float) -> list:
    # A smaller scale shrinks the grid's trace axis as well as the traces.
    return [
        RunSpec(provider=p, mix=m, target_population=_scaled(_EVAL_POPULATION, scale),
                seed=seed * _EVAL_REPEATS + k)
        for k in range(_scaled(_EVAL_REPEATS, scale))
        for p, m in _EVAL_CELLS
    ]


def evaluate_cell_row(spec: RunSpec, baseline: dict, slackvm_pms: int) -> list:
    """One cell's digest row — shared with the traced driver."""
    return [
        spec.provider,
        spec.mix_label,
        sorted((float(r), int(n)) for r, n in baseline.items()),
        int(slackvm_pms),
    ]


def evaluate_digest(rows: Sequence[list]) -> str:
    return sha(json.dumps(sorted(rows), separators=(",", ":")))


@functools.lru_cache(maxsize=None)
def _cell_counts(spec: RunSpec) -> tuple[int, int, tuple]:
    """(input events, shared lower bound, ((ratio, lower bound), ...)) of
    one cell's generated trace — from the inputs, once per worker."""
    trace = build_workload(spec)
    machine = MachineSpec(name="host", cpus=spec.host_cpus, mem_gb=spec.host_mem_gb)
    per_level = tuple(
        (ratio, demand_lower_bound([vm for vm in trace if vm.level.ratio == ratio], machine))
        for ratio in sorted({vm.level.ratio for vm in trace})
    )
    events = len(trace) + sum(1 for vm in trace if vm.departure is not None)
    return events, demand_lower_bound(trace, machine), per_level


def _evaluate_outcome(specs: list, results: list) -> Outcome:
    rows, problems = [], []
    events = failed = 0
    for spec, cell in zip(specs, results):
        rows.append(evaluate_cell_row(spec, cell.baseline_pms_per_level, cell.slackvm_pms))
        cell_events, shared_bound, level_bounds = _cell_counts(spec)
        events += cell_events
        bad = []
        if cell.slackvm_pms < shared_bound:
            bad.append("shared cluster below the demand lower bound")
        for ratio, bound in level_bounds:
            if cell.baseline_pms_per_level.get(ratio, 0) < bound:
                bad.append(f"level {ratio} baseline below the demand lower bound")
        if bad:
            failed += 1
            problems.extend(f"{spec.provider}/{spec.mix_label}/seed {spec.seed}: {b}" for b in bad)
    return Outcome(
        digest=evaluate_digest(rows),
        arrivals=len(specs),
        refused=failed,
        events=events,
        problems=problems,
    )


# -- serve() -------------------------------------------------------------------


def _serve_specs(**knobs: Any) -> Callable[[int, float], list]:
    duration = knobs.pop("duration")

    def specs(seed: int, scale: float) -> list:
        return [ServiceSpec(duration=max(1.0, duration * scale), seed=seed, **knobs)]

    return specs


def _call_serve(spec: ServiceSpec) -> tuple:
    # serve() builds an enabled registry when given none; handing it
    # ours keeps the same path and lets us read the raw samples.
    registry = MetricsRegistry()
    return serve(spec, metrics=registry), registry


@functools.lru_cache(maxsize=None)
def source_arrivals(spec: ServiceSpec) -> int:
    """Requests the open-loop source emits inside the admission window."""
    traffic_seed, _ = np.random.SeedSequence(spec.seed).spawn(2)
    source = RequestSource(PROVIDERS[spec.provider], spec.mix, spec.traffic(), traffic_seed)
    return sum(1 for _ in source.window(spec.duration))


def serve_outcome(spec: ServiceSpec, report: Any, registry: MetricsRegistry) -> Outcome:
    counts = report.counts
    arrivals = counts["arrivals"]
    queue_timeouts = sum(
        1 for line in report.decision_log if " timeout " in line and "stage=queue" in line
    )
    problems = []
    accounted = counts["placed"] + counts["pending"] + counts["rejected"] + queue_timeouts
    if accounted != arrivals:
        problems.append(f"accounted {accounted} != arrivals {arrivals}")
    expected = source_arrivals(spec)
    if arrivals != expected:
        problems.append(f"service saw {arrivals} arrivals, the source emits {expected}")
    for share in ("cpu_allocation_share", "mem_allocation_share"):
        if report.cluster[share] > 1.0 + 1e-9:
            problems.append(f"{share} {report.cluster[share]} > 1")
    samples = registry.histogram(metric_names.SERVING_LATENCY_PLACEMENT).samples
    p50, p90, p99 = np.percentile(samples, [50, 90, 99]) * 1e6
    return Outcome(
        digest=report.fingerprint,
        arrivals=arrivals,
        refused=counts["rejected"] + counts["timeouts"],
        events=arrivals + counts["departures"],
        problems=problems,
        decisions={
            "decision_n": len(samples),
            "decision_p50_us": float(p50),
            "decision_p90_us": float(p90),
            "decision_p99_us": float(p99),
        },
    )


def _serve_outcome(specs: list, results: list) -> Outcome:
    (spec,), ((report, registry),) = specs, results
    return serve_outcome(spec, report, registry)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("vector_5k", "run", _run_specs(6000, 5000), run, _run_outcome),
        Workload("vector_50k", "run", _run_specs(5000, 50000), run, _run_outcome),
        Workload("evaluate_grid", "evaluate", _evaluate_specs, evaluate, _evaluate_outcome),
        Workload("object_1k", "run", _object_specs, run, _run_outcome),
        # workers = nproc of the recording machine, never more; the
        # worker refuses to run this where nproc < 2.
        Workload("shard_2w", "run", _run_specs(8000, 8000, shards=2, workers=2),
                 run, _run_outcome),
        Workload("oversub_percentile", "run", _run_specs(1500, 375, oversub="percentile"),
                 run, _run_outcome),
        Workload("serve_steady", "serve",
                 _serve_specs(rate=80, duration=30, mean_lifetime=20),
                 _call_serve, _serve_outcome),
        Workload("serve_overload", "serve",
                 _serve_specs(rate=400, duration=8, mean_lifetime=5, timeout_s=0.2),
                 _call_serve, _serve_outcome),
    )
}


def max_workers(specs: Sequence[Any]) -> int:
    """Largest process count any spec asks for (the nproc guard reads it)."""
    return max((getattr(s, "workers", 0) or getattr(s, "shards", 1)) for s in specs)
