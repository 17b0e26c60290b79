"""``repro bench engine`` — placement-kernel micro-benchmark.

Measures the vector engine's event throughput (arrivals + departures
processed per second) for both placement kernels on the same generated
workloads, through the same run loop:

* ``incremental`` — the production kernel in
  :mod:`repro.simulator.vectorpool` (dirty-host bookkeeping, candidate
  masks, shape-keyed masked-score cache);
* ``naive`` — the reference in :mod:`repro.simulator.refkernel`
  (allocating cluster-wide feasibility and scores on every arrival),
  the baseline every speedup is a ratio against.

Every cell verifies that both kernels produce identical placements,
rejections, pooling counts and timelines before its timing is trusted
— a benchmark of a wrong kernel is worthless.  Per-op timers go
through :class:`repro.obs.metrics.MetricsRegistry` (the ``select_s``
timer the engine already maintains), identically for every arm.

The grid has two tiers.  **Standard** cells carry the full policy
grid at the committed load factor; **scale** cells (``scale_hosts``,
typically 50k and 100k) run a policy subset at a reduced load factor so
the naive baseline arm — milliseconds per event at 100k hosts — stays
affordable, and report a peak-RSS memory column next to throughput.
Every cell is constructed through :class:`repro.api.RunSpec` — the
bench times exactly what ``repro.api.run`` executes.  (The sharded
dispatcher is timed by ``perf/``'s ``shard_2w`` workload and checked
by ``repro shard --verify --baseline``, not here.)
``peak_rss_mb`` is ``ru_maxrss``, the *process-lifetime high-water
mark*: it never decreases across arms or cells, so read it as "the run
up to and including this arm fit in this much memory", not as a
per-arm footprint.

The committed ``BENCH_engine.json`` is this module's output on the
full grid; :func:`compare_engine_bench` checks a fresh (usually
smaller) run against it **per cell and per kernel ratio** — absolute
events/sec are machine-dependent, the kernel-vs-naive ratios mostly
are not — with a generous tolerance for noisy CI runners.  Cells where
a kernel is *slower* than naive (ratio < 1, e.g. ``incremental`` /
``first_fit`` on small clusters, where per-event dirty-host
bookkeeping costs more than the tiny full scan it avoids) are reported
explicitly as crossovers by :func:`crossover_report` rather than
hidden inside a global average; docs/ARCHITECTURE.md discusses the
small-cluster crossover.
"""

from __future__ import annotations

import os
import platform
import resource
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional

import numpy as np

from repro.api import RunSpec, build_machines, build_simulation, build_workload
from repro.core.errors import ReproError
from repro.obs import names as metric_names
from repro.obs.metrics import MetricsRegistry
from repro.simulator.conformance import result_stream
from repro.simulator.vectorpool import KERNELS, POLICIES
from repro.workload.catalog import PROVIDERS

__all__ = [
    "EngineBenchSpec",
    "run_engine_bench",
    "compare_engine_bench",
    "crossover_report",
]

#: Schema version of the JSON payload (bump on incompatible change).
#: 4: two kernels (``incremental``, ``naive``) on standard and scale
#: tiers; per-kernel ``speedups`` + ``peak_rss_mb`` columns; cells
#: construct through :class:`repro.api.RunSpec`.
SCHEMA = 4

#: The bench's fixed workload mix (1:1 / 2:1 / 3:1 percentages).
_BENCH_MIX = (40.0, 30.0, 30.0)


class BenchError(ReproError):
    """A benchmark invariant failed (kernel mismatch, bad baseline...)."""


@dataclass(frozen=True, slots=True)
class EngineBenchSpec:
    """One engine-benchmark grid.

    ``vms_per_host`` scales the workload with the cluster so load (and
    therefore per-event work) stays comparable across sizes; the
    defaults reproduce the committed ``BENCH_engine.json`` grid.

    ``scale_hosts`` adds the datacenter-scale tier: those cells run
    only ``scale_policies`` at ``scale_vms_per_host`` load so the
    naive reference arm stays tractable at 100k hosts.  Empty (the
    default) skips the tier entirely.
    """

    hosts: tuple[int, ...] = (500, 2000, 5000)
    policies: tuple[str, ...] = tuple(POLICIES)
    provider: str = "azure"
    seed: int = 7
    vms_per_host: float = 4.0
    host_cpus: int = 48
    host_mem_gb: float = 192.0
    warmup_vms: int = 2000
    verify: bool = True
    scale_hosts: tuple[int, ...] = ()
    scale_policies: tuple[str, ...] = ("first_fit", "best_fit", "progress")
    scale_vms_per_host: float = 0.5
    scale_warmup_vms: int = 200

    def __post_init__(self) -> None:
        unknown = [
            p for p in (*self.policies, *self.scale_policies) if p not in POLICIES
        ]
        if unknown:
            raise BenchError(f"unknown policies {unknown}; expected {POLICIES}")
        if self.provider not in PROVIDERS:
            raise BenchError(
                f"unknown provider {self.provider!r}; expected {sorted(PROVIDERS)}"
            )
        if not self.hosts or any(n <= 0 for n in self.hosts):
            raise BenchError(f"hosts must be positive, got {self.hosts}")
        if any(n <= 0 for n in self.scale_hosts):
            raise BenchError(
                f"scale hosts must be positive, got {self.scale_hosts}"
            )


def _peak_rss_mb() -> float:
    """Process-lifetime peak resident set, in MiB (monotonic)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB; macOS reports bytes.
    if sys.platform == "darwin":  # pragma: no cover - platform specific
        return peak / (1024.0 * 1024.0)
    return peak / 1024.0


def _cell_run_spec(
    spec: EngineBenchSpec,
    num_hosts: int,
    policy: str,
    kernel: str,
    vms_per_host: float,
) -> RunSpec:
    """One benchmark arm as a :class:`repro.api.RunSpec`.

    The spec is the sole construction path: workload, fleet and engine
    all materialize from it through the :mod:`repro.api` builders, so
    the bench times exactly what ``repro.api.run`` would execute.
    """
    return RunSpec(
        provider=spec.provider,
        mix=_BENCH_MIX,
        target_population=max(1, round(vms_per_host * num_hosts)),
        seed=spec.seed,
        num_hosts=num_hosts,
        host_cpus=spec.host_cpus,
        host_mem_gb=spec.host_mem_gb,
        policy=policy,
        kernel=kernel,
    )


def _run_tier(
    spec: EngineBenchSpec,
    hosts: tuple[int, ...],
    policies: tuple[str, ...],
    vms_per_host: float,
    warmup_vms: int,
    tier: str,
    say: Callable[[str], None],
) -> list[dict]:
    cells = []
    for num_hosts in hosts:
        trace_spec = _cell_run_spec(
            spec, num_hosts, policies[0], "incremental", vms_per_host
        )
        workload = build_workload(trace_spec)
        machines = build_machines(trace_spec)
        num_events = len(workload) + sum(
            1 for vm in workload if vm.departure is not None
        )
        warmup = workload[:warmup_vms]
        for policy in policies:
            arms = {}
            for kernel in KERNELS:
                metrics = MetricsRegistry()
                sim = build_simulation(
                    _cell_run_spec(spec, num_hosts, policy, kernel, vms_per_host),
                    machines,
                    metrics=metrics,
                )
                sim.run(warmup)
                t0 = perf_counter()
                result = sim.run(workload)
                wall_s = perf_counter() - t0
                select = metrics.timer(metric_names.SELECT_S)
                arms[kernel] = {
                    "result": result,
                    "payload": {
                        "wall_s": wall_s,
                        "events_per_s": num_events / wall_s,
                        "select_mean_us": (
                            1e6 * select.total_s / select.count if select.count else 0.0
                        ),
                        "select_ops_per_s": select.rate,
                        "peak_rss_mb": _peak_rss_mb(),
                    },
                }
            if spec.verify:
                first, *rest = (result_stream(a["result"]) for a in arms.values())
                if any(stream != first for stream in rest):
                    raise BenchError(
                        f"kernels disagree on hosts={num_hosts} policy={policy}; "
                        "run `repro audit` to localize the divergence"
                    )
            result = arms["incremental"]["result"]
            naive_wall = arms["naive"]["payload"]["wall_s"]
            speedups = {
                kernel: naive_wall / arm["payload"]["wall_s"]
                for kernel, arm in arms.items()
                if kernel != "naive"
            }
            cells.append(
                {
                    "num_hosts": num_hosts,
                    "policy": policy,
                    "tier": tier,
                    "num_events": num_events,
                    "placed": len(result.placements),
                    "rejected": len(result.rejections),
                    "pooled": result.pooled_placements,
                    "verified": spec.verify,
                    "kernels": {k: a["payload"] for k, a in arms.items()},
                    "speedups": speedups,
                    # Legacy column (schema 1 compatibility for readers):
                    # the incremental-vs-naive ratio.
                    "speedup": speedups["incremental"],
                }
            )
            say(
                f"hosts={num_hosts:6d} {policy:20s} "
                f"incremental {arms['incremental']['payload']['events_per_s']:9.0f} ev/s "
                f"({speedups['incremental']:.2f}x)  "
                f"naive {arms['naive']['payload']['events_per_s']:9.0f} ev/s  "
                f"rss {arms['naive']['payload']['peak_rss_mb']:.0f}MB"
            )
    return cells


def run_engine_bench(
    spec: EngineBenchSpec = EngineBenchSpec(),
    progress: Optional[Callable[[str], None]] = None,
) -> dict:
    """Run the grid and return the JSON-ready payload.

    For each (cluster size, policy) cell both kernels replay the same
    workload once, after a shared warmup slice; with ``spec.verify``
    the results must agree exactly or :class:`BenchError` is raised.
    ``progress`` (when given) receives one line per cell.
    """
    say = progress or (lambda line: None)
    cells = _run_tier(
        spec, spec.hosts, spec.policies, spec.vms_per_host,
        spec.warmup_vms, "standard", say,
    )
    if spec.scale_hosts:
        cells += _run_tier(
            spec, spec.scale_hosts, spec.scale_policies,
            spec.scale_vms_per_host, spec.scale_warmup_vms, "scale", say,
        )
    headline = max(
        cells,
        key=lambda c: (c["num_hosts"], c["policy"] == "progress", c["speedup"]),
    )
    payload = {
        "schema": SCHEMA,
        "grid": {
            "hosts": list(spec.hosts),
            "policies": list(spec.policies),
            "provider": spec.provider,
            "seed": spec.seed,
            "vms_per_host": spec.vms_per_host,
            "host_cpus": spec.host_cpus,
            "host_mem_gb": spec.host_mem_gb,
            "warmup_vms": spec.warmup_vms,
            "scale_hosts": list(spec.scale_hosts),
            "scale_policies": list(spec.scale_policies),
            "scale_vms_per_host": spec.scale_vms_per_host,
            "scale_warmup_vms": spec.scale_warmup_vms,
        },
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "headline": {
            "num_hosts": headline["num_hosts"],
            "policy": headline["policy"],
            "speedup": headline["speedup"],
            "speedups": headline["speedups"],
            "events_per_s": headline["kernels"]["incremental"]["events_per_s"],
        },
        "cells": cells,
    }
    return payload


def _cell_speedups(cell: dict) -> dict:
    """Per-kernel ratio dict of a cell, tolerating schema-1 shapes."""
    speedups = cell.get("speedups")
    if speedups is None:
        speedups = {"incremental": cell["speedup"]}
    return speedups


def crossover_report(payload: dict) -> list[str]:
    """Cells where a kernel runs *slower* than naive, one line each.

    A ratio below 1.0 is not automatically a bug — on small clusters
    the incremental kernel's per-event bookkeeping can cost more than
    the tiny full scan it avoids (see docs/ARCHITECTURE.md) — but it
    must be visible, not averaged away.  ``repro bench engine`` prints
    these lines after every run and every ``--check``.
    """
    lines = []
    for cell in payload.get("cells", ()):
        for kernel, ratio in sorted(_cell_speedups(cell).items()):
            if ratio < 1.0:
                lines.append(
                    f"hosts={cell['num_hosts']} policy={cell['policy']}: "
                    f"{kernel} {ratio:.2f}x vs naive (crossover: naive "
                    "wins this cell)"
                )
    return lines


def compare_engine_bench(
    current: dict, baseline: dict, tolerance: float = 0.5
) -> list[str]:
    """Compare a fresh run against a committed baseline.

    Only **speedup ratios** are compared — per matching cell and per
    kernel, each required to reach ``baseline * (1 - tolerance)``;
    absolute events/sec are reported nowhere near a threshold because
    they track the machine, not the code.  Known-crossover cells
    (baseline ratio already below 1.0) are flagged as such in the
    problem text so a small-cluster crossover reads differently from a
    genuine regression.  Returns a list of problem descriptions —
    empty means the run holds the baseline's contract.
    """
    if not 0 <= tolerance < 1:
        raise BenchError(f"tolerance must be in [0, 1), got {tolerance}")
    for payload, name in ((current, "current"), (baseline, "baseline")):
        if payload.get("schema") != SCHEMA:
            raise BenchError(
                f"{name} payload has schema {payload.get('schema')!r}, "
                f"expected {SCHEMA}"
            )
    problems = []
    baseline_cells = {(c["num_hosts"], c["policy"]): c for c in baseline["cells"]}
    matched = 0
    for cell in current["cells"]:
        ref = baseline_cells.get((cell["num_hosts"], cell["policy"]))
        if ref is None:
            continue
        matched += 1
        ratios = _cell_speedups(cell)
        for kernel, ref_ratio in sorted(_cell_speedups(ref).items()):
            ratio = ratios.get(kernel)
            if ratio is None:
                continue
            floor = ref_ratio * (1 - tolerance)
            if ratio < floor:
                note = (
                    " [known crossover cell: baseline already < 1x]"
                    if ref_ratio < 1.0
                    else ""
                )
                problems.append(
                    f"hosts={cell['num_hosts']} policy={cell['policy']} "
                    f"kernel={kernel}: speedup {ratio:.2f}x fell below "
                    f"{floor:.2f}x (baseline {ref_ratio:.2f}x, "
                    f"tolerance {tolerance:.0%}){note}"
                )
    if not matched:
        problems.append(
            "no benchmark cell matches the baseline grid "
            f"(baseline has {sorted(baseline_cells)})"
        )
    return problems
