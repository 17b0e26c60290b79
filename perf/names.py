"""Names, units, directions and bounds of the perf ledger.

One table per kind of name.  ``run.py``, ``compare.py``, the worker and
``BENCHMARK.json`` all read these; ``tests/test_harness.py`` checks that
``BENCHMARK.json`` agrees with them.  Nothing here imports ``repro``.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Workload name -> one line on why it is in the set (README has the long form).
WORKLOADS = {
    "vector_5k": "run(): 6000-VM population on 5000 hosts; fixed per-event "
    "Python/numpy cost dominates, not O(hosts)",
    "vector_50k": "run(): 5000-VM population on 50000 hosts; O(hosts) scans and "
    "cache refresh dominate, the guard against dropping the caches",
    "evaluate_grid": "evaluate(): 2 providers x mixes F,K,O x 8 traces at repro sweep's "
    "population 250; many fail-fast sizing probes on 5-20-host clusters",
    "object_1k": "run(engine=object): Algorithm 1 object engine on ~50 "
    "auto-sized hosts; scheduler scan and per-event sums, vectorpool idle",
    "shard_2w": "run(shards=2, workers=2): 8000-VM population on 8000 hosts; "
    "route, payload serialisation, pool start-up and merge",
    "oversub_percentile": "run(oversub=percentile): controller.advance is most "
    "of the wall, placement ~10%; a kernel speed-up must not move it",
    "serve_steady": "serve(): open loop at 80 req/s virtual, 40% scheduler "
    "utilisation, nothing refused; CloudController.request dominates",
    "serve_overload": "serve(): open loop at 400 req/s virtual, 2x scheduler "
    "capacity; queue-bound rejects, timeouts and expiry watchdogs",
}

SERVING = ("serve_steady", "serve_overload")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: Relative worsening of the median that counts as a regression
    #: (end-to-end metrics only; 0 means "must repeat exactly").
    bound: float = 0.0


#: The ledger's end-to-end metrics (tracing off); README.md defines each.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("wall_s", "s", "lower", 0.10),
    Metric("events_per_s", "1/s", "higher", 0.10),
    Metric("cpu_s", "s", "lower", 0.10),
    Metric("peak_rss_mb", "MiB", "lower", 0.10),
    Metric("failed_ops_ratio", "ratio", "lower", 0.0),
    Metric("decision_p50_us", "us", "lower", 0.10),  # serving only
    Metric("decision_p90_us", "us", "lower", 0.15),  # serving only
)

#: (metric, workload) -> bound, where one workload is noisier than the rest.
BOUND_OVERRIDES = {
    ("wall_s", "shard_2w"): 0.15,
    ("events_per_s", "shard_2w"): 0.15,
}

#: setup_s also has to move by this many seconds to count as worse.
SETUP_ABS_S = 0.1

#: End-to-end metrics that exist only on the serving workloads.
SERVING_ONLY = ("decision_p50_us", "decision_p90_us")

#: The subset the driver contract can carry in ``BENCHMARK.json``:
#: defined on every workload and never 0.  The other three stay ledger
#: metrics (``run.py``/``compare.py``) and are printed with ``--trace 1``.
#: The driver has no "unresolved" verdict — it refuses a benchmark whose
#: ten-seed spread exceeds the bound — so its bounds on the timed
#: metrics are the widest the contract allows.  The ledger's tighter
#: bounds above stay the review standard.
DRIVER_END_TO_END = {
    "setup_s": 0.25,
    "wall_s": 0.25,
    "events_per_s": 0.25,
    "cpu_s": 0.25,
    "peak_rss_mb": 0.10,
}

#: The workloads ``BENCHMARK.json`` names.  The driver's 4 + 22 x W runs
#: share 3420 s, so W = 8 leaves 8-second runs, and on the driver's
#: machine those spread past the bound (``object_1k`` 28%, ``shard_2w``
#: 28%: two workers on two shared vCPUs time the host's scheduler).
#: Five workloads leave 20-second runs.  Left to the ledger alone:
#: ``shard_2w``; ``object_1k`` and ``serve_overload``, whose hot layer
#: (the object scheduler's scan, 75-84% of the wall) ``serve_steady``
#: also times.
DRIVER_WORKLOADS = (
    "vector_5k",
    "vector_50k",
    "evaluate_grid",
    "oversub_percentile",
    "serve_steady",
)


def bound_for(metric: str, workload: str) -> float:
    override = BOUND_OVERRIDES.get((metric, workload))
    if override is not None:
        return override
    return next(m.bound for m in END_TO_END if m.name == metric)


def applies(metric: str, workload: str) -> bool:
    return metric not in SERVING_ONLY or workload in SERVING


def _layer(prefix: str, *rows: tuple[str, str, str]) -> tuple[Metric, ...]:
    return tuple(Metric(f"{prefix}.{n}" if prefix else n, u, b) for n, u, b in rows)


#: Per-layer metrics (traced round only).  A layer a workload never
#: enters reads 0 there — that is the measurement, not a gap.
PER_LAYER = (
    *_layer("workload",
            ("generate_s", "s", "lower"),
            ("vms", "count", "lower"),
            ("generate_us_per_vm", "us", "lower")),
    *_layer("api", ("glue_s", "s", "lower")),
    *_layer("events",
            ("build_s", "s", "lower"),
            ("count", "count", "lower")),
    *_layer("vectorpool",
            ("init_s", "s", "lower"),
            ("select_s", "s", "lower"),
            ("select_calls", "count", "lower"),
            ("select_p50_us", "us", "lower"),
            ("select_p99_us", "us", "lower"),
            ("deploy_s", "s", "lower"),
            ("deploy_calls", "count", "lower"),
            ("remove_s", "s", "lower"),
            ("remove_calls", "count", "lower"),
            ("reject_ratio", "ratio", "lower")),
    *_layer("engine",
            ("timeline_s", "s", "lower"),
            ("loop_self_s", "s", "lower")),
    *_layer("sizing",
            ("probes", "count", "lower"),
            ("probe_s", "s", "lower"),
            ("feasible_ratio", "ratio", "higher"),
            ("events_simulated", "count", "lower"),
            ("lower_bound_s", "s", "lower")),
    *_layer("scheduling",
            ("select_s", "s", "lower"),
            ("select_calls", "count", "lower"),
            ("select_p50_us", "us", "lower"),
            ("hosts_scanned", "count", "lower")),
    *_layer("localsched",
            ("deploy_s", "s", "lower"),
            ("remove_s", "s", "lower")),
    *_layer("router",
            ("route_s", "s", "lower"),
            ("routed", "count", "lower"),
            ("imbalance", "ratio", "lower")),
    *_layer("dispatcher",
            ("serialize_s", "s", "lower"),
            ("payload_mb", "MiB", "lower"),
            ("shard_wall_max_s", "s", "lower"),
            ("shard_wall_sum_s", "s", "lower"),
            ("pool_overhead_s", "s", "lower")),
    *_layer("merge", ("merge_s", "s", "lower")),
    *_layer("oversub",
            ("advance_s", "s", "lower"),
            ("updates", "count", "lower"),
            ("host_windows", "count", "lower")),
    *_layer("generator",
            ("draw_s", "s", "lower"),
            ("requests", "count", "lower")),
    *_layer("clock", ("wakeup_us", "us", "lower")),
    *_layer("controlplane",
            ("request_s", "s", "lower"),
            ("request_p50_us", "us", "lower"),
            ("delete_s", "s", "lower")),
    *_layer("service",
            ("self_s", "s", "lower"),
            ("queue_depth_mean", "count", "lower"),
            ("wait_p99_vs", "vs", "lower"),
            ("reject_ratio", "ratio", "lower"),
            ("timeout_ratio", "ratio", "lower"),
            ("decision_p99_us", "us", "lower")),
    *_layer("trace",
            ("coverage", "ratio", "higher"),
            ("overhead_ratio", "ratio", "lower")),
    # Ledger end-to-end metrics the driver contract cannot carry as
    # such (0 on most workloads / serving only); read off the untraced
    # front-door call the traced round makes first.
    *_layer("",
            ("failed_ops_ratio", "ratio", "lower"),
            ("decision_p50_us", "us", "lower"),
            ("decision_p90_us", "us", "lower")),
)

PER_LAYER_UNITS = {m.name: m.unit for m in PER_LAYER}
END_TO_END_UNITS = {m.name: m.unit for m in END_TO_END}
