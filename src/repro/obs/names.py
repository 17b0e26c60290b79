"""Registered metric names — the only strings the emit sites may use.

Every ``metrics.counter(...)`` / ``gauge`` / ``histogram`` / ``timer``
call site in the library must reference one of these constants instead
of an inline string literal.  A structural test
(``tests/structure/test_metric_emit_sites.py``) enforces this, which
buys two properties production telemetry depends on:

* **grep-ability** — every emit site of a metric is found by searching
  for the constant, and renames are one-line changes;
* **schema stability** — dashboards and the differential audit tooling
  key on these names; a typo'd literal would silently fork a series.

Adding a metric: define the constant here, add it to
:data:`ALL_METRIC_NAMES`, then emit via the constant.
"""

from __future__ import annotations

__all__ = [
    "ARRIVALS",
    "REJECTIONS",
    "PLACEMENTS",
    "POOLED",
    "DEPARTURES",
    "SELECT_S",
    "CANDIDATES",
    "FINAL_ALLOC_CPU",
    "FINAL_ALLOC_MEM",
    "RUNNER_CELLS_TOTAL",
    "RUNNER_CELLS_SKIPPED",
    "RUNNER_CELLS_DONE",
    "RUNNER_CELLS_FAILED",
    "RUNNER_CELL_SECONDS",
    "RUNNER_SWEEP_WALL",
    "RUNNER_THROUGHPUT_CELLS_PER_S",
    "OVERSUB_UPDATES",
    "OVERSUB_HOST_WINDOWS",
    "OVERSUB_VIOLATIONS",
    "OVERSUB_EFF_RATIO",
    "OVERSUB_EFF_CPU_TOTAL",
    "SHARD_COUNT",
    "SHARD_ROUTED",
    "SHARD_QUEUE_DEPTH",
    "SHARD_IMBALANCE",
    "SHARD_WALL_S",
    "SHARD_MERGE_S",
    "SERVING_ARRIVALS",
    "SERVING_PLACED",
    "SERVING_PENDING",
    "SERVING_REJECTED",
    "SERVING_TIMEOUTS",
    "SERVING_DEPARTURES",
    "SERVING_LATENCY_PLACEMENT",
    "SERVING_LATENCY_WAIT",
    "SERVING_QUEUE_DEPTH",
    "SERVING_TIMEOUT_RATE",
    "SERVING_REJECT_RATE",
    "ALL_METRIC_NAMES",
]

# -- engine counters/timers (object + vector path, identical names) ----------

#: Counter — one per ARRIVAL event processed.
ARRIVALS = "arrivals"
#: Counter — arrivals no host could admit.
REJECTIONS = "rejections"
#: Counter — successful deployments.
PLACEMENTS = "placements"
#: Counter — deployments admitted via §V-B pooling.
POOLED = "pooled"
#: Counter — departures of VMs that were actually placed.
DEPARTURES = "departures"
#: Timer — wall-clock spent inside host selection.
SELECT_S = "select_s"
#: Histogram — eligible candidate hosts per recorded decision.
CANDIDATES = "candidates"
#: Gauge — cluster-wide allocated CPUs after the last event.
FINAL_ALLOC_CPU = "final_alloc_cpu"
#: Gauge — cluster-wide allocated memory (GB) after the last event.
FINAL_ALLOC_MEM = "final_alloc_mem"

# -- sweep runner ------------------------------------------------------------

#: Counter — cells in the sweep grid.
RUNNER_CELLS_TOTAL = "runner.cells_total"
#: Counter — cells satisfied by a resumed checkpoint.
RUNNER_CELLS_SKIPPED = "runner.cells_skipped"
#: Counter — cells completed by this invocation.
RUNNER_CELLS_DONE = "runner.cells_done"
#: Counter — cells that completed with a failure record.
RUNNER_CELLS_FAILED = "runner.cells_failed"
#: Histogram — per-cell wall-clock seconds.
RUNNER_CELL_SECONDS = "runner.cell_seconds"
#: Timer — whole-sweep wall clock.
RUNNER_SWEEP_WALL = "runner.sweep_wall"
#: Gauge — completed cells per second over the sweep.
RUNNER_THROUGHPUT_CELLS_PER_S = "runner.throughput_cells_per_s"

# -- dynamic oversubscription (repro.oversub) --------------------------------

#: Counter — estimator update rounds executed by the controller.
OVERSUB_UPDATES = "oversub.updates"
#: Counter — host observation windows collected across all updates.
OVERSUB_HOST_WINDOWS = "oversub.host_windows"
#: Counter — host windows whose demand peak breached the violation
#: threshold (counted for every strategy, including the static baseline).
OVERSUB_VIOLATIONS = "oversub.violations"
#: Histogram — per-update mean of effective/physical capacity ratios.
OVERSUB_EFF_RATIO = "oversub.eff_ratio"
#: Gauge — cluster-wide effective CPU capacity after the last update.
OVERSUB_EFF_CPU_TOTAL = "oversub.eff_cpu_total"

# -- sharded simulation (repro.sharding) -------------------------------------

#: Gauge — shard count of the current sharded run.
SHARD_COUNT = "shard.count"
#: Counter — arrival routing decisions made by the dispatcher.
SHARD_ROUTED = "shard.routed"
#: Histogram — VMs routed to each shard (one observation per shard).
SHARD_QUEUE_DEPTH = "shard.queue_depth"
#: Gauge — routing imbalance: max/mean of the per-shard VM counts.
SHARD_IMBALANCE = "shard.imbalance"
#: Timer — per-shard simulation wall clock (one observation per shard).
SHARD_WALL_S = "shard.wall_s"
#: Timer — wall clock of the dispatcher's result-stream merge.
SHARD_MERGE_S = "shard.merge_s"

# -- online placement service (repro.serving) --------------------------------

#: Counter — service requests generated inside the admission window.
SERVING_ARRIVALS = "serving.arrivals"
#: Counter — requests placed ACTIVE by the scheduler task.
SERVING_PLACED = "serving.placed"
#: Counter — requests admitted to a controller's capacity-pending queue.
SERVING_PENDING = "serving.pending"
#: Counter — requests rejected by backpressure (service queue at its
#: bound) or a full controller pending queue.
SERVING_REJECTED = "serving.rejected"
#: Counter — requests that exceeded the placement timeout while queued
#: or capacity-pending.
SERVING_TIMEOUTS = "serving.timeouts"
#: Counter — placed VMs released at the end of their lifetime.
SERVING_DEPARTURES = "serving.departures"
#: Histogram — wall-clock seconds of scheduler compute per decision
#: (the user-facing latency of the placement kernel itself).
SERVING_LATENCY_PLACEMENT = "serving.latency.placement"
#: Histogram — virtual seconds from arrival to placement decision.
SERVING_LATENCY_WAIT = "serving.latency.wait"
#: Histogram — service queue depth sampled at each admission attempt.
SERVING_QUEUE_DEPTH = "serving.queue.depth"
#: Gauge — timeouts / arrivals over the completed run.
SERVING_TIMEOUT_RATE = "serving.timeout.rate"
#: Gauge — rejections / arrivals over the completed run.
SERVING_REJECT_RATE = "serving.reject.rate"

#: Every registered metric name; the emit-site fence and the
#: registry round-trip test key off this set.
ALL_METRIC_NAMES: frozenset[str] = frozenset(
    {
        ARRIVALS,
        REJECTIONS,
        PLACEMENTS,
        POOLED,
        DEPARTURES,
        SELECT_S,
        CANDIDATES,
        FINAL_ALLOC_CPU,
        FINAL_ALLOC_MEM,
        RUNNER_CELLS_TOTAL,
        RUNNER_CELLS_SKIPPED,
        RUNNER_CELLS_DONE,
        RUNNER_CELLS_FAILED,
        RUNNER_CELL_SECONDS,
        RUNNER_SWEEP_WALL,
        RUNNER_THROUGHPUT_CELLS_PER_S,
        OVERSUB_UPDATES,
        OVERSUB_HOST_WINDOWS,
        OVERSUB_VIOLATIONS,
        OVERSUB_EFF_RATIO,
        OVERSUB_EFF_CPU_TOTAL,
        SHARD_COUNT,
        SHARD_ROUTED,
        SHARD_QUEUE_DEPTH,
        SHARD_IMBALANCE,
        SHARD_WALL_S,
        SHARD_MERGE_S,
        SERVING_ARRIVALS,
        SERVING_PLACED,
        SERVING_PENDING,
        SERVING_REJECTED,
        SERVING_TIMEOUTS,
        SERVING_DEPARTURES,
        SERVING_LATENCY_PLACEMENT,
        SERVING_LATENCY_WAIT,
        SERVING_QUEUE_DEPTH,
        SERVING_TIMEOUT_RATE,
        SERVING_REJECT_RATE,
    }
)
