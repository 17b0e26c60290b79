"""Process-pool sweep execution with fault capture and checkpointing.

``run_sweep`` shards a :class:`~repro.runner.spec.SweepSpec` across
:func:`repro.runner.pool.run_pool`.  The worker function receives only
JSON primitives (provider *names*, mix triples, integer seeds) and
resolves library objects locally, so no start method or pickling
subtlety leaks into the API, and the exact same function runs
in-process for ``workers <= 1``.

Fault model: any exception inside a cell (unknown provider, infeasible
sizing, workload error) is captured in the worker and returned as a
``failed`` record with type, message, traceback and the cell's seed;
sibling cells keep running.  Pool-level failures (a worker killed by
the OS) are likewise folded into failed records rather than aborting
the sweep.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.analysis.experiments import DistributionOutcome
from repro.core.errors import ConfigError, RunnerError
from repro.obs import names as metric_names
from repro.obs.metrics import MetricsRegistry, NULL_METRICS
from repro.runner.checkpoint import JsonlCheckpoint
from repro.runner.pool import error_record, run_pool
from repro.runner.results import STATUS_FAILED, STATUS_OK, CellResult, outcome_to_dict
from repro.runner.spec import SweepCell, SweepSpec

__all__ = ["SweepResult", "run_sweep"]


def _cell_payload(spec: SweepSpec, cell: SweepCell) -> dict:
    """JSON-primitive work unit shipped to a worker process.

    ``run_spec`` is a :class:`repro.api.RunSpec` dict built *without*
    eager validation — the worker parses it inside its fault-capture
    block, so a bad knob (e.g. an unknown provider) surfaces as a
    failed-cell record, not a crashed sweep.  Shard execution inside a
    cell is pinned inline (``workers=1``): the sweep already owns the
    process pool, one level up.
    """
    return {
        "provider": cell.provider,
        "mix_label": cell.mix_label,
        "mix": list(cell.mix),
        "seed": cell.seed,
        "baseline_policy": spec.baseline_policy,
        "run_spec": {
            "provider": cell.provider,
            "mix": list(cell.mix),
            "target_population": spec.target_population,
            "seed": cell.seed,
            "host_cpus": spec.machine_cpus,
            "host_mem_gb": spec.machine_mem_gb,
            "policy": spec.policy,
            "kernel": spec.kernel,
            "pooling": spec.pooling,
            "shards": spec.shards,
            "router": spec.router,
            "workers": 1,
        },
    }


def _cell_record(payload: dict) -> dict:
    """The identity half of a cell record; the caller adds the status."""
    record = {
        "kind": "cell",
        "provider": payload["provider"],
        "mix_label": payload["mix_label"],
        "mix": list(payload["mix"]),
        "seed": payload["seed"],
    }
    record["key"] = "{provider}/{mix_label}/{seed}".format(**record)
    return record


def _run_cell(payload: dict) -> dict:
    """Execute one cell; never raises — failures become records.

    Module-level so the process pool can address it by qualified name;
    imports are deferred so a forked worker touches the heavy modules
    only when it actually runs a cell.
    """
    started = time.perf_counter()
    record = _cell_record(payload)
    try:
        from repro.api import RunSpec, evaluate

        run_spec = RunSpec.from_dict(payload["run_spec"])
        outcome = evaluate(
            run_spec, baseline_policy=payload["baseline_policy"]
        )
        record["status"] = STATUS_OK
        record["outcome"] = outcome_to_dict(outcome)
    except Exception as exc:  # noqa: BLE001 — fault capture is the contract
        record["status"] = STATUS_FAILED
        record["error"] = error_record(exc)
    record["elapsed_s"] = time.perf_counter() - started
    return record


@dataclass(frozen=True)
class SweepResult:
    """Everything a finished (or resumed) sweep produced."""

    spec: SweepSpec
    results: dict[str, CellResult]  # cell key -> result, in grid order
    executed: tuple[str, ...]  # keys run by *this* invocation
    skipped: tuple[str, ...]  # keys satisfied by the checkpoint
    workers: int
    elapsed_s: float

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results.values())

    def failures(self) -> list[CellResult]:
        return [r for r in self.results.values() if not r.ok]

    def _figure_cells(
        self, provider: Optional[str]
    ) -> list[tuple[CellResult, DistributionOutcome]]:
        """One provider's cells (the spec's first by default), all ok."""
        self.raise_on_failure()
        provider = self.spec.providers[0] if provider is None else provider
        if provider not in self.spec.providers:
            raise ConfigError(
                f"provider {provider!r} is not in this sweep; "
                f"expected one of {self.spec.providers}"
            )
        return [
            (r, r.outcome)
            for r in self.results.values()
            if r.provider == provider and r.outcome is not None
        ]

    def fig3(self, provider: Optional[str] = None) -> dict[str, DistributionOutcome]:
        """Fig. 3 series: each mix label's outcome at the first seed."""
        first = self.spec.effective_seeds()[0]
        return {
            r.mix_label: outcome
            for r, outcome in self._figure_cells(provider)
            if r.seed == first
        }

    def fig4(self, provider: Optional[str] = None) -> dict[str, float]:
        """Fig. 4 grid: seed-mean PM savings (%) per mix label."""
        savings: dict[str, list[float]] = {}
        for r, outcome in self._figure_cells(provider):
            savings.setdefault(r.mix_label, []).append(outcome.savings_percent)
        return {label: float(np.mean(vals)) for label, vals in savings.items()}

    def raise_on_failure(self) -> "SweepResult":
        failures = self.failures()
        if failures:
            lines = [
                f"  {r.key}: {r.error['type']}: {r.error['message']}"
                if r.error
                else f"  {r.key}: unknown failure"
                for r in failures
            ]
            raise RunnerError(
                f"{len(failures)}/{len(self.results)} sweep cells failed:\n"
                + "\n".join(lines)
            )
        return self


def run_sweep(
    spec: SweepSpec,
    workers: int = 1,
    out: Optional[str] = None,
    resume: bool = False,
    metrics: Optional[MetricsRegistry] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> SweepResult:
    """Run every cell of ``spec``, sharded over ``workers`` processes.

    * ``out`` — JSONL checkpoint path; each completed cell is appended
      and flushed, so a killed sweep can be continued.
    * ``resume`` — skip cells with an ``ok`` record in ``out`` (failed
      cells are retried); requires ``out``.
    * ``metrics`` — optional registry; receives ``runner.*`` counters,
      a per-cell wall-clock histogram and a throughput gauge.
    * ``progress`` — callable invoked with one human-readable line per
      completed cell (e.g. ``print``).

    Determinism: the result for every cell is a pure function of the
    spec — same spec in, same records out, for any worker count and
    any interleaving.
    """
    metrics = NULL_METRICS if metrics is None else metrics
    if resume and out is None:
        raise RunnerError("resume=True requires a checkpoint path (out=...)")
    cells = spec.cells()
    total = len(cells)

    checkpoint: Optional[JsonlCheckpoint] = None
    done: dict[str, CellResult] = {}
    if out is not None:
        checkpoint = JsonlCheckpoint(out, "spec", RunnerError)
        # A cell on file twice (a failure retried by a resume) resolves
        # to its last record.
        for record in checkpoint.start(spec.fingerprint(), spec.to_dict(), resume):
            if record.get("kind") == "cell":
                result = CellResult.from_record(record)
                done[result.key] = result
    # Only successful prior results satisfy a cell; failures re-run.
    satisfied = {k: r for k, r in done.items() if r.ok}
    pending = [c for c in cells if c.key not in satisfied]

    if metrics.enabled:
        metrics.counter(metric_names.RUNNER_CELLS_TOTAL).inc(total)
        metrics.counter(metric_names.RUNNER_CELLS_SKIPPED).inc(len(satisfied))

    started = time.perf_counter()
    completed = 0
    results: dict[str, CellResult] = dict(satisfied)

    def finish(result: CellResult) -> None:
        nonlocal completed
        completed += 1
        results[result.key] = result
        if checkpoint is not None:
            # elapsed_s is operator telemetry; resume/replay keys on the
            # cell fingerprint and never reads it (tests/runner pin this).
            checkpoint.append(result.to_record())
        if metrics.enabled:
            metrics.counter(metric_names.RUNNER_CELLS_DONE).inc()
            if not result.ok:
                metrics.counter(metric_names.RUNNER_CELLS_FAILED).inc()
            metrics.histogram(metric_names.RUNNER_CELL_SECONDS).observe(result.elapsed_s)
        if progress is not None:
            status = "ok" if result.ok else f"FAILED ({result.error['type']})"
            progress(
                f"[{completed + len(satisfied)}/{total}] "
                f"{result.key} -> {status} ({result.elapsed_s:.2f}s)"
            )

    payloads = [_cell_payload(spec, cell) for cell in pending]
    try:
        for payload, record, error in run_pool(_run_cell, payloads, workers):
            if error is not None:
                # Worker died outside _run_cell's catch (e.g. OOM-killed).
                record = _cell_record(payload)
                record.update(status=STATUS_FAILED, error=error)
            finish(CellResult.from_record(record, record.get("elapsed_s", 0.0)))
    finally:
        if checkpoint is not None:
            checkpoint.close()

    elapsed = time.perf_counter() - started
    if metrics.enabled:
        metrics.timer(metric_names.RUNNER_SWEEP_WALL).observe(elapsed)
        if elapsed > 0:
            metrics.gauge(metric_names.RUNNER_THROUGHPUT_CELLS_PER_S).set(completed / elapsed)

    ordered = {c.key: results[c.key] for c in cells if c.key in results}
    return SweepResult(
        spec=spec,
        results=ordered,
        executed=tuple(c.key for c in pending),
        skipped=tuple(k for k in satisfied),
        workers=max(1, workers),
        elapsed_s=elapsed,
    )
