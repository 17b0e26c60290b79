"""The experiment grid: one :class:`~repro.api.RunSpec` swept over axes.

A :class:`SweepSpec` is a ``base`` run recipe plus the axes the paper
sweeps — providers × mixes × seeds — and, optionally, oversubscription
``strategies``.  Each cell is ``base`` with its provider, mix and seed
replaced, run through one of two protocols:

* no ``strategies`` — the §VII-B comparison, :func:`repro.api.evaluate`
  (dedicated clusters vs one shared SlackVM cluster; Fig. 3 / 4);
* ``strategies`` — the §VIII question,
  :func:`repro.oversub.evaluate.compare_strategies`: the cell's trace on
  a cluster ``scarcity`` × its demand lower bound, once per strategy.

:func:`run_sweep` shards the cells across
:func:`repro.runner.pool.run_pool`.  The worker receives only JSON
primitives (the cell's ``RunSpec`` as a dict, provider *names*, mix
triples, integer seeds) and resolves library objects locally, so no
start method or pickling subtlety leaks into the API, and the exact
same function runs in-process for ``workers <= 1``.  Seeds come either
from an explicit ``seeds`` tuple or are derived from ``root_seed`` with
:func:`repro.runner.derive_seeds`.

Fault model: any exception inside a cell (unknown provider, infeasible
sizing, workload error) is captured in the worker and returned as a
``failed`` record with type, message, traceback and the cell's seed;
sibling cells keep running.  Pool-level failures (a worker killed by
the OS) are likewise folded into failed records rather than aborting
the sweep.  The spec embeds verbatim in the checkpoint header, so a
resumed run can verify it is continuing the *same* sweep.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Mapping, Optional, Sequence

import numpy as np

from repro.analysis.experiments import DistributionOutcome
from repro.api.run import _NOT_IN_PROTOCOL, build_workload, evaluate
from repro.api.spec import RunSpec
from repro.core.errors import ConfigError, RunnerError
from repro.core.spec import Spec, bound, check_bounds, check_int
from repro.hardware.machine import MachineSpec
from repro.obs import names as metric_names
from repro.obs.metrics import MetricsRegistry, NULL_METRICS
from repro.oversub.estimators import STRATEGIES
from repro.runner.checkpoint import JsonlCheckpoint
from repro.runner.pool import derive_seeds, error_record, run_pool
from repro.runner.results import STATUS_FAILED, STATUS_OK, CellResult, outcome_to_dict
from repro.simulator.vectorpool import check_policy
from repro.workload.distributions import DISTRIBUTIONS, LevelMix

__all__ = ["SweepCell", "SweepResult", "SweepSpec", "resolve_mix_entry", "run_sweep"]

#: Checkpoint/spec schema version.  v3 replaced the run knobs copied
#: from ``RunSpec`` with ``base`` and added ``strategies`` /
#: ``scarcity``; no v1 or v2 payload parses, and a resume against an
#: older checkpoint is refused by its version.
SPEC_VERSION = 3

#: The ``RunSpec`` fields every cell replaces; ``base`` carries their
#: defaults, so equal grids share a fingerprint.
_CELL_FIELDS = ("provider", "mix", "seed")


def resolve_mix_entry(entry: str) -> tuple[str, LevelMix]:
    """Resolve one spec mix entry to ``(label, (s1, s2, s3))``.

    Three accepted forms: a paper distribution letter (``"F"``), a raw
    percent triple (``"50,0,50"``, labelled by itself), or a labelled
    triple (``"hot:50,0,50"``).
    """
    text = entry.strip()
    if ":" in text:
        label, _, triple = text.partition(":")
        label = label.strip()
        triple = triple.strip()
    elif text.upper() in DISTRIBUTIONS:
        return text.upper(), DISTRIBUTIONS[text.upper()]
    else:
        label = triple = text
    try:
        s1, s2, s3 = (float(x) for x in triple.split(","))
    except ValueError:
        raise RunnerError(
            f"invalid mix entry {entry!r}: expected a letter "
            f"{'/'.join(DISTRIBUTIONS)}, 'S1,S2,S3' shares, or 'label:S1,S2,S3'"
        ) from None
    if not label:
        raise RunnerError(f"invalid mix entry {entry!r}: empty label")
    return label, (s1, s2, s3)


def _distinct(axis: str, values: Sequence[Any]) -> None:
    """Refuse an axis that names one value twice (its cell would run twice)."""
    repeated = sorted({str(v) for v in values if values.count(v) > 1})
    if repeated:
        raise RunnerError(f"duplicate {axis} in the sweep: {repeated}")


@dataclass(frozen=True)
class SweepCell:
    """One experiment of a sweep: a (provider, mix, seed) point."""

    index: int
    provider: str
    mix_label: str
    mix: LevelMix
    seed: int

    @property
    def key(self) -> str:
        """Stable identifier used for checkpointing and resume."""
        return f"{self.provider}/{self.mix_label}/{self.seed}"


@dataclass(frozen=True)
class SweepSpec(Spec):
    """One run recipe swept over providers × mixes × seeds.

    Every cell is ``base`` with its provider, mix and seed replaced
    (and ``workers=1``: the sweep owns the process pool, one level up),
    so those three fields of ``base`` are reset to the ``RunSpec``
    defaults and two grids that enumerate equal cells fingerprint alike;
    population, host shape, policy, pooling, shard geometry and the
    oversub update period all come from ``base``.  A ``base`` mapping
    (a checkpoint header, ``from_dict``) is parsed into a ``RunSpec``.

    ``strategies`` picks the protocol: empty runs :func:`repro.api.evaluate`
    against ``baseline_policy`` clusters (§VII-B); non-empty runs each
    named strategy on a cluster ``scarcity`` × the trace's demand lower
    bound (§VIII).  A ``base`` neither protocol honours (``engine``,
    ``num_hosts`` or ``oversub`` set, or ``shards > 1`` with strategies),
    a repeated axis value, an unknown strategy or policy and a bad mix
    entry (:func:`resolve_mix_entry`) are refused here, where they would
    otherwise fail every cell the same way.  ``providers`` are resolved
    *inside the worker*: an unknown name is a failed-cell record.

    ``seeds`` (explicit) takes precedence over the ``root_seed`` /
    ``num_seeds`` derivation; the latter is the recommended mode for
    many-seed sweeps.
    """

    VERSIONS = (SPEC_VERSION,)
    ERROR = RunnerError

    base: RunSpec = field(default_factory=RunSpec)
    providers: tuple[str, ...] = ("ovhcloud",)
    mixes: tuple[str, ...] = tuple(DISTRIBUTIONS)
    seeds: Optional[tuple[int, ...]] = None
    root_seed: int = bound(0, default=0)
    num_seeds: int = bound(0, default=1)
    strategies: tuple[str, ...] = ()
    baseline_policy: str = "first_fit"
    scarcity: float = bound(0, 2, open_low=True, default=0.5)
    resolved_mixes: tuple[tuple[str, LevelMix], ...] = field(
        init=False, repr=False, compare=False, default=()
    )

    def __post_init__(self) -> None:
        if isinstance(self.base, Mapping):
            try:
                object.__setattr__(self, "base", RunSpec.from_dict(self.base))
            except ConfigError as exc:
                raise RunnerError(f"base: {exc}") from None
        if not isinstance(self.base, RunSpec):
            raise RunnerError(f"base must be a RunSpec, got {self.base!r}")
        reset = {f.name: f.default for f in fields(RunSpec) if f.name in _CELL_FIELDS}
        if any(getattr(self.base, name) != value for name, value in reset.items()):
            object.__setattr__(self, "base", self.base.replace(**reset))
        for name, required in _NOT_IN_PROTOCOL.items():
            if getattr(self.base, name) != required:
                raise RunnerError(
                    f"a sweep sizes its own clusters and cannot honour "
                    f"base {name}={getattr(self.base, name)!r}"
                )
        if self.strategies and self.base.shards > 1:
            raise RunnerError("the strategy comparison runs unsharded; "
                              f"got base shards={self.base.shards}")
        if not self.providers:
            raise RunnerError("a sweep needs at least one provider")
        if not self.mixes:
            raise RunnerError("a sweep needs at least one mix")
        if self.seeds is not None:
            if not self.seeds:
                raise RunnerError("explicit seeds tuple cannot be empty")
            seeds = tuple(check_int("seeds", s, 0, error=RunnerError) for s in self.seeds)
            object.__setattr__(self, "seeds", seeds)
            _distinct("seeds", seeds)
        check_bounds(self)
        # num_seeds only counts when no explicit seeds are given.
        if self.seeds is None and self.num_seeds < 1:
            raise RunnerError(f"num_seeds must be >= 1 without explicit seeds, "
                              f"got {self.num_seeds}")
        try:
            check_policy(self.baseline_policy)
        except ConfigError as exc:
            raise RunnerError(f"baseline_policy: {exc}") from None
        for name in self.strategies:
            if name not in STRATEGIES:
                raise RunnerError(
                    f"unknown strategy {name!r}; expected one of {sorted(STRATEGIES)}"
                )
        _distinct("providers", self.providers)
        _distinct("strategies", self.strategies)
        resolved = tuple(resolve_mix_entry(m) for m in self.mixes)
        _distinct("mix labels", [label for label, _ in resolved])
        object.__setattr__(self, "resolved_mixes", resolved)

    # -- seeds & cells -------------------------------------------------------

    def effective_seeds(self) -> tuple[int, ...]:
        """The per-slot seeds: explicit, or SeedSequence-derived."""
        if self.seeds is not None:
            return self.seeds
        return derive_seeds(self.root_seed, self.num_seeds)

    def cells(self) -> list[SweepCell]:
        """Enumerate the grid in deterministic order.

        Seed slots are shared across (provider, mix) pairs — the
        Figure 4 protocol averages the *same* trace seeds over every
        mix, so a seed slot means "the same workload randomness".
        """
        seeds = self.effective_seeds()
        out: list[SweepCell] = []
        index = 0
        for provider in self.providers:
            for label, mix in self.resolved_mixes:
                for seed in seeds:
                    out.append(
                        SweepCell(
                            index=index,
                            provider=provider,
                            mix_label=label,
                            mix=mix,
                            seed=seed,
                        )
                    )
                    index += 1
        return out

    def __len__(self) -> int:
        return len(self.providers) * len(self.mixes) * len(self.effective_seeds())


def _cell_payload(spec: SweepSpec, cell: SweepCell) -> dict:
    """JSON-primitive work unit shipped to a worker process.

    ``run_spec`` is the cell's :class:`RunSpec` dict, built *without*
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
        "strategies": list(spec.strategies),
        "scarcity": spec.scarcity,
        "run_spec": {
            **spec.base.to_dict(),
            "provider": cell.provider,
            "mix": list(cell.mix),
            "seed": cell.seed,
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

    Module-level so the process pool can address it by qualified name.
    The §VIII comparison is imported on first use: it pulls in nothing
    ``import repro.api`` does not already load but its own module.
    """
    started = time.perf_counter()
    record = _cell_record(payload)
    try:
        spec = RunSpec.from_dict(payload["run_spec"])
        if payload["strategies"]:
            from repro.core.config import SlackVMConfig
            from repro.oversub.evaluate import compare_strategies

            record["rows"] = compare_strategies(
                build_workload(spec),
                MachineSpec(name="host", cpus=spec.host_cpus, mem_gb=spec.host_mem_gb),
                config=SlackVMConfig(pooling=spec.pooling),
                policy=spec.policy,
                update_every=spec.oversub_update_every,
                strategies=payload["strategies"],
                scarcity=payload["scarcity"],
            )
        else:
            outcome = evaluate(spec, baseline_policy=payload["baseline_policy"])
            record["outcome"] = outcome_to_dict(outcome)
        record["status"] = STATUS_OK
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

    def _require_protocol(self, strategies: bool, accessor: str) -> None:
        """Refuse an accessor of the protocol this grid does not run."""
        if bool(self.spec.strategies) != strategies:
            runs = ("the §VIII strategy comparison" if self.spec.strategies
                    else "the §VII-B evaluate protocol")
            raise RunnerError(f"{accessor} reads no cell of this grid: it runs {runs}")

    def _figure_cells(
        self, provider: Optional[str], accessor: str
    ) -> list[tuple[CellResult, DistributionOutcome]]:
        """One provider's cells (the spec's first by default), all ok."""
        self._require_protocol(False, accessor)
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
            for r, outcome in self._figure_cells(provider, "fig3()")
            if r.seed == first
        }

    def fig4(self, provider: Optional[str] = None) -> dict[str, float]:
        """Fig. 4 grid: seed-mean PM savings (%) per mix label."""
        savings: dict[str, list[float]] = {}
        for r, outcome in self._figure_cells(provider, "fig4()"):
            savings.setdefault(r.mix_label, []).append(outcome.savings_percent)
        return {label: float(np.mean(vals)) for label, vals in savings.items()}

    def rows(self) -> list[dict[str, Any]]:
        """§VIII rows, one per cell and strategy in grid order, each
        carrying its cell's ``provider``, ``mix_label`` and ``seed``."""
        self._require_protocol(True, "rows()")
        self.raise_on_failure()
        return [
            {"provider": r.provider, "mix_label": r.mix_label, "seed": r.seed, **row}
            for r in self.results.values()
            for row in r.rows or ()
        ]

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
