"""Parallel experiment runner (sweep sharding, checkpointing, resume).

The paper's headline figures sweep many independent
:func:`repro.api.evaluate` cells (provider × mix × seed, each hiding a
``minimal_cluster`` sizing search).  This package shards such a sweep
across a process pool while keeping the results bit-identical to a
serial run:

* :mod:`repro.runner.spec` — the sweep grid (:class:`SweepSpec` /
  :class:`SweepCell`) and deterministic per-cell seed derivation via
  :func:`numpy.random.SeedSequence.spawn`;
* :mod:`repro.runner.results` — JSON-lossless (de)serialization of
  :class:`~repro.analysis.experiments.DistributionOutcome` and the
  per-cell result record;
* :mod:`repro.runner.checkpoint` — :class:`JsonlCheckpoint`, the
  append-only fingerprinted JSONL checkpoint (also the shard
  dispatcher's);
* :mod:`repro.runner.pool` — :func:`run_pool`, the inline-or-process
  -pool loop (also the shard dispatcher's);
* :mod:`repro.runner.runner` — :func:`run_sweep`, cells over the pool
  with worker-side fault capture and metrics; :class:`SweepResult`
  carries the two figure reductions (``fig3()`` / ``fig4()``).
"""

from repro.runner.checkpoint import JsonlCheckpoint
from repro.runner.results import CellResult, outcome_from_dict, outcome_to_dict
from repro.runner.runner import SweepResult, run_sweep
from repro.runner.spec import SweepCell, SweepSpec, derive_seeds

__all__ = [
    "SweepSpec",
    "SweepCell",
    "derive_seeds",
    "CellResult",
    "outcome_to_dict",
    "outcome_from_dict",
    "JsonlCheckpoint",
    "SweepResult",
    "run_sweep",
]
