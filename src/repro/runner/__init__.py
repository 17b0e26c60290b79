"""Generic experiment-runner parts: process pool, checkpoint, records.

The paper's many-cell experiments (:func:`repro.api.run_sweep`) and the
shard dispatcher (:class:`repro.sharding.ShardedSimulation`) share
this package's machinery, which knows nothing of what a cell or a
shard computes:

* :mod:`repro.runner.pool` — :func:`run_pool`, the inline-or-process
  -pool loop, and :func:`derive_seeds`, independent per-unit seeds via
  :func:`numpy.random.SeedSequence.spawn`;
* :mod:`repro.runner.checkpoint` — :class:`JsonlCheckpoint`, the
  append-only fingerprinted JSONL checkpoint;
* :mod:`repro.runner.results` — the sweep's cell record
  (:class:`CellResult`) and the JSON-lossless
  :class:`~repro.analysis.experiments.DistributionOutcome` codec.
"""

from repro.runner.checkpoint import JsonlCheckpoint
from repro.runner.pool import derive_seeds
from repro.runner.results import CellResult, outcome_from_dict, outcome_to_dict

__all__ = [
    "derive_seeds",
    "CellResult",
    "outcome_to_dict",
    "outcome_from_dict",
    "JsonlCheckpoint",
]
