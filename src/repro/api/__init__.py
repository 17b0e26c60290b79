"""The unified public API: one frozen spec, one entry point, one grid.

>>> from repro.api import RunSpec, run
>>> result = run(RunSpec(provider="azure", mix="F", shards=4))

:class:`RunSpec` declares a run (workload recipe, topology, policy,
oversub strategy, shard geometry, seed); :func:`run` materializes and
executes it.  :func:`evaluate` runs the paper's §VII-B
baseline-vs-SlackVM protocol for the same spec, and :class:`SweepSpec`
/ :func:`run_sweep` sweep one spec over providers × mixes × seeds (and
§VIII oversubscription strategies).  CLI handlers, the sweep's cells
and the ``perf/`` ledger all construct through this module — it is the
only supported construction path.
"""

from repro.api.run import (
    AUTO_SIZE_HEADROOM,
    build_config,
    build_machines,
    build_simulation,
    build_workload,
    evaluate,
    run,
)
from repro.api.spec import ENGINES, SPEC_VERSION, RunSpec
from repro.api.sweep import SweepCell, SweepResult, SweepSpec, run_sweep

__all__ = [
    "AUTO_SIZE_HEADROOM",
    "ENGINES",
    "RunSpec",
    "SPEC_VERSION",
    "SweepCell",
    "SweepResult",
    "SweepSpec",
    "build_config",
    "build_machines",
    "build_simulation",
    "build_workload",
    "evaluate",
    "run",
    "run_sweep",
]
