"""The unified public API: one frozen spec, one entry point.

>>> from repro.api import RunSpec, run
>>> result = run(RunSpec(provider="azure", mix="F", shards=4))

:class:`RunSpec` declares a run (workload recipe, topology, policy,
kernel, oversub strategy, shard geometry, seed); :func:`run`
materializes and executes it.  :func:`evaluate` runs the paper's
§VII-B baseline-vs-SlackVM protocol for the same spec.  CLI handlers,
the sweep runner's cells and the ``perf/`` ledger all construct through
this module — it is the only supported construction path.
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

__all__ = [
    "AUTO_SIZE_HEADROOM",
    "ENGINES",
    "RunSpec",
    "SPEC_VERSION",
    "build_config",
    "build_machines",
    "build_simulation",
    "build_workload",
    "evaluate",
    "run",
]
