"""Sharded million-VM simulation (ROADMAP item 3).

A global dispatcher partitions the datacenter into contiguous host
blocks, routes every arrival to a shard (:mod:`repro.sharding.router`),
runs each shard's sub-workload through the vector engine in a worker
process (:mod:`repro.sharding.dispatcher`), and merges the per-shard
result streams back into one ``SimulationResult``
(:mod:`repro.sharding.merge`).  ``shards=1`` is byte-identical to the
unsharded engine — the golden-corpus contract the conformance suite
pins.
"""

from repro.sharding.dispatcher import ShardedSimulation, ShardPlan, workload_digest
from repro.sharding.router import ROUTERS, HashRouter, ScoreRouter, make_router

__all__ = [
    "ROUTERS",
    "HashRouter",
    "ScoreRouter",
    "make_router",
    "ShardPlan",
    "ShardedSimulation",
    "workload_digest",
]
