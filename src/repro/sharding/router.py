"""Dispatcher routing policies: which shard hosts an arriving VM.

A router is a *pure, deterministic* function of ``(routing seed, shard
geometry, the arrival stream so far)`` — never of wall-clock, worker
scheduling, or process count.  That is the property the whole sharding
determinism argument rests on (docs/ARCHITECTURE.md §14): the
dispatcher computes every assignment before any worker starts, so the
shard sub-workloads — and therefore every shard's result stream — are
a pure function of the :class:`~repro.sharding.dispatcher.ShardPlan`.

Two policies, mirroring ROADMAP item 3:

* ``hash`` — consistent hashing over the VM id on a virtual-node ring
  (:class:`HashRouter`).  Stateless, so a VM's shard never depends on
  the VMs around it; the ring is salted with the routing seed.
* ``score`` — shard-level aggregate M/C score routing
  (:class:`ScoreRouter`).  The dispatcher tracks each shard's
  outstanding physical demand (the same ``vm.allocation()`` accounting
  as :func:`repro.simulator.sizing.demand_lower_bound`) and sends each
  arrival to the shard whose aggregate M/C ratio lands closest to its
  capacity target — the paper's Algorithm 2 incentive, lifted from
  hosts to shards.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from typing import Sequence

from repro.core.errors import ConfigError
from repro.core.spec import check_int
from repro.core.types import VMRequest

__all__ = ["ROUTERS", "HashRouter", "ScoreRouter", "make_router", "stable_hash_64"]

#: Registered shard-routing policies (``repro shard --router``), made by
#: :func:`make_router`.
ROUTERS = ("hash", "score")

#: Virtual nodes per shard on the consistent-hash ring.  Enough to keep
#: the expected per-shard share within a few percent of uniform.
_RING_REPLICAS = 64


def stable_hash_64(text: str) -> int:
    """64-bit stable hash of a string (SHA-256 prefix).

    Independent of ``PYTHONHASHSEED`` and identical across processes
    and platforms — the property Python's builtin ``hash`` explicitly
    does not provide.
    """
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class HashRouter:
    """Consistent hashing over VM ids on a seeded virtual-node ring.

    Each shard owns :data:`_RING_REPLICAS` points on a 64-bit ring;
    a VM goes to the owner of the first point at or after its own
    hash.  Routing is stateless — ``route`` is a pure function of
    ``(seed, shards, vm_id)`` — and changing the shard count moves
    only ~``1/shards`` of the keys (the consistent-hashing property).
    """

    name = "hash"

    def __init__(self, shards: int, seed: int = 0):
        self.shards = check_int("shards", shards, 1)
        self.seed = seed
        points: list[tuple[int, int]] = []
        for shard in range(shards):
            for replica in range(_RING_REPLICAS):
                points.append(
                    (stable_hash_64(f"{seed}/{shard}/{replica}"), shard)
                )
        points.sort()
        self._ring_keys = [p[0] for p in points]
        self._ring_shards = [p[1] for p in points]

    def route(self, vm: VMRequest) -> int:
        if self.shards == 1:
            return 0
        point = stable_hash_64(vm.vm_id)
        i = bisect_right(self._ring_keys, point)
        if i == len(self._ring_keys):
            i = 0
        return self._ring_shards[i]

    def release(self, vm: VMRequest, shard: int) -> None:
        """Departures carry no state for a stateless router."""


class ScoreRouter:
    """Aggregate M/C score routing over dispatcher-side demand model.

    The dispatcher maintains each shard's outstanding physical demand
    (CPU cores, memory GB — ``vm.allocation()``, the best-packing
    accounting of :func:`~repro.simulator.sizing.demand_lower_bound`)
    by replaying arrivals and departures in global event order.  An
    arrival is scored per shard exactly like the paper's progress
    score, one level up: place it where the aggregate M/C ratio moves
    closest to the shard's capacity target, penalized by relative CPU
    load so a full shard stops attracting VMs.  Lowest shard index
    wins ties, making the routing deterministic and independent of
    worker scheduling.
    """

    name = "score"

    def __init__(
        self,
        shards: int,
        seed: int = 0,
        shard_cap_cpu: Sequence[float] | None = None,
        shard_cap_mem: Sequence[float] | None = None,
    ):
        self.shards = shards = check_int("shards", shards, 1)
        if shard_cap_cpu is None or shard_cap_mem is None:
            raise ConfigError("score routing needs per-shard capacities")
        if len(shard_cap_cpu) != shards or len(shard_cap_mem) != shards:
            raise ConfigError(
                f"expected {shards} per-shard capacities, got "
                f"{len(shard_cap_cpu)}/{len(shard_cap_mem)}"
            )
        self.seed = seed
        self._cap_cpu = [float(c) for c in shard_cap_cpu]
        self._cap_mem = [float(m) for m in shard_cap_mem]
        self._demand_cpu = [0.0] * shards
        self._demand_mem = [0.0] * shards

    def route(self, vm: VMRequest) -> int:
        alloc = vm.allocation()
        best = 0
        best_score = -float("inf")
        for shard in range(self.shards):
            cap_c = self._cap_cpu[shard]
            cap_m = self._cap_mem[shard]
            target = cap_m / cap_c
            cpu = self._demand_cpu[shard] + alloc.cpu
            mem = self._demand_mem[shard] + alloc.mem
            deviation = abs(mem / cpu - target) if cpu > 0 else 0.0
            load = cpu / cap_c
            score = -deviation - load
            if score > best_score:
                best_score = score
                best = shard
        self._demand_cpu[best] += alloc.cpu
        self._demand_mem[best] += alloc.mem
        return best

    def release(self, vm: VMRequest, shard: int) -> None:
        alloc = vm.allocation()
        self._demand_cpu[shard] -= alloc.cpu
        self._demand_mem[shard] -= alloc.mem


def make_router(
    name: str,
    shards: int,
    seed: int = 0,
    shard_cap_cpu: Sequence[float] | None = None,
    shard_cap_mem: Sequence[float] | None = None,
) -> "HashRouter | ScoreRouter":
    """Instantiate a registered routing policy by name."""
    if name == "hash":
        return HashRouter(shards, seed=seed)
    if name == "score":
        return ScoreRouter(
            shards,
            seed=seed,
            shard_cap_cpu=shard_cap_cpu,
            shard_cap_mem=shard_cap_mem,
        )
    raise ConfigError(f"unknown router {name!r}; expected one of {ROUTERS}")
