"""Topology-driven CPU selection for vNodes (paper §V-A).

The allocator owns the PM's pool of free logical CPUs and answers two
questions:

* **grow** — which free CPUs should extend an existing vNode?  The
  closest ones (Algorithm 1 distance) to the vNode's current CPUs, so
  sibling threads and same-LLC cores are integrated gradually.
* **seed** — where should a brand-new vNode start?  As far as possible
  from every CPU already owned by other vNodes, maximizing isolation
  (ideally a separate socket, then a separate LLC group, ...).

The index-order baseline (``SlackVMConfig(topology_aware=False)``, and
every agent without a topology) is the local scheduler's slot
allocator, not this class.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.core.errors import CapacityError, TopologyError
from repro.hardware.topology import Topology

__all__ = ["CoreAllocator"]


class CoreAllocator:
    """Tracks free CPUs of one PM and picks CPUs for vNodes."""

    def __init__(self, topology: Topology):
        self._topo = topology
        self._free: set[int] = set(range(topology.num_cpus))
        self._dist = topology.distance_matrix()

    @property
    def num_free(self) -> int:
        return len(self._free)

    def release(self, cpu_ids: Iterable[int]) -> None:
        ids = list(cpu_ids)
        taken = [c for c in ids if c in self._free]
        if taken:
            raise CapacityError(f"CPUs {taken} are already free")
        self._free.update(ids)

    def _take(self, cpu_ids: list[int]) -> list[int]:
        missing = [c for c in cpu_ids if c not in self._free]
        if missing:
            raise CapacityError(f"CPUs {missing} are not free")
        self._free.difference_update(cpu_ids)
        return cpu_ids

    # -- selection policies ------------------------------------------------

    def pick_grow(self, anchor: Sequence[int], count: int) -> list[int]:
        """Pick ``count`` free CPUs nearest to the ``anchor`` set.

        Greedy: each step takes the free CPU with the smallest distance
        to the (growing) anchor set.  Ties — frequent, since all cores
        of a socket outside the anchor's cache groups are equidistant —
        are broken by *maximizing* the distance to CPUs owned by other
        vNodes, so growth spills into untouched cache groups instead of
        interleaving with (and splitting sibling pairs of) a
        neighbouring vNode.  Remaining ties pick the lowest CPU id for
        determinism.  An empty anchor falls back to :meth:`pick_seed`.
        """
        if count < 0:
            raise TopologyError(f"count must be >= 0, got {count}")
        if count == 0:
            return []
        if count > len(self._free):
            raise CapacityError(
                f"requested {count} CPUs but only {len(self._free)} are free"
            )
        if not anchor:
            return self.pick_seed(count, occupied=())

        # Sorted materialization: the lexsort below breaks every tie on
        # cpu id, so selection is order-independent — but the array must
        # still never carry hash order into numpy (determinism rule R004).
        free = np.fromiter(sorted(self._free), dtype=int)
        anchor_list = list(anchor)
        others = sorted(
            set(range(self._topo.num_cpus)) - self._free - set(anchor_list)
        )
        # Distance from each free CPU to the nearest anchor CPU, and to
        # the nearest CPU owned by any other vNode.
        best = self._dist[np.ix_(free, anchor_list)].min(axis=1)
        repel = (
            self._dist[np.ix_(free, others)].min(axis=1)
            if others
            else np.zeros(free.size)
        )
        chosen: list[int] = []
        for _ in range(count):
            # Lexicographic (anchor distance asc, other distance desc,
            # cpu id asc) minimum for determinism.
            order = np.lexsort((free, -repel, best))
            idx = order[0]
            cpu = int(free[idx])
            chosen.append(cpu)
            free = np.delete(free, idx)
            best = np.delete(best, idx)
            repel = np.delete(repel, idx)
            if free.size:
                # The new member may bring remaining candidates closer.
                best = np.minimum(best, self._dist[free, cpu])
        return self._take(chosen)

    def pick_seed(self, count: int, occupied: Sequence[int]) -> list[int]:
        """Pick ``count`` free CPUs for a new vNode, far from ``occupied``.

        The first CPU maximizes its distance to every CPU already owned
        by other vNodes; subsequent CPUs are then grown around it
        (nearest-first) so the new vNode is itself compact.
        """
        if count <= 0:
            raise TopologyError(f"count must be >= 1, got {count}")
        if count > len(self._free):
            raise CapacityError(
                f"requested {count} CPUs but only {len(self._free)} are free"
            )
        free = np.fromiter(sorted(self._free), dtype=int)
        occ = list(occupied)
        if occ:
            far = self._dist[np.ix_(free, occ)].min(axis=1)
            # Lexicographic (-distance, cpu_id) => farthest, stable ties.
            order = np.lexsort((free, -far))
            first = int(free[order[0]])
        else:
            first = int(free.min())
        self._take([first])
        if count == 1:
            return [first]
        rest = self.pick_grow([first], count - 1)
        return [first, *rest]
