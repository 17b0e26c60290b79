"""CPU-topology model: sockets, NUMA nodes, cache hierarchy, SMT.

The SlackVM local scheduler reasons about *core proximity* through the
cache hierarchy (paper §V-A).  This module provides a synthetic but
faithful topology description, able to model both AMD EPYC-style
segmented last-level caches (small CCX groups sharing an L3) and
Intel-style monolithic LLCs, with or without SMT.

A :class:`Topology` exposes, for every *logical* CPU (thread):

* its physical core id (SMT siblings share one),
* its socket and NUMA node,
* the id of the cache it belongs to at each level (L1..Ln).

Cache-zone ids are globally unique so two cores share a cache level iff
their ids at that level are equal — exactly the information Linux
exposes through sysfs and that Algorithm 1 consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.core.errors import TopologyError

__all__ = ["CpuInfo", "Topology", "build_topology", "epyc_7662_dual", "small_smp"]


@dataclass(frozen=True, slots=True)
class CpuInfo:
    """Description of one logical CPU (hardware thread)."""

    cpu_id: int
    physical_core: int
    socket: int
    numa_node: int
    #: cache-zone id per level, index 0 = L1 ... index n-1 = LLC.
    cache_ids: tuple[int, ...]


class Topology:
    """An immutable machine CPU topology.

    Parameters
    ----------
    cpus:
        Per-logical-CPU descriptions.  Must be contiguous ids from 0.
    numa_distances:
        Square matrix of Linux-style NUMA distances (10 = local).
    """

    def __init__(self, cpus: Sequence[CpuInfo], numa_distances: np.ndarray):
        cpus = list(cpus)
        if not cpus:
            raise TopologyError("a topology needs at least one CPU")
        if [c.cpu_id for c in cpus] != list(range(len(cpus))):
            raise TopologyError("cpu ids must be contiguous from 0")
        heights = {len(c.cache_ids) for c in cpus}
        if len(heights) != 1:
            raise TopologyError("all CPUs must report the same cache height")
        nodes = {c.numa_node for c in cpus}
        dist = np.asarray(numa_distances, dtype=float)
        if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
            raise TopologyError("numa_distances must be square")
        if max(nodes) >= dist.shape[0]:
            raise TopologyError("numa_distances smaller than the node count")
        self._cpus: tuple[CpuInfo, ...] = tuple(cpus)
        self._numa = dist
        self._height = heights.pop()
        self._distance_matrix: np.ndarray | None = None

    # -- basic accessors -------------------------------------------------

    @property
    def num_cpus(self) -> int:
        """Number of logical CPUs (threads)."""
        return len(self._cpus)

    @property
    def num_physical_cores(self) -> int:
        return len({c.physical_core for c in self._cpus})

    def cpu(self, cpu_id: int) -> CpuInfo:
        return self._cpus[cpu_id]

    def cpus(self) -> tuple[CpuInfo, ...]:
        return self._cpus

    def physical_cores_spanned(self, cpu_ids: Iterable[int]) -> int:
        """Number of distinct physical cores covered by ``cpu_ids``."""
        return len({self._cpus[c].physical_core for c in cpu_ids})

    # -- Algorithm 1 -----------------------------------------------------

    def core_distance(self, cpu0: int, cpu1: int) -> float:
        """Distance between two logical CPUs (paper Algorithm 1).

        Walk the cache hierarchy from the closest level up; every level
        at which the two CPUs do *not* share a cache adds 10 (the same
        order of magnitude as Linux NUMA distances, per the paper).  If
        no cache is shared at any level, the NUMA distance is added on
        top.  Level 0 is the physical core itself, so SMT siblings are
        at distance 0.
        """
        a, b = self._cpus[cpu0], self._cpus[cpu1]
        if a.physical_core == b.physical_core:
            return 0.0
        distance = 10.0  # level 0 (the core) differs
        for level in range(self._height):
            if a.cache_ids[level] == b.cache_ids[level]:
                return distance
            distance += 10.0
        return distance + float(self._numa[a.numa_node, b.numa_node])

    def distance_matrix(self) -> np.ndarray:
        """Full pairwise distance matrix (cached; vectorized build)."""
        if self._distance_matrix is None:
            n = self.num_cpus
            phys = np.array([c.physical_core for c in self._cpus])
            nodes = np.array([c.numa_node for c in self._cpus])
            # Start assuming nothing shared: 10 * (height + 1) + NUMA.
            dist = np.full((n, n), 10.0 * (self._height + 1)) + self._numa[
                np.ix_(nodes, nodes)
            ]
            # Shared cache at level l (1-based) => distance 10 * l, take
            # the innermost (smallest) level that matches.
            for level in range(self._height - 1, -1, -1):
                ids = np.array([c.cache_ids[level] for c in self._cpus])
                shared = ids[:, None] == ids[None, :]
                dist[shared] = 10.0 * (level + 1)
            dist[phys[:, None] == phys[None, :]] = 0.0
            self._distance_matrix = dist
        return self._distance_matrix


#: Linux-style NUMA distances: a socket's own node, and another socket's.
LOCAL_NUMA_DISTANCE = 10.0
REMOTE_NUMA_DISTANCE = 32.0


def build_topology(
    *,
    sockets: int = 1,
    cores_per_socket: int = 8,
    smt: int = 1,
    llc_group: int | None = None,
) -> Topology:
    """Construct a synthetic topology.

    Each socket is one NUMA node, and every physical core has a private
    L1 and L2 (cache height 3).

    Parameters
    ----------
    llc_group:
        Physical cores sharing one last-level cache.  ``None`` means the
        whole socket shares the LLC (monolithic, Intel-style); a small
        value (e.g. 4) models AMD CCX-style segmented L3.
    smt:
        Hardware threads per physical core.
    """
    if sockets < 1 or cores_per_socket < 1 or smt < 1:
        raise TopologyError("sockets, cores_per_socket and smt must be >= 1")
    if llc_group is None:
        llc_group = cores_per_socket
    if llc_group < 1:
        raise TopologyError("llc_group must be >= 1")

    cpus: list[CpuInfo] = []
    cpu_id = 0
    # Cache ids are allocated from disjoint ranges per level to keep them
    # globally unique (a core's L1 id can never collide with an L3 id).
    for sock in range(sockets):
        for core in range(cores_per_socket):
            phys = sock * cores_per_socket + core
            l3 = 2_000_000 + sock * cores_per_socket + core // llc_group
            for _thread in range(smt):
                cpus.append(
                    CpuInfo(
                        cpu_id=cpu_id,
                        physical_core=phys,
                        socket=sock,
                        numa_node=sock,
                        cache_ids=(phys, 1_000_000 + phys, l3),  # private L1, L2
                    )
                )
                cpu_id += 1
    numa = np.full((sockets, sockets), REMOTE_NUMA_DISTANCE)
    np.fill_diagonal(numa, LOCAL_NUMA_DISTANCE)
    return Topology(cpus, numa)


def epyc_7662_dual() -> Topology:
    """The paper's testbed CPU (Table III): 2× AMD EPYC 7662.

    64 physical cores per socket, SMT 2 (256 threads total), L3 shared
    by CCX groups of 4 cores, one NUMA node per socket (NPS1).
    """
    return build_topology(sockets=2, cores_per_socket=64, smt=2, llc_group=4)


def small_smp(cores: int = 8, smt: int = 1) -> Topology:
    """A small single-socket machine, handy for tests and examples."""
    return build_topology(sockets=1, cores_per_socket=cores, smt=smt, llc_group=4)
