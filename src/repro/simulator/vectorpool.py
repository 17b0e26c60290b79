"""Vectorized simulation engine (fast path) — incremental placement kernel.

Implements *exactly* the same admission and accounting semantics as the
object path (:class:`~repro.localsched.agent.LocalScheduler` +
:class:`~repro.scheduling.global_scheduler.ScoreBasedScheduler`) but
keeps the whole cluster state in numpy arrays, so filtering and scoring
all hosts for a placement is a handful of vector operations instead of
a Python loop.

The admission test (Algorithm 1's vNode rule: own level first, §V-B
pooling into a stricter vNode otherwise) and the policy scores
(Algorithm 2) are each written once, as routines over the rows of a
host selection — ``_admission_rows`` / ``_score_rows``; every consumer
(the public ``feasibility()`` / ``scores()`` tables, the first-fit
block scan, the shape cache's build and subset refresh) is a caller.

The hot path is *event-proportional*: per-host derived quantities
(free capacity, the allocated M/C ratio's deviation from the machine
target, the negative-progress load factor, per-level pooling slack) are
kept current eagerly — ``deploy()``, ``remove()`` and ``kill_host()``
rewrite the one host they mutate, from the Python floats they already
hold; only construction, ``invalidate()`` and a capacity override
rebuild the whole cluster.  A VM's shape is resolved against the levels
once per distinct ``(ratio, mem_ratio, vcpus, mem_gb)``.  ``first_fit``
evaluates exact feasibility block by block and stops at the first block
holding a feasible host instead of touching the full array.

The event loop is not here: :class:`VectorBackend` binds a cluster to
a policy, and :func:`repro.simulator.engine.run_events` drives it.

Every cached quantity is refreshed with the *same elementwise IEEE
operations* the naive kernel applies cluster-wide, so the incremental
kernel is bit-identical to the reference implementation in
:mod:`repro.simulator.refkernel` (``kernel="naive"`` switches to it;
it exists as the oracle for tests and the kernel-speedup benchmark,
not as a production choice).  Four independent oracles enforce the
equivalence:

* the golden-trace conformance suite
  (``tests/simulator/test_golden_trace.py``) replays frozen JSONL
  decision streams byte-for-byte;
* the scale-tier conformance suite
  (``tests/simulator/test_scale_golden.py``) replays frozen 5000-host
  result streams byte-for-byte through unrecorded runs — the path
  the shape cache actually runs on;
* the kernel-equivalence property suite
  (``tests/simulator/test_kernel_equivalence.py``) compares the two
  kernels element-wise on random cluster states;
* the engine-equivalence suite (``tests/simulator/test_equivalence.py``)
  checks placements against the object path.

``feasibility()``/``scores()`` return fresh arrays on either kernel.
Code that mutates the state arrays (``cap_*``, ``alloc_*``,
``vnode_*``) directly — rather than through ``deploy``/``remove``/
``kill_host`` — must call :meth:`VectorCluster.invalidate` afterwards.

Following the hpc-parallel guidance, this is the profiled hot path of
the repository: Figures 3 and 4 run hundreds of cluster-sizing
simulations through this engine, and the ``perf/`` ledger's
``vector_5k`` / ``vector_50k`` workloads track its events/sec.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from repro.core.config import SlackVMConfig
from repro.core.errors import CapacityError, ConfigError
from repro.core.types import VMRequest
from repro.hardware.machine import MachineSpec
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.records import (
    AdmissionRecord,
    DecisionRecorder,
    HostDecision,
    NULL_RECORDER,
)
from repro.scheduling.constants import (
    BESTFIT_BLEND,
    CAPACITY_EPSILON,
    FIRST_FIT_CHUNK,
    TIEBREAK_WEIGHT,
    floats_differ,
)
# Submodule imports, not `from repro.simulator import ...`: importing
# through the package __init__ (which imports this module transitively)
# would create a module-level cycle (tests/structure/test_layering.py).
import repro.simulator.refkernel as refkernel
from repro.simulator.engine import PlacementRecord, SimulationResult, run_events

if TYPE_CHECKING:  # annotation-only: keeps simulator below oversub (layering fence)
    from repro.oversub.controller import OversubParams

__all__ = [
    "VectorCluster", "VectorBackend", "VectorSimulation", "POLICIES", "KERNELS",
    "check_policy",
]

#: Scheduling policies understood by the vector engine; mirrors
#: :mod:`repro.scheduling.baselines`.
POLICIES = (
    "first_fit",
    "best_fit",
    "worst_fit",
    "progress",
    "progress_no_factor",
    "progress_bestfit",
)


def check_policy(policy: str) -> None:
    """Raise :class:`ConfigError` unless ``policy`` is one of :data:`POLICIES`."""
    if policy not in POLICIES:
        raise ConfigError(f"unknown policy {policy!r}; expected one of {POLICIES}")


#: Placement-kernel implementations: ``incremental`` is the production
#: kernel; ``naive`` is the reference the tests and
#: ``benchmarks/test_engine_kernel_speedup.py`` compare it against
#: (:mod:`repro.simulator.refkernel`).
KERNELS = ("incremental", "naive")

# Shared with the object-path schedulers via repro.scheduling.constants,
# so the two engines cannot drift apart silently.
_TIEBREAK = TIEBREAK_WEIGHT
_BESTFIT_BLEND = BESTFIT_BLEND
_EPS = CAPACITY_EPSILON

#: Relative tolerance for resolving a computed level ratio to a
#: configured level (e.g. ``2.9999999999`` → the 3:1 level).
_LEVEL_RTOL = 1e-9

# Rows of the packed per-host matrix ``VectorCluster._base``: state
# (alloc/cap), incrementally-maintained caches, and the constant
# first-fit tiebreak term.  Packing them lets the shape-cache subset
# refresh gather every per-host input in one 2-D fancy index.
(
    _R_FREE_CPU,
    _R_FREE_MEM_TOL,
    _R_TARGET,
    _R_MC_DEV,
    _R_LOAD,
    _R_ALLOC_CPU,
    _R_ALLOC_MEM,
    _R_CAP_CPU,
    _R_CAP_MEM,
    _R_TIEBREAK,
) = range(10)

# Planes of the packed per-(level, host) cube ``VectorCluster._lvl``.
_LR_VCPUS, _LR_CPUS, _LR_MAX_SLACK = range(3)

#: Maximum number of (shape, policy) masked-score rows kept per
#: cluster.  Catalog workloads re-request a few dozen distinct VM
#: shapes; workloads with unbounded shape diversity bypass the cache
#: (the full tables serve them) instead of thrashing it.
_SHAPE_CACHE_CAP = 64

#: Mutation-log length that triggers compaction (purely a memory bound;
#: any value preserves correctness).
_MUTLOG_COMPACT = 1 << 20

#: Fixed-point scale of the exact running memory total: allocations are
#: tracked as integer multiples of 2**-20 GB (1 KiB granularity when
#: mem_gb is in GiB).  Catalog memory sizes and the physical
#: reservations ``mem_gb / mem_ratio`` they induce are dyadic rationals
#: far coarser than this, so real workloads stay on the exact path.
_MEM_SCALE_BITS = 20
_MEM_SCALE = float(1 << _MEM_SCALE_BITS)
#: Largest scaled total for which every float64 partial sum of
#: non-negative per-host values is exact (53-bit significand).  Above
#: it (an 8-exabyte fleet) the accumulator falls back to ``np.sum``.
_MEM_EXACT_LIMIT = 1 << 53


def _gather(rows: np.ndarray, sel: slice | np.ndarray) -> np.ndarray:
    """``rows[..., sel]``: a view for a slice; for an index array,
    ``take``, several times cheaper than fancy indexing on small sets."""
    return rows[..., sel] if isinstance(sel, slice) else rows.take(sel, axis=-1)


class _Shape(NamedTuple):
    """One VM shape resolved against the cluster's levels: the level
    index and the Python-float operands of the admission test and the
    scores (see :meth:`VectorCluster._shape`)."""

    key: tuple[float, float, int, float]  # requested (ratio, mem_ratio, vcpus, mem_gb)
    li: int  # resolved level index
    vcpus: float
    mem: float  # mem_gb as requested: pooling levels divide it by their own ratio
    vm_cpu: float  # vcpus / level ratio
    vm_mem: float  # mem_gb / level mem ratio: the own-level reservation
    pool: bool  # §V-B pooling applies: enabled, raw ratio > 1, a stricter level


class VectorCluster:
    """Array-backed state of every host's vNodes.

    State arrays (``cap_cpu``, ``cap_mem``, ``alloc_cpu``, ``alloc_mem``,
    ``vnode_cpus``, ``vnode_vcpus``, ``supported``) are the source of
    truth; the incremental kernel additionally keeps derived per-host
    caches current with them (see the module docstring for the
    invariants).
    """

    def __init__(
        self,
        machines: Sequence[MachineSpec],
        config: SlackVMConfig,
        host_levels: Sequence[Sequence[float]] | None = None,
        recorder: Optional[DecisionRecorder] = None,
        kernel: str = "incremental",
    ):
        """``host_levels`` optionally restricts each host to a subset of
        the configured level ratios (dedicated PMs in a mixed fleet);
        ``None`` means every host offers every configured level.
        ``recorder`` mirrors :class:`LocalScheduler`'s admission sink:
        when set and enabled, every deploy emits an
        :class:`~repro.obs.records.AdmissionRecord`.  ``kernel``
        selects the placement kernel (see :data:`KERNELS`)."""
        if not machines:
            raise ConfigError("a cluster needs at least one machine")
        if kernel not in KERNELS:
            raise ConfigError(f"unknown kernel {kernel!r}; expected one of {KERNELS}")
        self.config = config
        self.machines = list(machines)
        self.recorder = recorder
        self.kernel = kernel
        n = len(machines)
        self.ratios = np.array([lv.ratio for lv in config.levels], dtype=float)
        self.mem_ratios = np.array([lv.mem_ratio for lv in config.levels], dtype=float)
        L = len(self.ratios)
        # Per-host state and caches live as rows of one packed matrix
        # (row indices are the module-level ``_R_*`` constants), and the
        # per-(level, host) state as planes of one packed cube (``_LR_*``);
        # the named attributes below are *views* into them.  The shape
        # cache's subset refresh gathers a host set with one ``take`` each.
        self._base = np.zeros((10, n), dtype=float)
        self._free_cpu = self._base[_R_FREE_CPU]
        self._free_mem_tol = self._base[_R_FREE_MEM_TOL]  # free_mem + epsilon
        self._target = self._base[_R_TARGET]  # machine M/C target
        self._mc_dev = self._base[_R_MC_DEV]  # |current M/C - target|
        self._load_factor = self._base[_R_LOAD]  # 1 + alloc/cap
        self.alloc_cpu = self._base[_R_ALLOC_CPU]  # reserved CPUs (integral values)
        self.alloc_mem = self._base[_R_ALLOC_MEM]
        self.cap_cpu = self._base[_R_CAP_CPU]
        self.cap_mem = self._base[_R_CAP_MEM]
        self.cap_cpu[:] = [m.cpus for m in machines]
        self.cap_mem[:] = [m.mem_gb for m in machines]
        # Physical CPU cores, immutable under dynamic oversubscription:
        # ``set_effective_capacity`` rewrites ``cap_cpu`` (what the
        # kernels schedule against) while this records what the hosts
        # actually have.  ``kill_host`` is the one mutation shared by
        # both.
        self.physical_cpu = self.cap_cpu.copy()
        self._lvl = np.zeros((L, 3, n), dtype=float)
        self.vnode_vcpus = self._lvl[:, _LR_VCPUS, :]
        self.vnode_cpus = self._lvl[:, _LR_CPUS, :]
        self._pool_max_slack = self._lvl[:, _LR_MAX_SLACK, :]
        self._level_index = {lv.ratio: i for i, lv in enumerate(config.levels)}
        if host_levels is None:
            self.supported = np.ones((L, n), dtype=bool)
        else:
            if len(host_levels) != n:
                raise ConfigError(
                    f"host_levels has {len(host_levels)} entries for {n} hosts"
                )
            self.supported = np.zeros((L, n), dtype=bool)
            for j, ratios in enumerate(host_levels):
                for ratio in ratios:
                    self.supported[self.level_index(float(ratio)), j] = True
            if not self.supported.any(axis=0).all():
                raise ConfigError("every host must support at least one level")
        # vm_id -> (host, hosted level index, vcpus, mem)
        self._placements: dict[str, tuple[int, int, int, float]] = {}
        # vm_id -> original request (the oversub monitor and failure
        # injection read the live requests back)
        self._requests: dict[str, VMRequest] = {}
        # Running cluster-wide CPU allocation.  vNode growth/release are
        # always integral, and sums of integers are exact in float64, so
        # this equals ``alloc_cpu.sum()`` bit-for-bit as long as state
        # changes flow through deploy/remove (``invalidate`` recomputes
        # it after direct mutation).
        self.total_alloc_cpu = 0.0
        # Running cluster-wide memory allocation, kept as an integer in
        # units of 2**-20 GB.  While every per-host value is an exact
        # multiple of that unit and the total stays below 2**53 units,
        # ``alloc_mem.sum()``'s pairwise partial sums are all exact
        # integers (the values are non-negative, so each partial is
        # bounded by the total), hence bit-identical to this counter —
        # the O(hosts) per-event reduction collapses to O(1).  The
        # first value that is not a multiple of the unit trips
        # ``_mem_exact`` permanently and ``total_alloc_mem`` degrades
        # to the full ``np.sum`` (status quo ante).
        self._mem_scaled = 0
        self._mem_exact = True
        self._init_kernel_state(L, n)
        self._refresh_all()

    # -- incremental-kernel state --------------------------------------------

    def _init_kernel_state(self, L: int, n: int) -> None:
        """Allocate the derived-quantity caches and the shape tables."""
        # Stricter oversubscribed levels eligible as §V-B pooling hosts
        # for a VM at each level (static given the config).
        self._stricter_levels: tuple[tuple[int, ...], ...] = tuple(
            tuple(lj for lj in range(L) if 1 < self.ratios[lj] < self.ratios[li])
            for li in range(L)
        )
        # The levels whose pooling max-slack reads each level's slack.
        self._pooled_by: tuple[tuple[int, ...], ...] = tuple(
            tuple(li for li in range(L) if lj in self._stricter_levels[li])
            for lj in range(L)
        )
        # With one memory ratio across every level (the common case) the
        # per-level pooling memory checks collapse into the own-level
        # one, enabling the fused max-slack pooling mask below.
        # Exact equality is load-bearing here: the fused pooling mask
        # reuses the own-level memory check for every stricter level,
        # which is only bit-identical to the per-level loop when the
        # ratios are *exactly* equal.
        self._uniform_mem = bool(np.all(self.mem_ratios == self.mem_ratios[0]))
        # Python-float copies of the level constants: the scalar refresh
        # and accounting paths run entirely on python floats (the IEEE
        # arithmetic is identical, the interpreter overhead is not).
        self._ratio_vals = tuple(float(r) for r in self.ratios)
        self._mem_ratio_vals = tuple(float(r) for r in self.mem_ratios)
        self._level_range = tuple(range(L))
        # Constant score terms.
        self._neg_idx = -np.arange(n, dtype=float)
        self._base[_R_TIEBREAK] = _TIEBREAK * self._neg_idx
        # Per-(level, host) derived quantities.  ``_pool_max_slack``
        # (a view of the packed cube) holds the loosest usable pooling
        # slack per (VM level, host): the max of ``_pool_slack`` over
        # that level's supported stricter levels (-inf when none).
        # ``max(slack) >= v`` is exactly ``any(slack_j >= v)``, which
        # fuses the naive kernel's per-level pooling reduction into one
        # comparison.
        self._pool_slack = np.empty((L, n), dtype=float)
        # Resolved shapes, keyed by what the VM requests (one per
        # distinct request, so never more than the workload's VMs); see
        # ``_shape``.
        self._shapes: dict[tuple[float, float, int, float], _Shape] = {}
        # Shape cache: (shape key, policy) -> mutable [log position,
        # masked-score array]; see ``select()``.  The mutation log
        # records every host deploy/remove/kill_host mutates so a cached
        # shape can refresh exactly the hosts that changed since it last
        # synchronized.
        self._mutlog: list[int] = []
        self._shape_cache: dict[tuple, list] = {}

    def _log(self, host: int) -> None:
        """Record a mutation of ``host`` for the shape cache (O(1))."""
        self._mutlog.append(host)
        if len(self._mutlog) >= _MUTLOG_COMPACT:
            self._compact_mutlog()

    def _compact_mutlog(self) -> None:
        """Drop the mutation-log prefix every cached shape has consumed.

        If stale cache entries pin most of the log (shapes that stopped
        arriving), drop the cache instead: correctness never depends on
        the log's history, only on cached positions staying aligned
        with it, so both forms of compaction are free.
        """
        cut = min(
            (entry[0] for entry in self._shape_cache.values()),
            default=len(self._mutlog),
        )
        if cut * 2 < len(self._mutlog):
            self._shape_cache.clear()
            cut = len(self._mutlog)
        del self._mutlog[:cut]
        for entry in self._shape_cache.values():
            entry[0] -= cut

    def invalidate(self) -> None:
        """Rebuild every host's derived quantities from the state arrays.

        Call after mutating the state arrays directly (e.g. editing
        ``cap_cpu`` in a test rig).  ``deploy``/``remove``/``kill_host``
        keep the host they mutate current themselves.
        """
        self._refresh_all()
        self._shape_cache.clear()
        self._mutlog.clear()
        self.total_alloc_cpu = float(self.alloc_cpu.sum())
        self._recount_mem()

    def _account_mem(self, old: float, new: float) -> None:
        """Fold one host's ``alloc_mem`` change into the running total.

        ``old``/``new`` are the host's value before/after the mutation.
        Values that are not exact multiples of the fixed-point unit
        drop the accumulator into the permanent ``np.sum`` fallback
        (see :attr:`total_alloc_mem`).
        """
        if not self._mem_exact:
            return
        old_scaled = old * _MEM_SCALE
        new_scaled = new * _MEM_SCALE
        if old_scaled.is_integer() and new_scaled.is_integer():
            self._mem_scaled += int(new_scaled) - int(old_scaled)
        else:
            self._mem_exact = False

    def _recount_mem(self) -> None:
        """Rebuild the exact memory total from ``alloc_mem`` (O(hosts)).

        Called by :meth:`invalidate`, which already pays an O(hosts)
        CPU recount; per-event accounting goes through
        :meth:`_account_mem` instead.
        """
        self._mem_exact = True
        total = 0
        for value in self.alloc_mem.tolist():
            scaled = value * _MEM_SCALE
            if not scaled.is_integer():
                self._mem_exact = False
                return
            total += int(scaled)
        self._mem_scaled = total

    @property
    def total_alloc_mem(self) -> float:
        """Cluster-wide allocated memory, bit-equal to ``alloc_mem.sum()``.

        O(1) on the exact fixed-point path; falls back to the full
        pairwise ``np.sum`` when any per-host value ever left the
        fixed-point grid or the total exceeds the exact-float range.
        """
        if self._mem_exact and 0 <= self._mem_scaled < _MEM_EXACT_LIMIT:
            return self._mem_scaled / _MEM_SCALE
        return float(self.alloc_mem.sum())

    def _refresh_all(self) -> None:
        """Vectorized cache rebuild (construction, ``invalidate()``, a
        capacity override).

        Applies the same elementwise operations as
        :meth:`_refresh_host` and :meth:`_refresh_slack`, so both paths
        produce bit-identical caches.
        """
        np.subtract(self.cap_cpu, self.alloc_cpu, out=self._free_cpu)
        np.subtract(self.cap_mem, self.alloc_mem, out=self._free_mem_tol)
        np.add(self._free_mem_tol, _EPS, out=self._free_mem_tol)
        np.divide(self.cap_mem, self.cap_cpu, out=self._target)
        busy = self.alloc_cpu > 0
        mc_current = np.where(
            busy, self.alloc_mem / np.where(busy, self.alloc_cpu, 1.0), self._target
        )
        np.subtract(mc_current, self._target, out=self._mc_dev)
        np.abs(self._mc_dev, out=self._mc_dev)
        np.divide(self.alloc_cpu, self.cap_cpu, out=self._load_factor)
        np.add(self._load_factor, 1.0, out=self._load_factor)
        ratios_col = self.ratios[:, None]
        np.multiply(self.vnode_cpus, ratios_col, out=self._pool_slack)
        np.subtract(self._pool_slack, self.vnode_vcpus, out=self._pool_slack)
        for li in range(len(self.ratios)):
            best = np.full(self.num_hosts, -np.inf)
            for lj in self._stricter_levels[li]:
                np.maximum(
                    best,
                    np.where(self.supported[lj], self._pool_slack[lj], -np.inf),
                    out=best,
                )
            self._pool_max_slack[li] = best

    def _refresh_host(self, j: int, ac: float, am: float) -> None:
        """Rewrite host ``j``'s derived ``_base`` rows; ``ac`` / ``am``
        are its allocations, as the mutating caller already holds them.

        Python-float IEEE arithmetic is bit-identical to the numpy
        elementwise ops of :meth:`_refresh_all` and several times
        faster than chained ``np.float64`` scalar operations.
        """
        base = self._base
        cap_c = base.item(_R_CAP_CPU, j)
        cap_m = base.item(_R_CAP_MEM, j)
        base[_R_FREE_CPU, j] = cap_c - ac
        base[_R_FREE_MEM_TOL, j] = (cap_m - am) + _EPS
        base[_R_TARGET, j] = tgt = cap_m / cap_c
        base[_R_MC_DEV, j] = abs((am / ac if ac > 0 else tgt) - tgt)
        base[_R_LOAD, j] = ac / cap_c + 1.0

    def _refresh_slack(self, j: int, lj: int, vcpus: float, cpus: float) -> None:
        """Store the pooling slack of host ``j``'s level-``lj`` vNode
        (``cpus`` / ``vcpus`` are its new size) and the max-slack of
        every level that pools into it."""
        pool_slack = self._pool_slack
        pool_slack[lj, j] = cpus * self._ratio_vals[lj] - vcpus
        for li in self._pooled_by[lj]:
            best = -math.inf
            for lk in self._stricter_levels[li]:
                slack = pool_slack.item(lk, j)
                if slack > best and self.supported.item(lk, j):
                    best = slack
            self._lvl[li, _LR_MAX_SLACK, j] = best

    @property
    def num_hosts(self) -> int:
        return len(self.machines)

    def level_index(self, ratio: float) -> int:
        """Index of the configured level with this ratio.

        Exact matches hit a dict; anything else is resolved within a
        relative tolerance, so computed ratios that picked up float
        noise (``9.0 / 3.0``-style ``2.9999999999``) still find their
        level instead of raising :class:`ConfigError`.
        """
        try:
            return self._level_index[ratio]
        except KeyError:
            pass
        close = np.flatnonzero(
            np.isclose(self.ratios, ratio, rtol=_LEVEL_RTOL, atol=_LEVEL_RTOL)
        )
        if close.size:
            return int(close[0])
        raise ConfigError(f"level {ratio}:1 is not configured")

    def _shape(self, vm: VMRequest) -> _Shape:
        """``vm``'s resolved shape, looked up by what it requests; the
        level (and its memory ratio) is validated on a shape's first
        arrival only."""
        level, spec = vm.level, vm.spec
        key = (level.ratio, level.mem_ratio, spec.vcpus, spec.mem_gb)
        shape = self._shapes.get(key)
        if shape is None:
            li = self._vm_level_index(vm)
            # vm.level.ratio (not the resolved level's) gates pooling:
            # the two differ for ratios within _LEVEL_RTOL of a level.
            pool = self.config.pooling and level.ratio > 1
            shape = self._shapes[key] = _Shape(
                key, li, float(spec.vcpus), spec.mem_gb,
                spec.vcpus / self._ratio_vals[li],
                spec.mem_gb / self._mem_ratio_vals[li],
                pool and bool(self._stricter_levels[li]),
            )
        return shape

    def _vm_level_index(self, vm: VMRequest) -> int:
        """Level index of a VM, validating the memory ratio too."""
        li = self.level_index(vm.level.ratio)
        if floats_differ(vm.level.mem_ratio, float(self.mem_ratios[li])):
            raise ConfigError(
                f"VM {vm.vm_id} requests level {vm.level.name} but the cluster "
                f"offers mem ratio {self.mem_ratios[li]:g}:1 at {vm.level.ratio:g}:1"
            )
        return li

    # -- admission and scores, row-wise over a host selection ------------------

    def feasibility(self, vm: VMRequest) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-host admission data for ``vm``.

        Returns ``(feasible, growth, own_ok)`` where ``growth`` is the
        CPUs the VM's own-level vNode must acquire on each host and
        ``own_ok`` marks hosts where the own-level path (rather than
        §V-B pooling) applies.  Mirrors ``LocalScheduler.plan``.
        """
        if self.kernel == "naive":
            return refkernel.naive_feasibility(self, vm)
        shape = self._shape(vm)
        feasible, growth, own_ok = self._admission_rows(shape, slice(None), self._base)
        return (own_ok.copy() if feasible is own_ok else feasible), growth, own_ok

    def _admission_rows(
        self, shape: _Shape, sel: slice | np.ndarray, base: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(feasible, growth, own_ok)`` for the hosts in ``sel``;
        ``feasible`` *is* ``own_ok`` when pooling cannot apply.

        ``sel`` is a slice or an index array and ``base`` is
        ``self._base[:, sel]`` (gathered by the caller, who may share it
        with :meth:`_score_rows`).  Gathered rows can be views of the
        state, so nothing here writes into them.  Every operation is
        elementwise in the host dimension (pooling reduces over
        *levels*), so a block or a subset gets the verdicts, bit for
        bit, that the whole cluster would — which is what makes the
        first-fit block scan and the shape cache's subset refresh sound.
        """
        li = shape.li
        lvl = _gather(self._lvl[li], sel)
        sup = self.supported[li][sel]
        v = shape.vcpus
        # growth = max(0, ceil((vnode_vcpus[li] + v) / n) - vnode_cpus[li])
        growth = np.add(lvl[_LR_VCPUS], v)
        np.divide(growth, self._ratio_vals[li], out=growth)
        np.ceil(growth, out=growth)
        np.subtract(growth, lvl[_LR_CPUS], out=growth)
        np.maximum(growth, 0.0, out=growth)
        # Both paths need the own level offered (pooling mirrors
        # LocalScheduler.supports) and, with one memory ratio, the
        # own-level memory check.
        mem_ok = np.less_equal(shape.vm_mem, base[_R_FREE_MEM_TOL])
        np.logical_and(mem_ok, sup, out=mem_ok)
        own_ok = np.less_equal(growth, base[_R_FREE_CPU])
        np.logical_and(own_ok, mem_ok, out=own_ok)
        if not shape.pool:
            return own_ok, growth, own_ok
        if self._uniform_mem:
            # One memory ratio everywhere: each stricter level's memory
            # check equals the own-level one, and the per-level slack
            # disjunction collapses to a single comparison against the
            # cached per-host max slack (``max(slack) >= v`` iff
            # ``any(slack_j >= v)``).
            pool = np.greater_equal(lvl[_LR_MAX_SLACK], v)
            np.logical_and(pool, mem_ok, out=pool)
        else:
            pool = np.zeros_like(own_ok)
            for lj in self._stricter_levels[li]:
                mem_lj = shape.mem / self._mem_ratio_vals[lj]
                fits = np.greater_equal(self._pool_slack[lj][sel], v)
                mem_fits = np.less_equal(mem_lj, base[_R_FREE_MEM_TOL])
                np.logical_and(fits, mem_fits, out=fits)
                np.logical_and(fits, self.supported[lj][sel], out=fits)
                np.logical_or(pool, fits, out=pool)
            np.logical_and(pool, sup, out=pool)
        return np.logical_or(own_ok, pool, out=pool), growth, own_ok

    def _score_rows(self, shape: _Shape, policy: str, base: np.ndarray) -> np.ndarray:
        """Policy scores (higher better) of the hosts whose ``_base``
        rows are ``base``, mirroring the object weighers.  Reads the
        rows, never writes them."""
        vm_cpu, vm_mem = shape.vm_cpu, shape.vm_mem
        if policy in ("best_fit", "worst_fit"):
            s = self._free_after(base, vm_cpu, vm_mem)
            if policy == "best_fit":
                np.negative(s, out=s)
            # primary * 1.0 is a bitwise no-op and is skipped.
        elif policy in ("progress", "progress_no_factor", "progress_bestfit"):
            # progress = |current - target| - |next - target|, with the
            # first term cached per host (_mc_dev).
            s = np.add(base[_R_ALLOC_MEM], vm_mem)
            f2 = np.add(base[_R_ALLOC_CPU], vm_cpu)
            np.divide(s, f2, out=s)
            np.subtract(s, base[_R_TARGET], out=s)
            np.abs(s, out=s)
            np.subtract(base[_R_MC_DEV], s, out=s)
            if policy != "progress_no_factor":
                np.multiply(s, base[_R_LOAD], out=s, where=np.less(s, 0.0))
            if policy == "progress_bestfit":
                # The paper's suggested composition: the M/C incentive
                # alongside an existing packing rule (§VII-B2).
                f2 = self._free_after(base, vm_cpu, vm_mem)
                np.negative(f2, out=f2)
                np.multiply(f2, _BESTFIT_BLEND, out=f2)
                np.add(s, f2, out=s)
        else:
            raise ConfigError(f"unknown policy {policy!r}; expected one of {POLICIES}")
        return np.add(s, base[_R_TIEBREAK], out=s)

    @staticmethod
    def _free_after(base: np.ndarray, vm_cpu: float, vm_mem: float) -> np.ndarray:
        """Normalized free capacity after a hypothetical placement:
        ``(cap_cpu - (alloc_cpu + vm_cpu)) / cap_cpu + (cap_mem -
        (alloc_mem + vm_mem)) / cap_mem``."""
        o = np.add(base[_R_ALLOC_CPU], vm_cpu)
        np.subtract(base[_R_CAP_CPU], o, out=o)
        np.divide(o, base[_R_CAP_CPU], out=o)
        t = np.add(base[_R_ALLOC_MEM], vm_mem)
        np.subtract(base[_R_CAP_MEM], t, out=t)
        np.divide(t, base[_R_CAP_MEM], out=t)
        return np.add(o, t, out=o)

    def _masked_rows(
        self, shape: _Shape, policy: str, sel: slice | np.ndarray
    ) -> np.ndarray:
        """``where(feasible, scores, -inf)`` for the hosts in ``sel``:
        what the shape cache stores, from one gather of ``_base``."""
        base = _gather(self._base, sel)
        feasible = self._admission_rows(shape, sel, base)[0]
        scores = self._score_rows(shape, policy, base)
        np.copyto(scores, -np.inf, where=~feasible)
        return scores

    def first_feasible(self, vm: VMRequest) -> Optional[int]:
        """Lowest-index host that can admit ``vm``; None if nobody can.

        Matches ``argmax(where(feasible, -idx, -inf))`` exactly, but
        short-circuits: exact feasibility is evaluated one
        ``FIRST_FIT_CHUNK`` block at a time, and the scan stops at the
        first block containing a feasible host.
        """
        if self.kernel == "naive":
            feasible, _g, _o = refkernel.naive_feasibility(self, vm)
            return int(np.argmax(feasible)) if feasible.any() else None
        shape = self._shape(vm)
        for lo in range(0, self.num_hosts, FIRST_FIT_CHUNK):
            block = slice(lo, lo + FIRST_FIT_CHUNK)
            feasible = self._admission_rows(shape, block, self._base[:, block])[0]
            j = feasible.argmax()
            if feasible.item(j):
                return lo + int(j)
        return None

    def select(self, vm: VMRequest, policy: str) -> Optional[int]:
        """Best feasible host for ``vm`` under ``policy`` (lowest index
        wins ties); None if none.

        Semantically ``argmax(where(feasible, scores, -inf))`` guarded
        by ``feasible.any()``.  First-fit is the block scan of
        :meth:`first_feasible`; scored policies go through a per-shape cache:
        catalog workloads re-request the same few (level, vcpus, mem)
        shapes over and over, and a shape's masked score vector
        ``where(feasible, scores, -inf)`` only changes on hosts
        deployed to / removed from since its previous arrival.  The
        cache therefore refreshes just the hosts recorded in the
        mutation log since the shape's last sync — through the same
        :meth:`_masked_rows` routine as a full build, so every refreshed
        entry carries the bits a rebuild would produce (the untouched
        entries already do: their inputs are unchanged) and the
        selection is bit-identical to the uncached path.  Scores are
        finite on every host (capacities are positive), so the argmax
        landing on -inf is exactly the "no feasible host" case.
        """
        if policy == "first_fit":
            return self.first_feasible(vm)
        if self.kernel == "naive" or not self._uniform_mem:
            return self._select_uncached(vm, policy)
        shape = self._shape(vm)
        # The key is the requested shape, not the resolved level: the
        # pooling trigger reads the raw ratio (see ``_shape``).
        key = (shape.key, policy)
        entry = self._shape_cache.get(key)
        pos = len(self._mutlog)
        if entry is None:
            if len(self._shape_cache) >= _SHAPE_CACHE_CAP:
                return self._select_uncached(vm, policy)
            entry = [pos, self._masked_rows(shape, policy, slice(None))]
            self._shape_cache[key] = entry
        elif entry[0] < pos:
            touched = self._mutlog[entry[0] : pos]
            if len(touched) * 4 >= self.num_hosts:
                entry[1] = self._masked_rows(shape, policy, slice(None))
            else:
                # Repeated hosts gather and scatter the same values.
                idx = np.array(touched)
                entry[1][idx] = self._masked_rows(shape, policy, idx)
            entry[0] = pos
        masked = entry[1]
        j = masked.argmax()
        best = masked.item(j)
        if math.isinf(best) and best < 0:
            return None
        return int(j)

    def _select_uncached(self, vm: VMRequest, policy: str) -> Optional[int]:
        """``select`` straight from the full ``feasibility`` tables."""
        feasible, _growth, _own = self.feasibility(vm)
        if not feasible.any():
            return None
        return int(np.argmax(np.where(feasible, self.scores(vm, policy), -np.inf)))

    def deploy(self, vm: VMRequest, host: int) -> PlacementRecord:
        """Place ``vm`` on ``host`` (own-level first, §V-B pooling fallback)."""
        if self.kernel == "naive":
            return refkernel.naive_deploy(self, vm, host)
        shape = self._shape(vm)
        li = shape.li
        v = vm.spec.vcpus
        m = vm.spec.mem_gb
        if vm.vm_id in self._placements:
            raise CapacityError(f"VM {vm.vm_id} already placed")
        base = self._base
        # (cap_mem - alloc_mem) + epsilon; current, as every mutation
        # refreshes its host.
        free_mem_tol = base.item(_R_FREE_MEM_TOL, host)
        # Python floats: the same IEEE division as _admission_rows,
        # several times cheaper than a numpy scalar.
        vv = self.vnode_vcpus.item(li, host)
        vc = self.vnode_cpus.item(li, host)
        growth = max(0.0, math.ceil((vv + v) / self._ratio_vals[li]) - vc)
        if not self.supported.item(li, host):
            raise CapacityError(
                f"host {host} does not offer level {vm.level.name}"
            )
        if growth <= base.item(_R_FREE_CPU, host) and shape.vm_mem <= free_mem_tol:
            lh, hosted, mem, pooled = li, vm.level.ratio, shape.vm_mem, False
        else:
            # Loosest stricter oversubscribed vNode with enough slack
            # (mirrors LocalScheduler._pooling_candidate); its vNode
            # takes the VM without growing.
            best: Optional[int] = None
            if self.config.pooling and vm.level.ratio > 1:
                for lj in self._level_range:
                    rj = self._ratio_vals[lj]
                    if (
                        1 < rj < vm.level.ratio
                        and self.supported.item(lj, host)
                        and self._pool_slack.item(lj, host) >= v
                        and m / self._mem_ratio_vals[lj] <= free_mem_tol
                        and (best is None or rj > self._ratio_vals[best])
                    ):
                        best = lj
            if best is None:
                raise CapacityError(f"host {host} cannot take VM {vm.vm_id}")
            lh, growth, hosted, pooled = best, 0.0, self._ratio_vals[best], True
            mem = m / self._mem_ratio_vals[lh]
            vv = self.vnode_vcpus.item(lh, host)
            vc = self.vnode_cpus.item(lh, host)
        vv += v
        vc += growth
        ac = base.item(_R_ALLOC_CPU, host) + growth
        am = base.item(_R_ALLOC_MEM, host)
        self.vnode_vcpus[lh, host] = vv
        self.vnode_cpus[lh, host] = vc
        base[_R_ALLOC_CPU, host] = ac
        base[_R_ALLOC_MEM, host] = am + mem
        self.total_alloc_cpu += growth
        self._account_mem(am, am + mem)
        self._refresh_host(host, ac, am + mem)
        self._refresh_slack(host, lh, vv, vc)
        self._placements[vm.vm_id] = (host, lh, v, m)
        self._requests[vm.vm_id] = vm
        self._log(host)
        if self.recorder is not None and self.recorder.enabled:
            self.recorder.record_admission(
                AdmissionRecord(
                    vm_id=vm.vm_id,
                    host=self.machines[host].name,
                    hosted_ratio=hosted,
                    growth=int(growth),
                    pooled=pooled,
                )
            )
        return PlacementRecord(vm.vm_id, host, hosted, pooled=pooled)

    def remove(self, vm_id: str) -> None:
        if self.kernel == "naive":
            return refkernel.naive_remove(self, vm_id)
        try:
            host, li, v, m = self._placements.pop(vm_id)
        except KeyError:
            raise CapacityError(f"VM {vm_id} is not placed") from None
        self._requests.pop(vm_id, None)
        base = self._base
        vv = self.vnode_vcpus.item(li, host) - v
        self.vnode_vcpus[li, host] = vv
        required = math.ceil(vv / self._ratio_vals[li])
        release = self.vnode_cpus.item(li, host) - required
        self.vnode_cpus[li, host] = required
        ac = base.item(_R_ALLOC_CPU, host) - release
        base[_R_ALLOC_CPU, host] = ac
        self.total_alloc_cpu -= release
        old_am = base.item(_R_ALLOC_MEM, host)
        am = old_am - m / self._mem_ratio_vals[li]
        if am < _EPS:
            am = 0.0
        base[_R_ALLOC_MEM, host] = am
        self._account_mem(old_am, am)
        self._refresh_host(host, ac, am)
        self._refresh_slack(host, li, vv, required)
        self._log(host)

    def kill_host(self, host: int) -> None:
        """Permanently fail a (drained) host: no capacity remains.

        Uses an epsilon rather than zero so ratio-based scores stay
        finite (the capacity filter already excludes the host
        regardless).  Keeps the derived caches coherent — use this
        instead of zeroing ``cap_*`` by hand.
        """
        self.cap_cpu[host] = self.cap_mem[host] = self.physical_cpu[host] = 1e-12
        self._refresh_host(host, self.alloc_cpu.item(host), self.alloc_mem.item(host))
        self._log(host)

    def set_effective_capacity(self, eff: np.ndarray) -> None:
        """Override the CPU capacities the kernels schedule against.

        ``eff`` is a per-host effective-capacity vector (physical
        cores), typically produced by a
        :class:`repro.oversub.estimators.CapacityEstimator`.  Values
        above ``physical_cpu`` admit more reservations than the host
        physically has (dynamic oversubscription); values below
        restrict it.  Dead hosts (``kill_host``) keep their kill
        epsilon — an estimate cannot resurrect them — and a floor keeps
        ratio-based scores finite.  A write that changes nothing is a
        no-op, preserving the incremental kernel's caches (and the
        decision stream) bit-for-bit — this is what keeps ``StaticRatio``
        byte-identical to the golden traces.
        """
        eff = np.asarray(eff, dtype=float)
        if eff.shape != self.cap_cpu.shape:
            raise ConfigError(
                f"expected {self.cap_cpu.shape} effective capacities, got {eff.shape}"
            )
        alive = self.physical_cpu > _EPS
        target = np.where(alive, np.maximum(eff, 1e-12), self.cap_cpu)
        if np.array_equal(target, self.cap_cpu):
            return
        self.cap_cpu[:] = target
        self.invalidate()

    def placed_requests(self) -> Iterator[tuple[VMRequest, int]]:
        """(request, host) for every placed VM, in placement order."""
        for vm_id, placement in self._placements.items():
            yield self._requests[vm_id], placement[0]

    # -- scoring -------------------------------------------------------------

    def scores(self, vm: VMRequest, policy: str) -> np.ndarray:
        """Per-host scores (higher better), mirroring the object weighers."""
        if self.kernel == "naive":
            return refkernel.naive_scores(self, vm, policy)
        if policy == "first_fit":
            return self._neg_idx.copy()
        return self._score_rows(self._shape(vm), policy, self._base)

    # -- introspection --------------------------------------------------------

    def request_of(self, vm_id: str) -> VMRequest:
        try:
            return self._requests[vm_id]
        except KeyError:
            raise CapacityError(f"VM {vm_id} is not placed") from None

    def vms_on(self, host: int) -> list[str]:
        return [vm_id for vm_id, p in self._placements.items() if p[0] == host]


class VectorBackend:
    """A :class:`VectorCluster` bound to one policy: the
    array-side :class:`~repro.simulator.engine.PlacementBackend` and (last
    four methods) the oversubscription controller's ``CapacityTarget``."""

    def __init__(self, cluster: VectorCluster, policy: str):
        self.cluster = cluster
        self.policy = policy
        self.num_hosts = cluster.num_hosts
        self.scheduler_name = f"vector:{policy}"
        self.deploy = cluster.deploy  # already ``(vm, host) -> PlacementRecord``

    def select(self, vm: VMRequest) -> Optional[int]:
        return self.cluster.select(vm, self.policy)

    def decide(self, vm: VMRequest) -> tuple[Optional[int], tuple[HostDecision, ...]]:
        """Selection from the full per-host tables (``select`` only ever
        materialises the winner).  Filter names mirror the object
        path's ``LevelSupportFilter``/``CapacityFilter`` verdicts so the
        two decision streams diff field-by-field in the audit tool."""
        cluster = self.cluster
        feasible, _growth, _own = cluster.feasibility(vm)
        scores = np.where(feasible, cluster.scores(vm, self.policy), -np.inf)
        host = int(np.argmax(scores)) if feasible.any() else None
        li = cluster.level_index(vm.level.ratio)
        decisions = []
        for j in range(cluster.num_hosts):
            eligible = bool(feasible[j])
            verdicts = {
                "LevelSupportFilter": bool(cluster.supported[li, j]),
                "CapacityFilter": eligible,
            }
            if eligible:
                score = float(scores[j])
                decisions.append(
                    HostDecision(j, True, verdicts, {"policy": score}, score)
                )
            else:
                decisions.append(HostDecision(j, False, verdicts))
        return host, tuple(decisions)

    def remove(self, vm_id: str, host: int) -> None:
        self.cluster.remove(vm_id)

    def totals(self) -> tuple[float, float]:
        # Running totals are bit-equal to the array sums (see total_alloc_cpu
        # / total_alloc_mem) but refkernel's deploy/remove do not maintain them.
        cluster = self.cluster
        if cluster.kernel == "naive":
            return float(cluster.alloc_cpu.sum()), float(cluster.alloc_mem.sum())
        return cluster.total_alloc_cpu, cluster.total_alloc_mem

    def capacity(self) -> tuple[float, float]:
        # Under a dynamic estimator ``cap_cpu`` holds the last effective
        # override; the result reports the *physical* fleet.
        cluster = self.cluster
        return float(cluster.physical_cpu.sum()), float(cluster.cap_mem.sum())

    def placements(self) -> Iterator[tuple[VMRequest, int]]:
        return self.cluster.placed_requests()

    def physical_capacity(self) -> np.ndarray:
        return self.cluster.physical_cpu

    def allocated_capacity(self) -> np.ndarray:
        return self.cluster.alloc_cpu

    def apply_effective_capacity(self, eff: np.ndarray) -> None:
        self.cluster.set_effective_capacity(eff)


class VectorSimulation:
    """Run a workload through a :class:`VectorCluster` under a policy.

    A constructor over :func:`~repro.simulator.engine.run_events`: each
    ``run`` builds a fresh cluster, binds it in a :class:`VectorBackend`
    and, with ``oversub``, adds the dynamic controller.  ``kernel``
    selects the placement kernel (see
    :data:`~repro.simulator.vectorpool.KERNELS`).
    """

    def __init__(
        self,
        machines: Sequence[MachineSpec],
        config: SlackVMConfig | None = None,
        policy: str = "progress",
        fail_fast: bool = False,
        host_levels: Sequence[Sequence[float]] | None = None,
        recorder: DecisionRecorder = NULL_RECORDER,
        metrics: MetricsRegistry = NULL_METRICS,
        kernel: str = "incremental",
        oversub: OversubParams | None = None,
    ):
        check_policy(policy)
        if kernel not in KERNELS:
            raise ConfigError(f"unknown kernel {kernel!r}; expected one of {KERNELS}")
        self.machines = list(machines)
        self.config = config or SlackVMConfig()
        self.policy = policy
        self.fail_fast = fail_fast
        self.host_levels = host_levels
        self.recorder = recorder
        self.metrics = metrics
        self.kernel = kernel
        self.oversub = oversub

    def run(self, workload: list[VMRequest]) -> SimulationResult:
        cluster = VectorCluster(
            self.machines, self.config, self.host_levels,
            recorder=self.recorder if self.recorder.enabled else None,
            kernel=self.kernel,
        )
        backend = VectorBackend(cluster, self.policy)
        options = dict(
            fail_fast=self.fail_fast, recorder=self.recorder, metrics=self.metrics
        )
        if self.oversub is None:
            return run_events(backend, workload, **options)
        controller = self.oversub.build_controller(self.metrics)
        result = run_events(
            backend, workload, **options,
            before_event=lambda time, _state: controller.advance(backend, time),
        )
        result.oversub = controller.summary()
        return result
