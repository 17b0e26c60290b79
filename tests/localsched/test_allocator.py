"""Tests for topology-driven CPU selection."""

import pytest

from repro.core import (
    LEVEL_1_1,
    LEVEL_2_1,
    CapacityError,
    SlackVMConfig,
    TopologyError,
    VMRequest,
    VMSpec,
)
from repro.hardware import EPYC_7662_DUAL, build_topology, epyc_7662_dual
from repro.localsched import CoreAllocator, LocalScheduler


@pytest.fixture
def epyc():
    return epyc_7662_dual()


class TestGrow:
    def test_grow_prefers_smt_siblings(self, epyc):
        alloc = CoreAllocator(epyc)
        alloc.pick_seed(1, occupied=())
        grown = alloc.pick_grow([0], 1)
        assert grown == [1]  # sibling of cpu 0

    def test_grow_stays_within_cache_groups(self, epyc):
        alloc = CoreAllocator(epyc)
        alloc.pick_seed(1, occupied=())
        cpus = [0] + alloc.pick_grow([0], 7)
        # 8 threads should span exactly 4 physical cores (one CCX).
        assert epyc.physical_cores_spanned(cpus) == 4
        llcs = {epyc.cpu(c).cache_ids[-1] for c in cpus}
        assert len(llcs) == 1

    def test_grow_zero_returns_empty(self, epyc):
        alloc = CoreAllocator(epyc)
        assert alloc.pick_grow([0], 0) == []

    def test_grow_negative_rejected(self, epyc):
        alloc = CoreAllocator(epyc)
        with pytest.raises(TopologyError):
            alloc.pick_grow([0], -1)

    def test_grow_beyond_free_rejected(self):
        topo = build_topology(sockets=1, cores_per_socket=2, smt=1)
        alloc = CoreAllocator(topo)
        alloc.pick_seed(2, occupied=())
        with pytest.raises(CapacityError):
            alloc.pick_grow([0], 1)

    def test_grow_avoids_other_vnodes_cache_groups(self, epyc):
        """Ties on anchor distance must spill into untouched CCXs rather
        than interleave with a neighbouring vNode."""
        alloc = CoreAllocator(epyc)
        a = alloc.pick_seed(8, occupied=())  # vNode A: one full CCX
        b = alloc.pick_seed(4, occupied=a)  # vNode B elsewhere
        # Grow A past its CCX: must not enter B's CCX.
        grown = alloc.pick_grow(a, 8)
        b_llcs = {epyc.cpu(c).cache_ids[-1] for c in b}
        grown_llcs = {epyc.cpu(c).cache_ids[-1] for c in grown}
        assert not (b_llcs & grown_llcs)

    def test_naive_mode_picks_index_order(self, epyc):
        agent = LocalScheduler(
            EPYC_7662_DUAL, SlackVMConfig(topology_aware=False), topology=epyc
        )
        agent.deploy(VMRequest(vm_id="a", spec=VMSpec(3, 4.0), level=LEVEL_1_1))
        agent.deploy(VMRequest(vm_id="b", spec=VMSpec(1, 4.0), level=LEVEL_2_1))
        agent.deploy(VMRequest(vm_id="c", spec=VMSpec(2, 4.0), level=LEVEL_1_1))
        assert agent.vnode_for(LEVEL_1_1).cpu_ids == (0, 1, 2, 4, 5)
        assert agent.vnode_for(LEVEL_2_1).cpu_ids == (3,)


class TestSeed:
    def test_seed_far_from_occupied(self, epyc):
        alloc = CoreAllocator(epyc)
        first = alloc.pick_seed(1, occupied=())
        second = alloc.pick_seed(1, occupied=first)
        # The second vNode must not share any cache level with the first.
        assert epyc.core_distance(first[0], second[0]) >= 40.0

    def test_seed_with_no_occupied_is_deterministic(self, epyc):
        assert CoreAllocator(epyc).pick_seed(1, occupied=()) == [0]

    def test_seed_multi_cpu_is_compact(self, epyc):
        alloc = CoreAllocator(epyc)
        cpus = alloc.pick_seed(4, occupied=())
        assert epyc.physical_cores_spanned(cpus) == 2

    def test_seed_zero_rejected(self, epyc):
        with pytest.raises(TopologyError):
            CoreAllocator(epyc).pick_seed(0, occupied=())

    def test_seed_beyond_capacity_rejected(self):
        topo = build_topology(sockets=1, cores_per_socket=2, smt=1)
        with pytest.raises(CapacityError):
            CoreAllocator(topo).pick_seed(3, occupied=())


class TestRelease:
    def test_release_returns_cpus_to_pool(self, epyc):
        alloc = CoreAllocator(epyc)
        cpus = alloc.pick_seed(4, occupied=())
        alloc.release(cpus)
        assert alloc.num_free == epyc.num_cpus

    def test_double_release_rejected(self, epyc):
        alloc = CoreAllocator(epyc)
        cpus = alloc.pick_seed(2, occupied=())
        alloc.release(cpus)
        with pytest.raises(CapacityError):
            alloc.release(cpus)

    def test_taking_non_free_rejected(self, epyc):
        alloc = CoreAllocator(epyc)
        alloc.pick_seed(1, occupied=())
        # cpu 0 is now taken; growing from a fully-free anchor cannot
        # return it.
        grown = alloc.pick_grow([2], 3)
        assert 0 not in grown
