"""Property tests of topologies and the distance metric."""

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.hardware import build_topology
from repro.localsched import CoreAllocator


@st.composite
def topologies(draw):
    sockets = draw(st.integers(min_value=1, max_value=2))
    cores = draw(st.sampled_from([2, 4, 8]))
    smt = draw(st.sampled_from([1, 2]))
    llc = draw(st.sampled_from([1, 2, 4]))
    llc = min(llc, cores)
    return build_topology(
        sockets=sockets, cores_per_socket=cores, smt=smt, llc_group=llc
    )


@settings(max_examples=50, deadline=None)
@given(topo=topologies())
def test_distance_metric_properties(topo):
    d = topo.distance_matrix()
    # Symmetry and self-distance zero.
    assert np.allclose(d, d.T)
    assert np.all(np.diag(d) == 0)
    # Non-negative, and zero exactly between SMT siblings.
    assert np.all(d >= 0)
    cores = np.array([c.physical_core for c in topo.cpus()])
    assert np.array_equal(d == 0, cores[:, None] == cores[None, :])


@settings(max_examples=50, deadline=None)
@given(topo=topologies())
def test_same_socket_never_farther_than_cross_socket(topo):
    if len({c.socket for c in topo.cpus()}) < 2:
        return
    d = topo.distance_matrix()
    cpus = topo.cpus()
    same, cross = [], []
    for i in range(0, topo.num_cpus, max(1, topo.num_cpus // 8)):
        for j in range(0, topo.num_cpus, max(1, topo.num_cpus // 8)):
            if cpus[i].physical_core == cpus[j].physical_core:
                continue
            if cpus[i].socket == cpus[j].socket:
                same.append(d[i, j])
            else:
                cross.append(d[i, j])
    if same and cross:
        assert max(same) <= min(cross)


@settings(max_examples=30, deadline=None)
@given(topo=topologies(), data=st.data())
def test_allocator_never_double_books(topo, data):
    alloc = CoreAllocator(topo)
    taken: set[int] = set()
    anchors: list[list[int]] = []
    for _ in range(data.draw(st.integers(min_value=1, max_value=6))):
        if alloc.num_free == 0:
            break
        count = data.draw(st.integers(min_value=1, max_value=alloc.num_free))
        if anchors and data.draw(st.booleans()):
            grown = alloc.pick_grow(anchors[-1], count)
            anchors[-1].extend(grown)
            chosen = grown
        else:
            chosen = alloc.pick_seed(count, occupied=[c for a in anchors for c in a])
            anchors.append(list(chosen))
        overlap = taken & set(chosen)
        assert not overlap
        taken.update(chosen)
    assert len(taken) == topo.num_cpus - alloc.num_free
