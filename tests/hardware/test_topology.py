"""Unit tests for the CPU topology model."""

import numpy as np
import pytest

from repro.core import TopologyError
from repro.hardware import (
    CpuInfo,
    Topology,
    build_topology,
    epyc_7662_dual,
    small_smp,
)


class TestBuilders:
    def test_epyc_matches_table3(self):
        # Table III: 2x64 cores x 2 hyperthreads = 256 threads.
        topo = epyc_7662_dual()
        assert topo.num_cpus == 256
        assert topo.num_physical_cores == 128
        assert len({c.socket for c in topo.cpus()}) == 2

    def test_epyc_has_segmented_llc(self):
        topo = epyc_7662_dual()
        llcs = {c.cache_ids[-1] for c in topo.cpus()}
        # 128 physical cores in CCX groups of 4 => 32 LLC zones.
        assert len(llcs) == 32

    def test_xeon_has_monolithic_llc_per_socket(self):
        # 2x Xeon 8280: 28 cores per socket sharing one L3.
        topo = build_topology(sockets=2, cores_per_socket=28, smt=2, llc_group=28)
        llcs = {c.cache_ids[-1] for c in topo.cpus()}
        assert len(llcs) == 2

    def test_small_smp(self):
        topo = small_smp(cores=8)
        assert topo.num_cpus == 8
        assert topo.num_physical_cores == 8

    def test_smt_sibling_sets(self):
        topo = build_topology(sockets=1, cores_per_socket=4, smt=2)
        cores = [c.physical_core for c in topo.cpus()]
        assert cores == [0, 0, 1, 1, 2, 2, 3, 3]

    def test_physical_cores_spanned(self):
        topo = build_topology(sockets=1, cores_per_socket=4, smt=2)
        assert topo.physical_cores_spanned([0, 1, 2]) == 2

    def test_numa_node_is_the_socket(self):
        topo = build_topology(sockets=2, cores_per_socket=4, smt=2)
        assert all(c.numa_node == c.socket for c in topo.cpus())
        assert {c.socket for c in topo.cpus()} == {0, 1}

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(sockets=0),
            dict(cores_per_socket=0),
            dict(smt=0),
            dict(llc_group=0),
            dict(cores_per_socket=8, llc_group=-4),
        ],
    )
    def test_invalid_builder_args(self, kwargs):
        with pytest.raises(TopologyError):
            build_topology(**kwargs)


class TestTopologyValidation:
    def _cpu(self, cpu_id, phys=0, node=0, caches=(0, 100, 200)):
        return CpuInfo(cpu_id=cpu_id, physical_core=phys, socket=0,
                       numa_node=node, cache_ids=caches)

    def test_empty_rejected(self):
        with pytest.raises(TopologyError):
            Topology([], np.array([[10.0]]))

    def test_non_contiguous_ids_rejected(self):
        with pytest.raises(TopologyError):
            Topology([self._cpu(1)], np.array([[10.0]]))

    def test_mismatched_cache_heights_rejected(self):
        cpus = [self._cpu(0), self._cpu(1, caches=(0, 100))]
        with pytest.raises(TopologyError):
            Topology(cpus, np.array([[10.0]]))

    def test_numa_matrix_must_cover_nodes(self):
        cpus = [self._cpu(0), self._cpu(1, node=1)]
        with pytest.raises(TopologyError):
            Topology(cpus, np.array([[10.0]]))

    def test_numa_matrix_must_be_square(self):
        with pytest.raises(TopologyError):
            Topology([self._cpu(0)], np.array([[10.0, 20.0]]))
