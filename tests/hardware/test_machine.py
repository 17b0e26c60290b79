"""Tests for machine specifications."""

import pytest

from repro.core import ConfigError, ResourceVector
from repro.hardware import (
    EPYC_7662_DUAL,
    SIM_WORKER,
    MachineSpec,
    small_smp,
)


def test_testbed_spec_matches_table3():
    # Table III: 256 threads, 1 TB, M/C = 1000/256 ~= 4.
    assert EPYC_7662_DUAL.cpus == 256
    assert EPYC_7662_DUAL.mem_gb == 1000.0
    assert EPYC_7662_DUAL.target_ratio == pytest.approx(3.90625)


def test_sim_worker_matches_section7b():
    # §VII-B1: 32 cores and 128 GB => M/C of 4 GB per core.
    assert SIM_WORKER.cpus == 32
    assert SIM_WORKER.mem_gb == 128.0
    assert SIM_WORKER.target_ratio == 4.0


def test_capacity_vector():
    assert SIM_WORKER.capacity == ResourceVector(32.0, 128.0)


def test_default_topology_matches_cpu_count():
    topo = SIM_WORKER.build_topology()
    assert topo.num_cpus == SIM_WORKER.cpus


def test_explicit_topology_factory_is_used():
    topo = EPYC_7662_DUAL.build_topology()
    assert len({c.socket for c in topo.cpus()}) == 2
    assert topo.num_cpus == 256


def test_topology_cpu_mismatch_rejected():
    spec = MachineSpec(name="bad", cpus=16, mem_gb=64.0,
                       topology_factory=lambda: small_smp(cores=8))
    with pytest.raises(ConfigError):
        spec.build_topology()


@pytest.mark.parametrize(
    "cpus,mem",
    [(0, 10.0), (-1, 10.0), (4, 0.0),
     # Non-finite sizes: NaN passes a `<= 0` guard, inf is no real host.
     (4, float("nan")), (4, float("inf")), (float("nan"), 10.0), (float("inf"), 10.0),
     # A host has a whole number of CPUs.
     (2.5, 32.0), (True, 32.0)],
)
def test_invalid_spec_rejected(cpus, mem):
    with pytest.raises(ConfigError):
        MachineSpec(name="bad", cpus=cpus, mem_gb=mem)
