"""Regression tests for latent placement-path bugs.

Each test pins one fix:

* ``build_hosts`` must propagate the machine's ``topology_factory``
  (it used to silently rebuild every host with the generic
  single-socket fallback);
* ``VectorCluster.level_index`` must resolve computed ratios within a
  tolerance instead of requiring an exact float key;
* ``SimulationResult`` peak accessors must be well-defined on an empty
  timeline (empty workload, or ``fail_fast`` rejecting the first
  arrival) instead of crashing inside numpy;
* the scoring blend constants must have a single shared definition so
  the two engines cannot drift apart.
"""

import pytest

from repro.core import OversubscriptionLevel, SlackVMConfig, VMRequest, VMSpec
from repro.core.errors import ConfigError, SimulationError
from repro.hardware import EPYC_7662_DUAL, MachineSpec
from repro.hardware.topology import epyc_7662_dual
from repro.scheduling import first_fit_scheduler
from repro.scheduling.constants import BESTFIT_BLEND, TIEBREAK_WEIGHT
from repro.simulator import Simulation, SimulationResult, Timeline, VectorSimulation, build_hosts
from repro.simulator.vectorpool import VectorCluster


def _vm(vm_id="vm-0", vcpus=64, mem=128.0, ratio=1.0, **kw):
    return VMRequest(vm_id, VMSpec(vcpus, mem), OversubscriptionLevel(ratio), **kw)


class TestBuildHostsTopology:
    def test_topology_factory_propagates(self):
        hosts = build_hosts(EPYC_7662_DUAL, 3)
        for host in hosts:
            assert host.machine.topology_factory is EPYC_7662_DUAL.topology_factory
            topo = host.machine.build_topology()
            # The real testbed machine is dual-socket, not the generic
            # single-socket fallback.
            assert topo.num_cpus == 256
            assert len({c.socket for c in topo.cpus()}) == 2

    def test_generic_machine_still_falls_back(self):
        hosts = build_hosts(MachineSpec("plain", 32, 128.0), 2)
        for host in hosts:
            assert host.machine.topology_factory is None
            assert len({c.socket for c in host.machine.build_topology().cpus()}) == 1

    def test_host_names_still_indexed(self):
        hosts = build_hosts(EPYC_7662_DUAL, 2)
        assert [h.machine.name for h in hosts] == ["2xEPYC-7662-0", "2xEPYC-7662-1"]


class TestTolerantLevelIndex:
    def setup_method(self):
        self.cluster = VectorCluster(
            [MachineSpec("pm", 16, 64.0)], SlackVMConfig()
        )

    def test_exact_lookup(self):
        assert self.cluster.level_index(1.0) == 0
        assert self.cluster.level_index(2.0) == 1
        assert self.cluster.level_index(3.0) == 2

    def test_float_noise_resolves(self):
        # A ratio recomputed through float arithmetic: 3 * (1 - 2**-35).
        noisy = 2.9999999999
        assert self.cluster.level_index(noisy) == 2
        assert self.cluster.level_index(2.0000000001) == 1

    def test_genuinely_unconfigured_ratio_still_raises(self):
        with pytest.raises(ConfigError):
            self.cluster.level_index(4.0)
        with pytest.raises(ConfigError):
            self.cluster.level_index(2.5)

    def test_host_levels_accept_computed_ratios(self):
        # host_levels resolves through level_index too.
        cluster = VectorCluster(
            [MachineSpec("pm", 16, 64.0)],
            SlackVMConfig(),
            host_levels=[(1.0, 2.9999999999)],
        )
        assert cluster.supported[2, 0]
        assert not cluster.supported[1, 0]


class TestEmptyTimelineAccessors:
    def _empty_result(self):
        return SimulationResult(
            num_hosts=2,
            capacity_cpu=32.0,
            capacity_mem=128.0,
            placements={},
            rejections=[],
            timeline=Timeline(),
        )

    def test_peak_index_raises_domain_error(self):
        with pytest.raises(SimulationError, match="empty"):
            self._empty_result().peak_index()

    def test_unallocated_at_peak_is_total(self):
        assert self._empty_result().unallocated_at_peak() == (1.0, 1.0)

    def test_empty_workload_object_engine(self):
        hosts = build_hosts(MachineSpec("pm", 16, 64.0), 2)
        result = Simulation(hosts, first_fit_scheduler()).run([])
        assert result.unallocated_at_peak() == (1.0, 1.0)

    def test_empty_workload_vector_engine(self):
        machines = [MachineSpec("pm", 16, 64.0)]
        result = VectorSimulation(machines, policy="first_fit").run([])
        assert result.unallocated_at_peak() == (1.0, 1.0)

    def test_fail_fast_first_rejection(self):
        # A VM no host can take: first event is a rejection, fail_fast
        # breaks before anything is recorded on the timeline.
        hosts = build_hosts(MachineSpec("pm", 4, 8.0), 1)
        giant = _vm(vcpus=64, mem=256.0)
        result = Simulation(hosts, first_fit_scheduler(), fail_fast=True).run([giant])
        assert result.rejections == ["vm-0"]
        assert result.timeline.times == []
        assert result.unallocated_at_peak() == (1.0, 1.0)
        with pytest.raises(SimulationError):
            result.peak_index()


class TestSharedScoreConstants:
    def test_single_definition(self):
        from repro.scheduling import baselines
        from repro.simulator import vectorpool

        assert baselines._TIEBREAK == vectorpool._TIEBREAK == TIEBREAK_WEIGHT
        assert baselines._BESTFIT_BLEND == vectorpool._BESTFIT_BLEND == BESTFIT_BLEND

    def test_values_unchanged_from_seed(self):
        assert TIEBREAK_WEIGHT == 1e-9
        assert BESTFIT_BLEND == 0.2
