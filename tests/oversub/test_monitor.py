"""Usage-monitor tests: profile resolution and the window batch."""

import numpy as np
import pytest

from repro.core import ConfigError, LEVEL_1_1, VMRequest, VMSpec
from repro.oversub.monitor import ClusterUsageMonitor, profile_for_vm, stable_phase
from repro.workload.usage import IdleProfile, InteractiveProfile, StressProfile


def vm(vm_id="vm", kind="stress", param=0.5, vcpus=4, arrival=0.0, **metadata):
    return VMRequest(
        vm_id=vm_id,
        spec=VMSpec(vcpus, 4.0),
        level=LEVEL_1_1,
        arrival=arrival,
        usage_kind=kind,
        usage_param=param,
        metadata=dict(metadata),
    )


class TestStablePhase:
    def test_in_unit_interval(self):
        for name in ("a", "vm-0001", "x" * 50, ""):
            assert 0.0 <= stable_phase(name) < 1.0

    def test_deterministic_and_distinct(self):
        assert stable_phase("vm-1") == stable_phase("vm-1")
        assert stable_phase("vm-1") != stable_phase("vm-2")


class TestProfileForVm:
    def test_known_kinds_dispatch(self):
        assert isinstance(profile_for_vm(vm(kind="idle", param=0.0)), IdleProfile)
        assert isinstance(profile_for_vm(vm(kind="stress", param=0.3)), StressProfile)
        assert isinstance(
            profile_for_vm(vm(kind="interactive", param=0.4)), InteractiveProfile
        )

    def test_interactive_phase_is_stable_per_vm(self):
        p = profile_for_vm(vm(vm_id="web-7", kind="interactive", param=0.4))
        assert p.phase == stable_phase("web-7")

    def test_metadata_phase_overrides(self):
        p = profile_for_vm(vm(kind="interactive", param=0.4, phase=0.25))
        assert p.phase == 0.25

    def test_zero_param_interactive_is_silent(self):
        p = profile_for_vm(vm(kind="interactive", param=0.0))
        assert isinstance(p, StressProfile)
        assert p.demand(0.0) == 0.0

    def test_unknown_kind_is_conservative(self):
        p = profile_for_vm(vm(kind="batch", param=0.1))
        assert isinstance(p, StressProfile)
        assert p.demand(0.0) == 1.0

    def test_out_of_range_param_clipped(self):
        assert profile_for_vm(vm(kind="stress", param=7.0)).demand(0.0) == 1.0
        assert profile_for_vm(vm(kind="stress", param=-2.0)).demand(0.0) == 0.0


class TestCollect:
    def test_demand_sums_per_host(self):
        mon = ClusterUsageMonitor(window=100.0, samples_per_window=4)
        placements = [
            (vm("a", param=0.5, vcpus=4), 0),
            (vm("b", param=0.25, vcpus=8), 0),
            (vm("c", param=1.0, vcpus=2), 1),
        ]
        batch = mon.windows(placements, [16.0, 16.0, 16.0], [12.0, 2.0, 0.0], 200.0)
        assert batch.hosts.tolist() == [0, 1, 2]
        # Stress profiles are flat: host 0 sees 0.5*4 + 0.25*8 = 4.0.
        assert batch.samples[0] == pytest.approx([4.0] * 4)
        assert batch.samples[1] == pytest.approx([2.0] * 4)
        assert batch.samples[2] == pytest.approx([0.0] * 4)
        assert batch.allocated.tolist() == [12.0, 2.0, 0.0]

    def test_arrival_masks_pre_arrival_demand(self):
        mon = ClusterUsageMonitor(window=90.0, samples_per_window=4)
        # Window grid at t=100 covers [10, 40, 70, 100]; arrival at 50
        # zeroes the first two samples.
        batch = mon.windows(
            [(vm("late", param=1.0, vcpus=2, arrival=50.0), 0)], [8.0], [2.0], 100.0
        )
        assert batch.samples[0] == pytest.approx([0.0, 0.0, 2.0, 2.0])

    def test_one_sample_window_observes_its_end(self):
        # A window "ending at time" with a single sample must observe
        # `time`, not the window's start (linspace(start, time, 1)).
        mon = ClusterUsageMonitor(window=90.0, samples_per_window=1)
        batch = mon.windows(
            [(vm("late", param=1.0, vcpus=2, arrival=50.0), 0)], [8.0], [2.0], 100.0
        )
        assert batch.samples.tolist() == [[2.0]]

    def test_reused_vm_id_gets_fresh_constants(self):
        mon = ClusterUsageMonitor(window=10.0, samples_per_window=2)
        first = vm("a", param=0.5, vcpus=4)
        again = vm("a", param=1.0, vcpus=2)
        assert mon.windows([(first, 0)], [8.0], [4.0], 10.0).samples.tolist() == [[2.0, 2.0]]
        # Same id, another request, no update in between saw it gone.
        assert mon.windows([(again, 0)], [8.0], [2.0], 20.0).samples.tolist() == [[2.0, 2.0]]
        assert mon.windows([], [8.0], [0.0], 30.0).samples.tolist() == [[0.0, 0.0]]
        third = vm("a", kind="idle", param=0.0, vcpus=10)
        assert mon.windows([(third, 0)], [8.0], [10.0], 40.0).samples[0] == pytest.approx(
            [0.2, 0.2]
        )

    def test_window_clamped_at_time_zero(self):
        mon = ClusterUsageMonitor(window=1000.0, samples_per_window=3)
        batch = mon.windows([], [8.0], [0.0], 10.0)
        assert batch.samples[0] == pytest.approx([0.0, 0.0, 0.0])

    def test_demand_is_unclipped_by_capacity(self):
        # Breaches must stay visible: that's the violation signal.
        mon = ClusterUsageMonitor(window=10.0, samples_per_window=2)
        batch = mon.windows(
            [(vm("big", param=1.0, vcpus=32), 0)], [16.0], [16.0], 20.0
        )
        assert batch.peak_demand[0] == pytest.approx(32.0)
        assert batch.used.tolist() == [16.0]

    def test_shape_mismatch_rejected(self):
        mon = ClusterUsageMonitor()
        with pytest.raises(ConfigError):
            mon.windows([], [8.0, 8.0], [0.0], 10.0)

    def test_params_validated(self):
        with pytest.raises(ConfigError):
            ClusterUsageMonitor(window=0.0)
        with pytest.raises(ConfigError):
            ClusterUsageMonitor(samples_per_window=0)

    def test_interactive_contribution_is_diurnal(self):
        mon = ClusterUsageMonitor(window=43_200.0, samples_per_window=8)
        batch = mon.windows(
            [(vm("web", kind="interactive", param=0.5, vcpus=4, phase=0.0), 0)],
            [16.0],
            [4.0],
            86_400.0,
        )
        samples = batch.samples[0]
        assert samples.max() > samples.min()  # actually varies over the day
        assert np.all(samples >= 0.0)
