"""Object-pipeline tests: view, filter, engine integration."""

import numpy as np
import pytest

from repro.core import ConfigError, LEVEL_1_1, VMRequest, VMSpec
from repro.hardware import MachineSpec
from repro.oversub.controller import OversubParams
from repro.oversub.estimators import StaticRatio
from repro.oversub.pipeline import (
    EffectiveCapacityFilter,
    EffectiveCapacityView,
    with_oversub,
)
from repro.scheduling import first_fit_scheduler, slackvm_scheduler
from repro.simulator import Simulation, build_hosts

MACHINE = MachineSpec("pm", 8, 32.0)


def vm(vm_id, vcpus=2, mem=4.0, level=LEVEL_1_1, arrival=0.0, departure=None,
       kind="stress", param=0.5):
    return VMRequest(vm_id=vm_id, spec=VMSpec(vcpus, mem), level=level,
                     arrival=arrival, departure=departure,
                     usage_kind=kind, usage_param=param)


class TestView:
    def test_starts_at_physical(self):
        view = EffectiveCapacityView(["a", "b"], [8.0, 16.0])
        assert view.effective_for("a") == 8.0
        assert view.effective_for("b") == 16.0

    def test_update_replaces_vector(self):
        view = EffectiveCapacityView(["a", "b"], [8.0, 16.0])
        view.update(np.array([12.0, 10.0]))
        assert view.effective_for("a") == 12.0
        assert view.effective_for("b") == 10.0
        assert view.physical.tolist() == [8.0, 16.0]  # physical untouched

    def test_shape_mismatch_rejected(self):
        view = EffectiveCapacityView(["a"], [8.0])
        with pytest.raises(ConfigError):
            view.update(np.array([1.0, 2.0]))

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigError):
            EffectiveCapacityView(["a", "a"], [8.0, 8.0])
        with pytest.raises(ConfigError):
            EffectiveCapacityView(["a"], [8.0, 8.0])


class TestFilter:
    def test_passes_at_physical_effective(self):
        (host,) = build_hosts(MACHINE, 1)
        view = EffectiveCapacityView([host.machine.name], [8.0])
        filt = EffectiveCapacityFilter(view)
        assert filt.passes(host, vm("v", vcpus=4))

    def test_restricts_when_effective_below_physical(self):
        (host,) = build_hosts(MACHINE, 1)
        view = EffectiveCapacityView([host.machine.name], [8.0])
        view.update(np.array([2.0]))
        filt = EffectiveCapacityFilter(view)
        assert filt.passes(host, vm("small", vcpus=2))
        assert not filt.passes(host, vm("big", vcpus=4))

    def test_rejects_physically_infeasible(self):
        (host,) = build_hosts(MACHINE, 1)
        view = EffectiveCapacityView([host.machine.name], [8.0])
        view.update(np.array([100.0]))  # generous effective capacity
        filt = EffectiveCapacityFilter(view)
        # plan() is None: 16 vcpus never fit 8 physical slots.
        assert not filt.passes(host, vm("huge", vcpus=16))


class TestWithOversub:
    def test_appends_filter_and_names_scheduler(self):
        view = EffectiveCapacityView(["a"], [8.0])
        base = slackvm_scheduler()
        wrapped = with_oversub(base, view)
        assert wrapped.name == f"{base.name}+oversub"
        assert len(wrapped.filters) == len(base.filters) + 1
        assert isinstance(wrapped.filters[-1], EffectiveCapacityFilter)
        assert wrapped.weighers == base.weighers


class TestEngineIntegration:
    TRACE = [
        vm("a", vcpus=4, mem=4.0, arrival=0.0, departure=5000.0),
        vm("b", vcpus=4, mem=4.0, arrival=100.0),
        vm("c", vcpus=4, mem=4.0, arrival=2000.0),
        vm("d", vcpus=4, mem=4.0, arrival=6000.0),
    ]

    def test_static_ratio_matches_baseline_run(self):
        base = Simulation(build_hosts(MACHINE, 2), first_fit_scheduler()).run(
            self.TRACE
        )
        oversub = Simulation(
            build_hosts(MACHINE, 2),
            first_fit_scheduler(),
            oversub=OversubParams(StaticRatio(), update_every=500.0),
        ).run(self.TRACE)
        assert {k: v.host for k, v in oversub.placements.items()} == {
            k: v.host for k, v in base.placements.items()
        }
        assert oversub.rejections == base.rejections
        assert oversub.oversub is not None
        assert oversub.oversub.updates > 0
        assert base.oversub is None

    def test_summary_reports_strategy(self):
        result = Simulation(
            build_hosts(MACHINE, 2),
            first_fit_scheduler(),
            oversub=OversubParams(StaticRatio(), update_every=1000.0),
        ).run(self.TRACE)
        assert result.oversub.strategy == "static"
        assert result.oversub.eff_ratio_mean == pytest.approx(1.0)

    def test_live_set_shrinks_on_departure(self):
        sim = Simulation(
            build_hosts(MACHINE, 2),
            first_fit_scheduler(),
            oversub=OversubParams(StaticRatio(), update_every=1000.0),
        )
        sim.run(self.TRACE)
        # "a" departed at t=5000; the target must only hold live VMs.
        live_ids = set(sim._oversub_target.live)
        assert live_ids == {"b", "c", "d"}
