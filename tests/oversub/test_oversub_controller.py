"""Controller tests: update cadence, violation ledger, metrics."""

import numpy as np
import pytest

from repro.core import ConfigError, LEVEL_1_1, VMRequest, VMSpec
from repro.obs import names as metric_names
from repro.obs.metrics import MetricsRegistry
from repro.oversub.controller import OversubController, OversubParams, OversubSummary
from repro.oversub.estimators import CapacityEstimator, PercentileEstimator, StaticRatio
from repro.oversub.monitor import ClusterUsageMonitor


def vm(vm_id="vm", param=0.5, vcpus=4):
    return VMRequest(vm_id=vm_id, spec=VMSpec(vcpus, 4.0), level=LEVEL_1_1,
                     usage_kind="stress", usage_param=param)


class FakeTarget:
    """In-memory CapacityTarget recording every applied vector."""

    def __init__(self, physical, allocated=None):
        self.physical = list(physical)
        self.allocated = list(allocated or [0.0] * len(self.physical))
        self.live = []
        self.applied = []

    def placements(self):
        return list(self.live)

    def physical_capacity(self):
        return self.physical

    def allocated_capacity(self):
        return self.allocated

    def apply_effective_capacity(self, eff):
        self.applied.append(np.asarray(eff, dtype=float).copy())


class TestParams:
    def test_window_defaults_to_update_every(self):
        params = OversubParams(StaticRatio(), update_every=600.0)
        controller = params.build_controller()
        assert controller.monitor.window == 600.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(update_every=0.0),
            # NaN passes a `<= 0` guard and an infinite period never
            # fires: either would build a controller that never updates.
            dict(update_every=float("nan")),
            dict(update_every=float("inf")),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            OversubParams(StaticRatio(), **kwargs)
        with pytest.raises(ConfigError):
            OversubController(StaticRatio(), ClusterUsageMonitor(), **kwargs)


class TestAdvance:
    def test_updates_fire_at_exact_multiples(self):
        controller = OversubParams(StaticRatio(), update_every=100.0).build_controller()
        target = FakeTarget([16.0])
        controller.advance(target, 99.9)
        assert controller.updates == 0
        controller.advance(target, 100.0)
        assert controller.updates == 1
        # A long gap catches up on every missed instant.
        controller.advance(target, 350.0)
        assert controller.updates == 3
        controller.advance(target, 350.0)  # idempotent at the same time
        assert controller.updates == 3

    def test_update_instants_are_integer_multiples(self):
        # k × update_every, not a running sum: ten additions of 0.1
        # give 0.9999999999999999, and that stamp is the window end
        # the monitor samples at.
        controller = OversubParams(StaticRatio(), update_every=0.1).build_controller()
        seen = []
        windows = controller.monitor.windows
        controller.monitor.windows = lambda *args: seen.append(args[-1]) or windows(*args)
        controller.advance(FakeTarget([16.0]), 1.0)
        assert seen == [k * 0.1 for k in range(1, 11)]
        assert seen[-1] == 1.0

    def test_window_ends_on_the_exact_instant(self):
        # A VM arriving at t=1.0 is inside the window of the tenth
        # update (stamped 1.0); a drifted stamp just below 1.0 misses it.
        controller = OversubParams(StaticRatio(), update_every=0.1).build_controller()
        target = FakeTarget([16.0], allocated=[16.0])
        hot = VMRequest(vm_id="hot", spec=VMSpec(32, 4.0), level=LEVEL_1_1, arrival=1.0,
                        usage_kind="stress", usage_param=1.0)
        target.live = [(hot, 0)]
        controller.advance(target, 1.0)
        assert (controller.updates, controller.violations) == (10, 1)

    def test_static_ratio_applies_physical(self):
        controller = OversubParams(StaticRatio(), update_every=50.0).build_controller()
        target = FakeTarget([16.0, 8.0])
        controller.advance(target, 50.0)
        assert target.applied[0] == pytest.approx([16.0, 8.0])

    def test_reset_called_on_build(self):
        est = PercentileEstimator()
        # Build twice: each controller starts the estimator fresh.
        OversubParams(est, update_every=50.0).build_controller()
        controller = OversubParams(est, update_every=50.0).build_controller()
        assert controller.estimator is est


class TestLedger:
    def test_violations_counted_per_breaching_window(self):
        controller = OversubParams(StaticRatio(), update_every=100.0).build_controller()
        # Host 0 demands 2.0 on 16 physical cores (fine); host 1
        # demands 32 on 16 (breach) every window.
        target = FakeTarget([16.0, 16.0], allocated=[4.0, 16.0])
        target.live = [(vm("ok", param=0.5, vcpus=4), 0),
                       (vm("hot", param=1.0, vcpus=32), 1)]
        controller.advance(target, 300.0)
        assert controller.updates == 3
        assert controller.host_windows == 6
        assert controller.violations == 3
        summary = controller.summary()
        assert summary.violation_rate == pytest.approx(0.5)
        assert summary.strategy == "static"

    def test_unpowered_hosts_are_not_host_windows(self):
        controller = OversubParams(StaticRatio(), update_every=100.0).build_controller()
        target = FakeTarget([16.0, 0.0, 8.0])
        controller.advance(target, 200.0)
        assert controller.host_windows == 4
        assert controller.summary().eff_ratio_mean == 1.0
        assert target.applied[0].tolist() == [16.0, 0.0, 8.0]

    def test_summary_without_updates_is_neutral(self):
        controller = OversubParams(StaticRatio()).build_controller()
        summary = controller.summary()
        assert summary == OversubSummary(
            strategy="static", updates=0, host_windows=0, violations=0,
            eff_ratio_mean=1.0,
        )
        assert summary.violation_rate == 0.0

    def test_to_dict_round_trip_uses_plain_floats(self):
        controller = OversubParams(StaticRatio(), update_every=10.0).build_controller()
        controller.advance(FakeTarget([16.0]), 10.0)
        d = controller.summary().to_dict()
        assert type(d["eff_ratio_mean"]) is float
        assert d["updates"] == 1

    def test_eff_ratio_mean_tracks_estimator(self):
        class Doubled(CapacityEstimator):
            ratio_cap = 2.0

            def _estimate(self, windows):
                return 2.0 * windows.physical

        controller = OversubParams(Doubled(), update_every=10.0).build_controller()
        controller.advance(FakeTarget([16.0, 8.0]), 20.0)
        assert controller.summary().eff_ratio_mean == pytest.approx(2.0)


class TestMetrics:
    def test_emitted_through_registered_names(self):
        metrics = MetricsRegistry()
        controller = OversubParams(StaticRatio(), update_every=100.0).build_controller(
            metrics
        )
        target = FakeTarget([16.0])
        target.live = [(vm("hot", param=1.0, vcpus=32), 0)]
        controller.advance(target, 200.0)
        assert metrics.counter(metric_names.OVERSUB_UPDATES).value == 2
        assert metrics.counter(metric_names.OVERSUB_HOST_WINDOWS).value == 2
        assert metrics.counter(metric_names.OVERSUB_VIOLATIONS).value == 2
        assert metrics.gauge(metric_names.OVERSUB_EFF_CPU_TOTAL).value == 16.0

    def test_null_registry_stays_silent(self):
        controller = OversubParams(StaticRatio(), update_every=100.0).build_controller()
        controller.advance(FakeTarget([16.0]), 100.0)  # must not raise
        assert controller.updates == 1
