"""Tests of the peak-usage predictors."""

import numpy as np
import pytest

from repro.core import ConfigError, LEVEL_3_1, VMRequest, VMSpec
from repro.dynamiclevels import PercentilePredictor, analytic_peak_demand


def vm(kind, param, vcpus=4):
    return VMRequest(vm_id="vm", spec=VMSpec(vcpus, 4.0), level=LEVEL_3_1,
                     usage_kind=kind, usage_param=param)


class TestSamplePredictors:
    def test_percentile_predictor(self):
        samples = np.arange(101, dtype=float)
        assert PercentilePredictor(99.0).predict(samples) == pytest.approx(99.0)

    def test_percentile_bounds(self):
        with pytest.raises(ConfigError):
            PercentilePredictor(0.0)
        with pytest.raises(ConfigError):
            PercentilePredictor(101.0)

    def test_percentile_ignores_nan_gaps(self):
        # Recorded traces have gaps; NaN must not leak into scores.
        gappy = np.array([1.0, np.nan, 3.0, np.nan])
        result = PercentilePredictor(100.0).predict(gappy)
        assert result == pytest.approx(3.0)
        assert not np.isnan(result)

    def test_percentile_rejects_all_nan_window(self):
        with pytest.raises(ConfigError):
            PercentilePredictor().predict(np.array([np.nan, np.nan]))

    def test_empty_window_rejected(self):
        with pytest.raises(ConfigError):
            PercentilePredictor().predict(np.array([]))


class TestAnalyticPeak:
    def test_idle_vm_has_tiny_peak(self):
        assert analytic_peak_demand(vm("idle", 0.0)) < 0.5

    def test_stress_peak_scales_with_param(self):
        low = analytic_peak_demand(vm("stress", 0.2))
        high = analytic_peak_demand(vm("stress", 0.6))
        assert high == pytest.approx(3 * low)

    def test_interactive_includes_diurnal_headroom(self):
        flat = analytic_peak_demand(vm("stress", 0.4), safety=1.0)
        diurnal = analytic_peak_demand(vm("interactive", 0.4), safety=1.0)
        assert diurnal == pytest.approx(1.5 * flat)

    def test_peak_never_exceeds_vcpus(self):
        assert analytic_peak_demand(vm("stress", 1.0, vcpus=2), safety=2.0) == 2.0

    def test_unknown_kind_assumes_worst(self):
        assert analytic_peak_demand(vm("batch", 0.1), safety=1.0) == 4.0

    def test_interactive_peak_clamped_at_full_utilisation(self):
        # InteractiveProfile.demand clamps at 1.0; the analytic peak
        # must agree.  For base > 1/(1+amplitude) the clamped peak
        # equals a flat-out stress VM's — not 1.2× it.
        hot = analytic_peak_demand(vm("interactive", 0.9), safety=1.0)
        flat_out = analytic_peak_demand(vm("stress", 1.0), safety=1.0)
        assert hot == flat_out == 4.0

    def test_interactive_amplitude_is_shared_constant(self):
        # The amplitude must come from repro.workload.usage, not a
        # module-local copy that can drift.
        from repro.dynamiclevels import predictor
        from repro.workload.usage import INTERACTIVE_AMPLITUDE

        assert not hasattr(predictor, "_INTERACTIVE_AMPLITUDE")
        boundary = 1.0 / (1.0 + INTERACTIVE_AMPLITUDE)
        assert analytic_peak_demand(
            vm("interactive", boundary), safety=1.0
        ) == pytest.approx(4.0)

    def test_safety_below_one_rejected(self):
        with pytest.raises(ConfigError):
            analytic_peak_demand(vm("stress", 0.5), safety=0.9)
