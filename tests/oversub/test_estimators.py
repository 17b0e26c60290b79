"""Estimator unit tests + the effective-capacity bounds property."""

import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ConfigError, OversubscriptionLevel
from repro.oversub import OversubParams
from repro.oversub.estimators import (
    STRATEGIES,
    DoaEstimator,
    GreedyEstimator,
    HostWindows,
    PercentileEstimator,
    PercentilePredictor,
    StaticRatio,
    make_estimator,
)


def window(samples, physical=16.0, allocated=8.0, host=0):
    """One host's window: a one-row batch."""
    return HostWindows(
        [physical], [allocated], np.asarray(samples, dtype=float)[None, :], [host]
    )


def predict(predictor, samples):
    """``predictor``'s peak of one window, as a one-row batch."""
    return float(predictor.predict_rows(np.asarray(samples, dtype=float)[None, :])[0])


def capacity(est, w):
    return float(est.effective_capacities(w)[0])


class TestSamplePredictors:
    def test_percentile_predictor(self):
        samples = np.arange(101, dtype=float)
        assert predict(PercentilePredictor(99.0), samples) == pytest.approx(99.0)

    def test_percentile_bounds(self):
        with pytest.raises(ConfigError):
            PercentilePredictor(0.0)
        with pytest.raises(ConfigError):
            PercentilePredictor(101.0)

    def test_percentile_ignores_nan_gaps(self):
        # Recorded traces have gaps; NaN must not leak into scores.
        gappy = np.array([1.0, np.nan, 3.0, np.nan])
        result = predict(PercentilePredictor(100.0), gappy)
        assert result == pytest.approx(3.0)
        assert not np.isnan(result)

    def test_percentile_rejects_all_nan_window(self):
        with pytest.raises(ConfigError):
            predict(PercentilePredictor(), [np.nan, np.nan])

    def test_empty_window_rejected(self):
        with pytest.raises(ConfigError):
            predict(PercentilePredictor(), [])


class TestHostWindow:
    def test_used_is_peak_capped_by_physical(self):
        w = window([2.0, 5.0, 3.0], physical=4.0)
        assert w.peak_demand.tolist() == [5.0]
        assert w.used.tolist() == [4.0]

    def test_empty_window(self):
        w = window([])
        assert w.used.tolist() == [0.0]
        assert w.peak_demand.tolist() == [0.0]

    def test_negative_inputs_rejected(self):
        with pytest.raises(ConfigError):
            window([1.0], physical=-1.0)
        with pytest.raises(ConfigError):
            window([1.0], allocated=-0.5)


class TestStaticRatio:
    def test_default_is_exactly_physical(self):
        # The golden-trace identity hinges on this being exact, not
        # approximate: ratio 1.0 must reproduce the physical capacity.
        est = StaticRatio()
        assert capacity(est, window([3.0], physical=16.0)) == 16.0
        assert capacity(est, window([], physical=7.0)) == 7.0

    def test_ratio_scales_physical(self):
        class Doubled(StaticRatio):
            ratio_cap = 2.0

        assert capacity(Doubled(), window([0.0], physical=16.0)) == 32.0


class TestPercentileEstimator:
    def test_idle_reserved_host_earns_capacity(self):
        # 8 cores reserved, peak usage ~1.6 cores: reservations barely
        # translate into usage, so effective capacity rises above
        # physical (clamped by ratio_cap).
        est = PercentileEstimator()
        w = window([1.0, 1.5, 1.6], physical=16.0, allocated=8.0)
        assert capacity(est, w) > 16.0

    def test_hot_host_shrinks_toward_used(self):
        est = PercentileEstimator()
        w = window([14.0, 15.5, 15.0], physical=16.0, allocated=16.0)
        eff = capacity(est, w)
        assert w.used[0] <= eff < 16.0 * est.ratio_cap
        assert eff < 17.0

    def test_no_signal_is_neutral(self):
        est = PercentileEstimator()
        assert capacity(est, window([], allocated=4.0)) == 16.0
        assert capacity(est, window([1.0], allocated=0.0)) == 16.0

    def test_zero_peak_hits_the_ceiling(self):
        est = PercentileEstimator()
        w = window([0.0, 0.0], physical=16.0, allocated=8.0)
        assert capacity(est, w) == 3.0 * 16.0


class TestDoaEstimator:
    def test_alert_decreases_immediately(self):
        est = DoaEstimator()
        # Warm up to a raised ratio: identical quiet windows are stable.
        quiet = [window([1.0, 1.0], physical=16.0) for _ in range(6)]
        for w in quiet:
            capacity(est, w)
        raised = capacity(est, window([1.0, 1.0], physical=16.0))
        assert raised > 16.0
        hot = capacity(est, window([15.0, 15.5], physical=16.0))
        assert hot < raised

    def test_unstable_hosts_do_not_creep_up(self):
        est = DoaEstimator()
        # Peaks jump around: never stable, ratio stays at 1.
        for peak in (1.0, 5.0, 2.0, 7.0, 3.0):
            eff = capacity(est, window([peak], physical=16.0))
        assert eff == 16.0

    def test_state_is_per_host(self):
        est = DoaEstimator()
        for _ in range(4):
            capacity(est, window([1.0], physical=16.0, host=0))
        fresh = capacity(est, window([1.0], physical=16.0, host=1))
        warmed = capacity(est, window([1.0], physical=16.0, host=0))
        assert warmed > fresh

    def test_reset_clears_state(self):
        est = DoaEstimator()
        for _ in range(4):
            capacity(est, window([1.0], physical=16.0))
        est.reset()
        assert capacity(est, window([1.0], physical=16.0)) == 16.0


class TestGreedyEstimator:
    def test_quiescent_steps_up(self):
        est = GreedyEstimator()
        w = window([2.0], physical=16.0)
        first = capacity(est, w)
        second = capacity(est, w)
        assert first == 1.25 * 16.0
        assert second == 1.5 * 16.0

    def test_breach_backs_off_multiplicatively(self):
        est = GreedyEstimator()
        quiet = window([2.0], physical=16.0)
        for _ in range(8):
            capacity(est, quiet)  # ratio -> 3.0 capped
        loud = window([15.0], physical=16.0)
        eff = capacity(est, loud)
        # ratio 3.0 -> 1 + 2.0 * 0.5 = 2.0
        assert eff == pytest.approx(2.0 * 16.0)

    def test_never_below_physical_when_quiet(self):
        est = GreedyEstimator()
        w = window([15.9], physical=16.0)
        for _ in range(10):
            eff = capacity(est, w)
        assert eff >= 16.0 - 1e-9


class TestRegistry:
    def test_all_strategies_constructible(self):
        for name in STRATEGIES:
            est = make_estimator(name)
            assert est.name == name

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigError):
            make_estimator("oracle")


# ---------------------------------------------------------------------------
# Property: every estimator's effective capacity stays within
# [used, ratio_cap × physical] — the contract the engines rely on.
# ---------------------------------------------------------------------------

windows = st.builds(
    window,
    samples=st.lists(st.floats(0.0, 64.0), min_size=0, max_size=12),
    physical=st.floats(1.0, 64.0),
    allocated=st.floats(0.0, 192.0),
    host=st.integers(0, 3),
)


@settings(max_examples=200, deadline=None)
@given(seq=st.lists(windows, min_size=1, max_size=8))
@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_effective_capacity_bounds(strategy, seq):
    est = make_estimator(strategy)
    for w in seq:
        eff = capacity(est, w)
        assert eff >= w.used[0] - 1e-9
        assert eff <= est.ratio_cap * w.physical[0] + 1e-9


#: Every oversubscription constructor, with the arguments it needs
#: besides the parameter under test.
CONSTRUCTORS = (
    (OversubParams, {"estimator": StaticRatio()}),
    (OversubscriptionLevel, {"ratio": 2.0}),
)
NUMERIC_PARAMS = [
    (cls, extra, name)
    for cls, extra in CONSTRUCTORS
    for name, p in inspect.signature(cls).parameters.items()
    if p.annotation in (float, int, "float", "int")
]


@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0], ids=["nan", "inf", "neg"])
@pytest.mark.parametrize(
    "cls, extra, name",
    NUMERIC_PARAMS,
    ids=[f"{cls.__name__}.{name}" for cls, _, name in NUMERIC_PARAMS],
)
def test_numeric_parameters_must_be_finite_and_in_range(cls, extra, name, value):
    # NaN slips past `x < 1`-style guards and inf admits without bound:
    # both must fail at construction, not once a run is under way.
    with pytest.raises(ConfigError):
        cls(**{**extra, name: value})
