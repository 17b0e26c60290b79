"""Hypothesis property suite for the serving distribution configs.

Pins the RVConfig contract: samples are non-negative and finite for
every kind, the same seed yields byte-identical arrival streams, and
invalid payloads raise ConfigError instead of degrading silently.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ConfigError
from repro.serving.config import (
    DAY,
    DIST_KINDS,
    DiurnalConfig,
    RVConfig,
    TrafficConfig,
)
from repro.serving.service import ServiceSpec

means = st.floats(min_value=1e-3, max_value=1e4,
                  allow_nan=False, allow_infinity=False)
seeds = st.integers(min_value=0, max_value=2**31 - 1)


def arrival_times(traffic, duration, seed):
    """The bare arrival timestamps of ``traffic`` over ``[0, duration]``."""
    rng = np.random.default_rng(seed)
    times, now = [], 0.0
    while True:
        now += traffic.next_gap(rng, now)
        if now > duration:
            return times
        times.append(now)


def rv_configs() -> st.SearchStrategy:
    return st.builds(RVConfig, st.sampled_from(DIST_KINDS), means)


@settings(max_examples=100, deadline=None)
@given(rv_configs(), seeds)
def test_samples_nonnegative_and_finite(rv, seed):
    rng = np.random.default_rng(seed)
    for _ in range(32):
        x = rv.sample(rng)
        assert isinstance(x, float)
        assert math.isfinite(x)
        assert x >= 0.0


@settings(max_examples=50, deadline=None)
@given(means)
def test_lognormal_mean_is_arithmetic_mean(mean):
    rv = RVConfig("lognormal", mean)
    rng = np.random.default_rng(0)
    draws = [rv.sample(rng) for _ in range(4000)]
    assert np.mean(draws) == pytest.approx(mean, rel=0.5)


@settings(max_examples=60, deadline=None)
@given(means, means, seeds,
       st.floats(min_value=0.0, max_value=0.9,
                 allow_nan=False, allow_infinity=False))
def test_same_seed_same_arrival_stream(ia_mean, lt_mean, seed, amplitude):
    traffic = TrafficConfig(
        interarrival=RVConfig("exponential", ia_mean),
        lifetime=RVConfig("exponential", lt_mean),
        diurnal=DiurnalConfig(amplitude) if amplitude > 0 else None,
    )
    horizon = ia_mean * 20
    first = arrival_times(traffic, horizon, seed)
    second = arrival_times(traffic, horizon, seed)
    # Byte-identical, not approximately equal: same floats, same order.
    assert first == second
    assert all(a <= b for a, b in zip(first, first[1:]))


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.0, max_value=0.99), means)
def test_diurnal_factor_stays_positive(amplitude, period):
    diurnal = DiurnalConfig(amplitude, period)
    for t in np.linspace(0.0, 2.0 * period, 101):
        assert diurnal.factor(float(t)) > 0.0


def test_diurnal_defaults_to_one_day_period():
    assert DiurnalConfig(0.5).period == DAY


@pytest.mark.parametrize("payload", [
    {"kind": "weibull", "mean": 1.0},           # unknown kind
    {"kind": "Poisson", "mean": 1.0},           # case-sensitive
    {"kind": "exponential", "mean": 0.0},       # mean not positive
    {"kind": "exponential", "mean": -3.0},
    {"kind": "exponential", "mean": math.nan},
    {"kind": "exponential", "mean": math.inf},
    {"kind": "exponential", "mean": True},      # bool is not a number
    {"kind": "exponential", "mean": "1.0"},     # string is not a number
    {"kind": 3, "mean": 1.0},                   # kind not a string
])
def test_invalid_rv_payloads_raise(payload):
    with pytest.raises(ConfigError):
        RVConfig(**payload)


@pytest.mark.parametrize("payload", [
    {"amplitude": 1.0},
    {"amplitude": -0.1},
    {"amplitude": math.nan},
    {"amplitude": 0.5, "period": 0.0},
    {"amplitude": 0.5, "period": -1.0},
])
def test_invalid_diurnal_payloads_raise(payload):
    with pytest.raises(ConfigError):
        DiurnalConfig(**payload)


_EXP = RVConfig("exponential", 1.0)


@pytest.mark.parametrize("payload", [
    {"interarrival": {"kind": "exponential", "mean": 1.0}, "lifetime": _EXP},
    {"interarrival": _EXP, "lifetime": {"kind": "exponential", "mean": 1.0}},
    {"interarrival": _EXP, "lifetime": _EXP, "diurnal": {"amplitude": 0.5}},
])
def test_invalid_traffic_payloads_raise(payload):
    # A plain mapping where a validated config belongs is refused.
    with pytest.raises(ConfigError):
        TrafficConfig(**payload)


def test_open_loop_builder_inverts_rate():
    traffic = ServiceSpec(rate=25.0, mean_lifetime=60.0, diurnal_amplitude=0.3).traffic()
    assert traffic.interarrival == RVConfig("exponential", 1.0 / 25.0)
    assert traffic.lifetime == RVConfig("exponential", 60.0)
    assert traffic.diurnal == DiurnalConfig(0.3)
    with pytest.raises(ConfigError):
        ServiceSpec(rate=0.0, mean_lifetime=60.0)
