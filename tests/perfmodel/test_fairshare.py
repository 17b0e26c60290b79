"""Property and unit tests of the water-filling fair share."""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import ConfigError
from repro.perfmodel import weighted_water_fill


class TestUnit:
    def test_under_capacity_gives_full_demand(self):
        d = np.array([1.0, 2.0, 3.0])
        assert weighted_water_fill(d, np.ones_like(d), 10.0) == pytest.approx(d)

    def test_equal_demands_split_evenly(self):
        d = np.array([4.0, 4.0, 4.0])
        alloc = weighted_water_fill(d, np.ones_like(d), 6.0)
        assert alloc == pytest.approx([2.0, 2.0, 2.0])

    def test_small_demands_are_protected(self):
        # EEVDF fairness: a light consumer keeps its demand; heavy ones
        # share the rest equally.
        d = np.array([1.0, 10.0, 10.0])
        alloc = weighted_water_fill(d, np.ones_like(d), 11.0)
        assert alloc[0] == pytest.approx(1.0)
        assert alloc[1] == pytest.approx(5.0)
        assert alloc[2] == pytest.approx(5.0)

    def test_weights_scale_entitlements(self):
        d = np.array([10.0, 10.0])
        alloc = weighted_water_fill(d, np.array([1.0, 3.0]), 8.0)
        assert alloc == pytest.approx([2.0, 6.0])

    def test_zero_capacity(self):
        d = np.array([1.0, 2.0])
        assert weighted_water_fill(d, np.ones_like(d), 0.0) == pytest.approx([0.0, 0.0])

    def test_empty_demands(self):
        d = np.array([])
        assert weighted_water_fill(d, np.ones_like(d), 5.0).size == 0

    def test_validation(self):
        with pytest.raises(ConfigError):
            weighted_water_fill(np.array([1.0]), np.array([1.0, 2.0]), 1.0)
        with pytest.raises(ConfigError):
            weighted_water_fill(np.array([-1.0]), np.array([1.0]), 1.0)
        with pytest.raises(ConfigError):
            weighted_water_fill(np.array([1.0]), np.array([0.0]), 1.0)
        with pytest.raises(ConfigError):
            weighted_water_fill(np.array([1.0]), np.ones(1), -1.0)


@st.composite
def share_cases(draw):
    n = draw(st.integers(min_value=1, max_value=20))
    demands = np.array(
        [draw(st.floats(min_value=0.0, max_value=16.0)) for _ in range(n)]
    )
    weights = np.array(
        [draw(st.floats(min_value=0.25, max_value=8.0)) for _ in range(n)]
    )
    capacity = draw(st.floats(min_value=0.0, max_value=64.0))
    return demands, weights, capacity


@settings(max_examples=200, deadline=None)
@given(case=share_cases())
def test_water_fill_properties(case):
    demands, weights, capacity = case
    alloc = weighted_water_fill(demands, weights, capacity)
    # 1. Nobody gets more than they asked for.
    assert np.all(alloc <= demands + 1e-9)
    # 2. Nothing is negative.
    assert np.all(alloc >= -1e-9)
    # 3. Capacity is respected, and fully used when demand saturates it.
    total = demands.sum()
    assert alloc.sum() <= min(total, capacity) + 1e-6
    if total > capacity:
        assert alloc.sum() == pytest.approx(capacity, rel=1e-6, abs=1e-9)
    else:
        assert alloc == pytest.approx(demands)


@settings(max_examples=100, deadline=None)
@given(case=share_cases())
def test_water_fill_is_weight_fair(case):
    """No consumer receiving less than demand may have a lower
    per-weight share than another consumer (max-min fairness)."""
    demands, weights, capacity = case
    alloc = weighted_water_fill(demands, weights, capacity)
    unsated = demands - alloc > 1e-6
    if not unsated.any():
        return
    theta = (alloc / weights)[unsated]
    # All unsated consumers sit at (approximately) the same water level,
    # and no one else exceeds it by more than their demand allows.
    assert theta.max() - theta.min() <= 1e-4 * max(theta.max(), 1.0)
