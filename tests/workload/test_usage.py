"""Usage-profile tests."""

import numpy as np
import pytest

from repro.core import WorkloadError
from repro.workload import (
    DEFAULT_BEHAVIOUR_SHARES,
    IdleProfile,
    InteractiveProfile,
    StressProfile,
    diurnal_demand,
    profile_for,
)

DAY = 86_400.0


def test_behaviour_shares_match_section7a():
    # §VII-A1: 10% idle, 60% stress benchmark, 30% interactive.
    assert DEFAULT_BEHAVIOUR_SHARES == {"idle": 0.10, "stress": 0.60, "interactive": 0.30}
    assert sum(DEFAULT_BEHAVIOUR_SHARES.values()) == pytest.approx(1.0)


def test_idle_profile_is_flat_and_small():
    p = IdleProfile()
    assert p.demand(0.0) == p.demand(12345.0) < 0.1


def test_stress_profile_is_constant():
    p = StressProfile(utilization=0.7)
    assert p.demand(0.0) == p.demand(999.0) == 0.7


def test_stress_bounds_validated():
    with pytest.raises(WorkloadError):
        StressProfile(utilization=1.5)


def test_interactive_profile_is_diurnal():
    p = InteractiveProfile(base=0.4, amplitude=0.5, phase=0.0)
    quarter = p.demand(DAY / 4)  # sin peak
    three_quarters = p.demand(3 * DAY / 4)  # sin trough
    assert quarter == pytest.approx(0.6)
    assert three_quarters == pytest.approx(0.2)
    assert p.demand(0.0) == pytest.approx(p.demand(DAY))  # 24h period


def test_interactive_demand_never_exceeds_one():
    p = InteractiveProfile(base=0.9, amplitude=1.0)
    times = np.linspace(0, DAY, 200)
    assert np.all(p.demand_series(times) <= 1.0)


def test_interactive_phase_shifts_peak():
    a = InteractiveProfile(base=0.4, amplitude=0.5, phase=0.0)
    b = InteractiveProfile(base=0.4, amplitude=0.5, phase=0.5)
    assert a.demand(DAY / 4) == pytest.approx(b.demand(3 * DAY / 4))


def test_interactive_validation():
    with pytest.raises(WorkloadError):
        InteractiveProfile(base=0.0)
    with pytest.raises(WorkloadError):
        InteractiveProfile(base=0.5, amplitude=2.0)


def test_profile_for_dispatch():
    assert isinstance(profile_for("idle", 0.0), IdleProfile)
    assert isinstance(profile_for("stress", 0.5), StressProfile)
    assert isinstance(profile_for("interactive", 0.3, phase=0.2), InteractiveProfile)
    with pytest.raises(WorkloadError):
        profile_for("batch", 0.5)


def test_demand_series_matches_scalar():
    p = InteractiveProfile(base=0.3)
    times = np.array([0.0, 100.0, 5000.0])
    series = p.demand_series(times)
    assert series == pytest.approx([p.demand(float(t)) for t in times])


@pytest.mark.parametrize(
    "profile",
    [
        IdleProfile(),
        StressProfile(utilization=0.45),
        InteractiveProfile(base=0.37, amplitude=0.5, phase=0.13),
        InteractiveProfile(base=0.9, amplitude=1.0, phase=0.71),
    ],
    ids=["idle", "stress", "interactive", "interactive-clamped"],
)
def test_vectorized_demand_series_is_bit_identical(profile):
    # The oversubscription monitor's vectorized form must not just be
    # close — the estimator layer and the scalar perfmodel path read the
    # same signal, so the two are required to agree bit-for-bit.
    times = np.linspace(-DAY, 3 * DAY, 1013)
    series = diurnal_demand(times, *profile.wave)
    scalar = np.array([profile.demand(float(t)) for t in times])
    assert series.shape == times.shape
    assert np.array_equal(series, scalar)


def test_demand_series_accepts_lists_and_empty():
    p = StressProfile(utilization=0.25)
    assert np.array_equal(p.demand_series([0.0, 1.0]), [0.25, 0.25])
    assert p.demand_series(np.array([])).size == 0
