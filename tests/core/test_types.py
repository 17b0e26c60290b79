"""Unit tests for the core data model."""

import math

import pytest

from repro.core import (
    ConfigError,
    LEVEL_1_1,
    LEVEL_2_1,
    LEVEL_3_1,
    OversubscriptionLevel,
    ResourceVector,
    VMRequest,
    VMSpec,
)


class TestResourceVector:
    def test_addition(self):
        assert ResourceVector(1, 2) + ResourceVector(3, 4) == ResourceVector(4, 6)

    def test_subtraction(self):
        assert ResourceVector(3, 4) - ResourceVector(1, 2) == ResourceVector(2, 2)

    def test_scalar_multiplication_commutes(self):
        assert 2 * ResourceVector(1, 2) == ResourceVector(1, 2) * 2 == ResourceVector(2, 4)

    def test_mc_ratio(self):
        assert ResourceVector(32, 128).mc_ratio == 4.0

    def test_mc_ratio_of_zero_cpu_is_infinite(self):
        assert math.isinf(ResourceVector(0, 128).mc_ratio)


class TestOversubscriptionLevel:
    def test_names(self):
        assert LEVEL_1_1.name == "1:1"
        assert LEVEL_2_1.name == "2:1"
        assert OversubscriptionLevel(1.5).name == "1.5:1"

    def test_premium_flag(self):
        assert LEVEL_1_1.is_premium
        assert not LEVEL_2_1.is_premium

    def test_physical_cores_scaling(self):
        assert LEVEL_2_1.physical_cores_for(6) == 3.0
        assert LEVEL_3_1.physical_cores_for(6) == 2.0

    def test_ordering_by_ratio(self):
        assert LEVEL_1_1 < LEVEL_2_1 < LEVEL_3_1

    def test_stricter_satisfies_looser(self):
        # §V-B: "no more than 2 vCPUs per core" satisfies "no more than 3".
        assert LEVEL_2_1.satisfies(LEVEL_3_1)
        assert LEVEL_1_1.satisfies(LEVEL_2_1)
        assert not LEVEL_3_1.satisfies(LEVEL_2_1)
        assert LEVEL_2_1.satisfies(LEVEL_2_1)

    def test_invalid_ratio_rejected(self):
        with pytest.raises(ConfigError):
            OversubscriptionLevel(0.5)


class TestVMSpec:
    def test_mc_ratio(self):
        assert VMSpec(2, 8.0).mc_ratio == 4.0

    def test_allocation_divides_cpu_by_level(self):
        alloc = VMSpec(6, 8.0).allocation(LEVEL_3_1)
        assert alloc == ResourceVector(2.0, 8.0)

    def test_allocation_premium_is_identity(self):
        assert VMSpec(4, 16.0).allocation(LEVEL_1_1) == ResourceVector(4.0, 16.0)

    @pytest.mark.parametrize("vcpus,mem", [(0, 1.0), (-1, 1.0), (1, 0.0), (1, -2.0)])
    def test_invalid_spec_rejected(self, vcpus, mem):
        with pytest.raises(ConfigError):
            VMSpec(vcpus, mem)


class TestVMRequest:
    def _vm(self, **kw):
        defaults = dict(
            vm_id="vm-0", spec=VMSpec(2, 4.0), level=LEVEL_2_1, arrival=10.0
        )
        defaults.update(kw)
        return VMRequest(**defaults)

    def test_lifetime_finite(self):
        assert self._vm(departure=70.0).lifetime == 60.0

    def test_lifetime_unbounded(self):
        assert math.isinf(self._vm(departure=None).lifetime)

    def test_allocation_uses_own_level(self):
        assert self._vm().allocation() == ResourceVector(1.0, 4.0)

    def test_with_level(self):
        upgraded = self._vm().with_level(LEVEL_1_1)
        assert upgraded.level == LEVEL_1_1
        assert upgraded.vm_id == "vm-0"

    def test_departure_before_arrival_rejected(self):
        with pytest.raises(ConfigError):
            self._vm(departure=5.0)

    def test_negative_arrival_rejected(self):
        with pytest.raises(ConfigError):
            self._vm(arrival=-1.0)

    def test_departure_equal_arrival_rejected(self):
        with pytest.raises(ConfigError):
            self._vm(departure=10.0)

    @pytest.mark.parametrize("arrival", [math.nan, math.inf])
    def test_non_finite_arrival_rejected(self, arrival):
        with pytest.raises(ConfigError, match="arrival must be finite"):
            self._vm(arrival=arrival)

    @pytest.mark.parametrize("departure", [math.nan, math.inf])
    def test_non_finite_departure_rejected(self, departure):
        with pytest.raises(ConfigError, match="must be finite"):
            self._vm(departure=departure)
