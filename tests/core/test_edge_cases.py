"""Edge-case sweep across the core data model and small utilities."""

import math

import pytest

from repro.core import (
    LEVEL_1_1,
    LEVEL_3_1,
    OversubscriptionLevel,
    ResourceVector,
    SlackVMConfig,
    VMRequest,
    VMSpec,
)


class TestResourceVectorEdges:
    def test_subtraction_can_go_negative(self):
        v = ResourceVector(1, 1) - ResourceVector(2, 3)
        assert v.cpu == -1 and v.mem == -2

    def test_multiplication_by_zero(self):
        assert ResourceVector(3, 5) * 0 == ResourceVector(0, 0)

    def test_vectors_are_hashable_values(self):
        assert len({ResourceVector(1, 2), ResourceVector(1, 2)}) == 1


class TestLevelEdges:
    def test_fractional_ratio_supported(self):
        lvl = OversubscriptionLevel(1.5)
        assert lvl.name == "1.5:1"
        assert lvl.physical_cores_for(3) == 2.0

    def test_ratio_exactly_one_with_memory_oversub(self):
        lvl = OversubscriptionLevel(1.0, mem_ratio=2.0)
        assert not lvl.is_premium
        assert lvl.physical_mem_for(8.0) == 4.0

    def test_level_equality_includes_mem_ratio(self):
        assert OversubscriptionLevel(2.0) != OversubscriptionLevel(2.0, 1.5)

    def test_ordering_with_mem_ratio(self):
        assert OversubscriptionLevel(2.0) < OversubscriptionLevel(2.0, 1.5)


class TestVMRequestEdges:
    def test_metadata_does_not_affect_equality(self):
        a = VMRequest(vm_id="x", spec=VMSpec(1, 1.0), level=LEVEL_1_1,
                      metadata={"k": 1})
        b = VMRequest(vm_id="x", spec=VMSpec(1, 1.0), level=LEVEL_1_1,
                      metadata={"k": 2})
        assert a == b

    def test_infinite_lifetime_allocation(self):
        vm = VMRequest(vm_id="x", spec=VMSpec(3, 6.0), level=LEVEL_3_1)
        assert math.isinf(vm.lifetime)
        assert vm.allocation() == ResourceVector(1.0, 6.0)

    def test_with_level_preserves_everything_else(self):
        vm = VMRequest(vm_id="x", spec=VMSpec(2, 4.0), level=LEVEL_1_1,
                       arrival=5.0, departure=9.0, usage_kind="idle")
        up = vm.with_level(LEVEL_3_1)
        assert up.arrival == 5.0 and up.departure == 9.0
        assert up.usage_kind == "idle"
        assert up.level == LEVEL_3_1


class TestConfigEdges:
    def test_many_levels(self):
        ratios = (1, 2, 3, 4, 8, 16)
        cfg = SlackVMConfig(levels=tuple(OversubscriptionLevel(r) for r in ratios))
        assert [lv.ratio for lv in cfg.levels] == list(ratios)

    def test_mem_ratio_levels_in_config(self):
        levels = (OversubscriptionLevel(1.0),
                  OversubscriptionLevel(2.0, mem_ratio=1.5))
        cfg = SlackVMConfig(levels=levels)
        assert cfg.levels[1].mem_ratio == 1.5
