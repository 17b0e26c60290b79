"""Line-by-line tests of Algorithm 2 (the progress score)."""

import pytest

from repro.core import ResourceVector
from repro.scheduling import progress_score

PM = ResourceVector(32.0, 128.0)  # target ratio 4 GB/core


def test_empty_pm_is_considered_ideal():
    """Line 6: an idle PM is regarded as already at its target ratio, so
    any deployment can only move it away (progress <= 0)."""
    balanced = ResourceVector(2.0, 8.0)  # exactly the target ratio
    skewed = ResourceVector(2.0, 2.0)
    assert progress_score(PM, ResourceVector(0.0, 0.0), balanced) == 0.0
    assert progress_score(PM, ResourceVector(0.0, 0.0), skewed) < 0.0


def test_counterbalancing_vm_scores_positive():
    # PM is CPU-heavy (ratio 2 < 4); a memory-heavy VM re-balances it.
    alloc = ResourceVector(10.0, 20.0)
    memory_heavy = ResourceVector(1.0, 16.0)
    assert progress_score(PM, alloc, memory_heavy) > 0.0


def test_aggravating_vm_scores_negative():
    alloc = ResourceVector(10.0, 20.0)  # ratio 2, CPU-heavy
    cpu_heavy = ResourceVector(4.0, 4.0)  # ratio 1: pushes further down
    assert progress_score(PM, alloc, cpu_heavy) < 0.0


def test_progress_is_delta_of_deltas():
    """Lines 9-11: progress = |current - target| - |next - target|."""
    alloc = ResourceVector(10.0, 20.0)
    vm = ResourceVector(2.0, 28.0)
    current = 20.0 / 10.0
    nxt = 48.0 / 12.0
    expected = abs(current - 4.0) - abs(nxt - 4.0)
    assert progress_score(PM, alloc, vm) == pytest.approx(expected)


def test_negative_factor_scales_by_load():
    """Lines 12-15: negative progress is multiplied by
    ``1 + allocated_cpu / configured_cpu``."""
    vm = ResourceVector(4.0, 4.0)
    for alloc in (ResourceVector(4.0, 8.0), ResourceVector(24.0, 48.0)):
        raw = progress_score(PM, alloc, vm, negative_factor=False)
        assert raw < 0  # both allocations are CPU-heavy; the VM aggravates
        expected = raw * (1.0 + alloc.cpu / PM.cpu)
        assert progress_score(PM, alloc, vm) == pytest.approx(expected)


def test_negative_factor_counteracts_loaded_pm_preference():
    """Without the factor, a loaded PM absorbs an unbalancing VM with a
    smaller ratio shift and is preferred; the factor narrows that gap so
    lighter PMs stay competitive (the paper's line 12-15 rationale)."""
    vm = ResourceVector(4.0, 4.0)
    light = ResourceVector(4.0, 8.0)
    heavy = ResourceVector(24.0, 48.0)  # same ratio, heavier load
    gap_without = progress_score(
        PM, heavy, vm, negative_factor=False
    ) - progress_score(PM, light, vm, negative_factor=False)
    gap_with = progress_score(PM, heavy, vm) - progress_score(PM, light, vm)
    assert gap_without > 0  # heavy PM preferred on raw progress
    assert gap_with < gap_without  # the factor shrinks that advantage


def test_positive_progress_not_scaled_by_factor():
    alloc = ResourceVector(10.0, 20.0)
    vm = ResourceVector(1.0, 16.0)
    assert progress_score(PM, alloc, vm) == progress_score(
        PM, alloc, vm, negative_factor=False
    )


def test_perfectly_balancing_vm_beats_partial():
    """A VM that lands the PM exactly on target must outscore one that
    only gets it closer."""
    alloc = ResourceVector(10.0, 20.0)  # needs 4 GB/core overall
    # Perfect: (20 + m) / (10 + c) = 4 with c=2 => m = 28.
    perfect = ResourceVector(2.0, 28.0)
    partial = ResourceVector(2.0, 20.0)
    assert progress_score(PM, alloc, perfect) > progress_score(PM, alloc, partial)


def test_heterogeneous_hardware_uses_per_pm_target():
    """§VI: the target ratio is per-PM, so the same (alloc, vm) pair can
    score positive on one hardware config and negative on another."""
    alloc = ResourceVector(10.0, 20.0)
    vm = ResourceVector(2.0, 2.0)  # ratio 1
    memory_light_pm = ResourceVector(32.0, 48.0)  # target 1.5
    memory_heavy_pm = ResourceVector(32.0, 256.0)  # target 8
    assert progress_score(memory_light_pm, alloc, vm) > 0
    assert progress_score(memory_heavy_pm, alloc, vm) < 0
