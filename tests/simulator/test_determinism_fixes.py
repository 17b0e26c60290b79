"""Regressions for the determinism-rule fixes (rules R004/R005).

To satisfy the determinism rules
(``tests/structure/test_determinism_rules.py``), several hash-order set
iterations became ``sorted(...)`` materializations and one exact
float ``!=`` became the tolerance helper.  Each change was argued
behaviour-neutral; these tests pin that argument down:

* the allocator's picks must not depend on the *insertion history* of
  its free-CPU set (only on its contents);
* the vector kernel must stay bit-identical to the naive reference
  after the shape-cache refresh paths run over multiply-dirtied hosts;
* ``_vm_level_index`` accepts a memory ratio within CAPACITY_EPSILON
  (the tolerance change only *widens* acceptance);
* the -inf sentinel rewrite in ``select`` still returns None when no
  host is feasible.
"""

import numpy as np
import pytest

from repro.core import (
    ConfigError,
    OversubscriptionLevel,
    SlackVMConfig,
    VMRequest,
    VMSpec,
)
from repro.core.constants import CAPACITY_EPSILON
from repro.hardware import MachineSpec, epyc_7662_dual
from repro.localsched import CoreAllocator
from repro.simulator import naive_feasibility, naive_scores
from repro.simulator.vectorpool import POLICIES, VectorCluster


def _vm(i, vcpus, mem, ratio, mem_ratio=1.0):
    return VMRequest(
        vm_id=f"vm-{i:03d}",
        spec=VMSpec(vcpus, mem),
        level=OversubscriptionLevel(ratio, mem_ratio),
    )


# ---------------------------------------------------------------------------
# allocator: picks depend on set *contents*, never insertion history
# ---------------------------------------------------------------------------


class TestAllocatorOrderIndependence:
    def _scrambled(self, topo, churn):
        """An allocator whose free set was rebuilt via take/release churn."""
        alloc = CoreAllocator(topo)
        taken = alloc.pick_seed(churn, occupied=())
        # Release in an order unrelated to cpu id to vary the set's
        # internal layout while restoring identical contents.
        for cpu in sorted(taken, key=lambda c: (c % 3, -c)):
            alloc.release([cpu])
        return alloc

    @pytest.mark.parametrize("churn", [1, 7, 31])
    def test_pick_grow_ignores_free_set_history(self, churn):
        topo = epyc_7662_dual()
        fresh = CoreAllocator(topo)
        scrambled = self._scrambled(topo, churn)
        anchor = fresh.pick_seed(2, occupied=())
        assert scrambled.pick_seed(2, occupied=()) == anchor
        assert fresh.pick_grow(anchor, 6) == scrambled.pick_grow(anchor, 6)

    def test_pick_seed_with_occupied_ignores_history(self):
        topo = epyc_7662_dual()
        fresh = CoreAllocator(topo)
        scrambled = self._scrambled(topo, 13)
        occ = fresh.pick_seed(4, occupied=())
        assert scrambled.pick_seed(4, occupied=()) == occ
        assert fresh.pick_seed(3, occupied=occ) == scrambled.pick_seed(
            3, occupied=occ
        )


# ---------------------------------------------------------------------------
# vector kernel: per-host refreshes stay bit-identical to naive
# ---------------------------------------------------------------------------


def _machines(n=5):
    return [MachineSpec(f"pm-{i}", 8, 32.0) for i in range(n)]


def _pair(machines=None, cfg=None):
    machines = machines or _machines()
    cfg = cfg or SlackVMConfig()
    return (
        VectorCluster(machines, cfg, kernel="incremental"),
        VectorCluster(machines, cfg, kernel="naive"),
    )


def _assert_kernels_agree(inc, ref, vm, policy):
    feas_i, growth_i, own_i = (a.copy() for a in inc.feasibility(vm))
    feas_r, growth_r, own_r = naive_feasibility(ref, vm)
    assert np.array_equal(feas_i, feas_r)
    assert np.array_equal(growth_i, growth_r)
    assert np.array_equal(own_i, own_r)
    assert np.array_equal(inc.scores(vm, policy).copy(), naive_scores(ref, vm, policy))
    if feas_r.any():
        masked = np.where(feas_r, naive_scores(ref, vm, policy), -np.inf)
        expected = int(np.argmax(masked))
    else:
        expected = None
    assert inc.select(vm, policy) == expected


class TestDirtyHostSync:
    def test_multi_host_refresh_matches_naive(self):
        inc, ref = _pair()
        placed = []
        # Touch every host: deploys land round-robin, removals then
        # touch a scattered subset, so the shape cache replays several
        # hosts between probes.
        for i in range(10):
            vm = _vm(i, 2, 4.0, 2.0)
            probe = _vm(100 + i, 1, 2.0, 2.0)
            host = inc.select(vm, "progress")
            assert host is not None
            inc.deploy(vm, host)
            ref.deploy(vm, host)
            placed.append(vm.vm_id)
            _assert_kernels_agree(inc, ref, probe, "progress")
        for j, vm_id in enumerate(placed):
            if j % 3 != 0:
                continue
            inc.remove(vm_id)
            ref.remove(vm_id)
        for policy in sorted(POLICIES):
            _assert_kernels_agree(inc, ref, _vm(200, 3, 6.0, 2.0), policy)

    def test_select_returns_none_when_nothing_fits(self):
        inc, ref = _pair(_machines(2))
        oversized = _vm(0, 64, 512.0, 1.0)
        for policy in sorted(POLICIES):
            _assert_kernels_agree(inc, ref, oversized, policy)
            assert inc.select(oversized, policy) is None


# ---------------------------------------------------------------------------
# level lookup: tolerance helper only widens acceptance
# ---------------------------------------------------------------------------


class TestLevelMemRatioTolerance:
    CFG = SlackVMConfig(
        levels=(
            OversubscriptionLevel(1.0),
            OversubscriptionLevel(4.0, mem_ratio=1.5),
        )
    )

    def test_exact_ratio_accepted(self):
        inc, _ = _pair(cfg=self.CFG)
        assert inc.select(_vm(0, 1, 2.0, 4.0, mem_ratio=1.5), "progress") is not None

    def test_epsilon_close_ratio_accepted(self):
        # Pre-fix this raised: the comparison was an exact `!=`.
        inc, _ = _pair(cfg=self.CFG)
        vm = _vm(0, 1, 2.0, 4.0, mem_ratio=1.5 + CAPACITY_EPSILON / 2)
        assert inc.select(vm, "progress") is not None

    def test_distant_ratio_still_rejected(self):
        inc, _ = _pair(cfg=self.CFG)
        vm = _vm(0, 1, 2.0, 4.0, mem_ratio=2.0)
        with pytest.raises(ConfigError, match="mem ratio"):
            inc.select(vm, "progress")
