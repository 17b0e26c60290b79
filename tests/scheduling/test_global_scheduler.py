"""Tests of the filter + weigh selection pipeline."""

import pytest

from repro.core import (
    LEVEL_1_1,
    LEVEL_2_1,
    LEVEL_3_1,
    SlackVMConfig,
    VMRequest,
    VMSpec,
)
from repro.hardware import MachineSpec
from repro.localsched import LocalScheduler
from repro.scheduling import (
    CapacityFilter,
    FirstFitWeigher,
    LevelSupportFilter,
    ScoreBasedScheduler,
    best_fit_scheduler,
    first_fit_scheduler,
    slackvm_scheduler,
    worst_fit_scheduler,
)


def vm(vm_id="vm", vcpus=2, mem=4.0, level=LEVEL_2_1):
    return VMRequest(vm_id=vm_id, spec=VMSpec(vcpus, mem), level=level)


def hosts(n=3, cpus=8, mem=32.0, config=None):
    cfg = config or SlackVMConfig()
    return [
        LocalScheduler(MachineSpec(f"pm-{i}", cpus, mem), cfg) for i in range(n)
    ]


class TestFilters:
    def test_capacity_filter(self):
        cluster = hosts(1, cpus=2, mem=4.0)
        assert CapacityFilter().passes(cluster[0], vm(vcpus=2, mem=4.0))
        assert not CapacityFilter().passes(cluster[0], vm(vcpus=2, mem=8.0))

    def test_level_support_filter(self):
        premium_only = hosts(1, config=SlackVMConfig(levels=(LEVEL_1_1,)))[0]
        assert LevelSupportFilter().passes(premium_only, vm(level=LEVEL_1_1))
        assert not LevelSupportFilter().passes(premium_only, vm(level=LEVEL_3_1))


class TestSelection:
    def test_first_fit_picks_first_feasible(self):
        cluster = hosts(3)
        cluster[0].deploy(vm(vm_id="filler", vcpus=8, mem=8.0, level=LEVEL_1_1))
        sched = first_fit_scheduler()
        assert sched.select(cluster, vm(vm_id="x", vcpus=4, level=LEVEL_1_1)) == 1

    def test_no_feasible_host_returns_none(self):
        cluster = hosts(2, cpus=2, mem=4.0)
        sched = first_fit_scheduler()
        assert sched.select(cluster, vm(vcpus=16, mem=64.0)) is None

    def test_ties_break_to_lowest_index(self):
        cluster = hosts(3)
        sched = ScoreBasedScheduler(weighers=())
        # All scores are 0: first host wins.
        assert sched.select(cluster, vm()) == 0

    def test_progress_scheduler_prefers_counterbalancing_host(self):
        cluster = hosts(2, cpus=32, mem=128.0)
        # Host 0 CPU-heavy, host 1 memory-heavy.
        cluster[0].deploy(vm(vm_id="c", vcpus=16, mem=16.0, level=LEVEL_1_1))
        cluster[1].deploy(vm(vm_id="m", vcpus=4, mem=64.0, level=LEVEL_1_1))
        memory_heavy = vm(vm_id="x", vcpus=2, mem=32.0, level=LEVEL_1_1)
        assert slackvm_scheduler().select(cluster, memory_heavy) == 0

    def test_best_fit_picks_fullest(self):
        cluster = hosts(2)
        cluster[0].deploy(vm(vm_id="a", vcpus=4, mem=4.0, level=LEVEL_1_1))
        assert best_fit_scheduler().select(cluster, vm(vm_id="x")) == 0

    def test_worst_fit_picks_emptiest(self):
        cluster = hosts(2)
        cluster[0].deploy(vm(vm_id="a", vcpus=4, mem=4.0, level=LEVEL_1_1))
        assert worst_fit_scheduler().select(cluster, vm(vm_id="x")) == 1

    def test_weigher_weights_combine(self):
        cluster = hosts(2)
        cluster[0].deploy(vm(vm_id="a", vcpus=4, mem=4.0, level=LEVEL_1_1))
        # Heavy first-fit weight dominates best-fit.
        sched = ScoreBasedScheduler(
            weighers=((FirstFitWeigher(), 1e6),)
        )
        assert sched.select(cluster, vm(vm_id="x")) == 0


class TestTrace:
    def test_traced_selection_reports_candidates_and_scores(self):
        cluster = hosts(3, cpus=2, mem=4.0)
        cluster[0].deploy(vm(vm_id="full", vcpus=2, mem=4.0, level=LEVEL_1_1))
        selected, table = first_fit_scheduler().decide(cluster, vm(vm_id="x", vcpus=2, mem=4.0))
        assert tuple(h.host for h in table if h.eligible) == (1, 2)
        assert selected == 1
        assert all(h.score is not None for h in table if h.eligible)

    def test_traced_selection_with_no_candidates(self):
        cluster = hosts(1, cpus=1, mem=1.0)
        selected, table = first_fit_scheduler().decide(cluster, vm(vcpus=8, mem=9.0))
        assert selected is None
        assert not any(h.eligible for h in table)

    def test_traced_agrees_with_select(self):
        cluster = hosts(4)
        cluster[1].deploy(vm(vm_id="a", vcpus=4, mem=8.0, level=LEVEL_1_1))
        for sched in (first_fit_scheduler(), best_fit_scheduler(), slackvm_scheduler()):
            probe = vm(vm_id="probe")
            assert sched.select(cluster, probe) == sched.decide(cluster, probe)[0]
