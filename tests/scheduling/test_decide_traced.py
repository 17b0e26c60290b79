"""`select` and `decide` must agree — especially on
tie-heavy workloads, where any divergence in tie handling would show up
as a phantom divergence in the audit tool."""

import random

from repro.core import OversubscriptionLevel, SlackVMConfig, VMRequest, VMSpec
from repro.hardware import MachineSpec
from repro.scheduling import (
    ScoreBasedScheduler,
    first_fit_scheduler,
    scheduler_for_policy,
    slackvm_scheduler,
)
from repro.scheduling.weighers import HostWeigher
from repro.simulator import build_hosts

MACHINE = MachineSpec("pm", 16, 64.0)


class TieWeigher(HostWeigher):
    def weigh(self, host, vm, index):
        return 0.0


def tie_heavy_workload(n=25, seed=11):
    """Identical-looking VMs against identical hosts: nearly every
    selection round is an all-hosts score tie."""
    rng = random.Random(seed)
    vms = []
    for i in range(n):
        vms.append(
            VMRequest(
                f"vm-{i:03d}",
                VMSpec(2, 4.0),
                OversubscriptionLevel(rng.choice([1.0, 2.0])),
                arrival=float(i),
            )
        )
    return vms


def _assert_agreement(scheduler, hosts, vm):
    selected = scheduler.select(hosts, vm)
    decided, table = scheduler.decide(hosts, vm)
    assert decided == selected
    # decide()'s eligible set is what select's filters pass.
    eligible = tuple(
        i for i, h in enumerate(hosts) if all(f.passes(h, vm) for f in scheduler.filters)
    )
    assert tuple(h.host for h in table if h.eligible) == eligible


class TestTieHeavyAgreement:
    def test_pure_tie_scheduler(self):
        # Every host scores the same: the worst case for tie handling.
        scheduler = ScoreBasedScheduler(weighers=((TieWeigher(), 1.0),), name="ties")
        hosts = build_hosts(MACHINE, 5)
        for vm in tie_heavy_workload():
            _assert_agreement(scheduler, hosts, vm)
            idx = scheduler.select(hosts, vm)
            _, table = scheduler.decide(hosts, vm)
            # Ties keep the lowest eligible index.
            assert idx == next(h.host for h in table if h.eligible)
            hosts[idx].deploy(vm)

    def test_first_fit_replay(self):
        scheduler = first_fit_scheduler()
        hosts = build_hosts(MACHINE, 4)
        for vm in tie_heavy_workload():
            _assert_agreement(scheduler, hosts, vm)
            idx = scheduler.select(hosts, vm)
            if idx is not None:
                hosts[idx].deploy(vm)

    def test_progress_replay_with_departures(self):
        scheduler = slackvm_scheduler()
        hosts = build_hosts(MACHINE, 4)
        placed = {}
        rng = random.Random(3)
        for vm in tie_heavy_workload(40):
            _assert_agreement(scheduler, hosts, vm)
            idx = scheduler.select(hosts, vm)
            if idx is not None:
                hosts[idx].deploy(vm)
                placed[vm.vm_id] = idx
            if placed and rng.random() < 0.4:
                vm_id, host = placed.popitem()
                hosts[host].remove(vm_id)

    def test_every_policy_on_loaded_cluster(self):
        for policy in ("first_fit", "best_fit", "worst_fit", "progress",
                       "progress_no_factor", "progress_bestfit"):
            scheduler = scheduler_for_policy(policy)
            hosts = build_hosts(MACHINE, 3, SlackVMConfig())
            for vm in tie_heavy_workload(20, seed=hash(policy) % 1000):
                _assert_agreement(scheduler, hosts, vm)
                idx = scheduler.select(hosts, vm)
                if idx is not None:
                    hosts[idx].deploy(vm)

    def test_rejection_agreement(self):
        scheduler = first_fit_scheduler()
        hosts = build_hosts(MachineSpec("tiny", 2, 4.0), 2)
        giant = VMRequest("vm-big", VMSpec(32, 64.0), OversubscriptionLevel(1.0))
        _assert_agreement(scheduler, hosts, giant)
        assert scheduler.select(hosts, giant) is None
        _, table = scheduler.decide(hosts, giant)
        assert all(not h.eligible for h in table)
        # Full verdict table even for rejected hosts.
        assert all("CapacityFilter" in h.filters for h in table)
