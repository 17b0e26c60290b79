"""Control-plane service tests."""

import pytest

from repro.controlplane import CloudController, VMState
from repro.core import (
    CapacityError,
    ConfigError,
    LEVEL_1_1,
    LEVEL_2_1,
    LEVEL_3_1,
    OversubscriptionLevel,
    SlackVMConfig,
    VMSpec,
)
from repro.hardware import MachineSpec


def controller(n=2, cpus=8, mem=32.0, **kw):
    return CloudController(
        [MachineSpec(f"pm-{i}", cpus, mem) for i in range(n)], **kw
    )


class TestLifecycle:
    def test_request_places_vm(self):
        c = controller()
        ticket = c.request(VMSpec(2, 4.0), LEVEL_2_1)
        assert ticket.state is VMState.ACTIVE
        assert ticket.host in (0, 1)
        assert c.state().active_vms == 1

    def test_ids_are_unique_and_sequential(self):
        c = controller()
        a = c.request(VMSpec(1, 1.0), LEVEL_1_1)
        b = c.request(VMSpec(1, 1.0), LEVEL_1_1)
        assert a.vm_id != b.vm_id

    def test_delete_frees_capacity(self):
        c = controller(n=1, cpus=4)
        t = c.request(VMSpec(4, 4.0), LEVEL_1_1)
        c.delete(t.vm_id)
        assert c.state().active_vms == 0
        t2 = c.request(VMSpec(4, 4.0), LEVEL_1_1)
        assert t2.state is VMState.ACTIVE

    def test_double_delete_rejected(self):
        c = controller()
        t = c.request(VMSpec(1, 1.0), LEVEL_1_1)
        c.delete(t.vm_id)
        with pytest.raises(CapacityError):
            c.delete(t.vm_id)

    def test_unknown_vm_rejected(self):
        with pytest.raises(CapacityError):
            controller().delete("ghost")
        with pytest.raises(CapacityError):
            controller().ticket("ghost")

    def test_unoffered_level_rejected(self):
        c = controller(config=SlackVMConfig(levels=(LEVEL_1_1,)))
        with pytest.raises(ConfigError):
            c.request(VMSpec(1, 1.0), LEVEL_3_1)


class TestPendingQueue:
    def test_overflow_goes_pending(self):
        c = controller(n=1, cpus=4)
        c.request(VMSpec(4, 4.0), LEVEL_1_1)
        waiting = c.request(VMSpec(2, 2.0), LEVEL_1_1)
        assert waiting.state is VMState.PENDING
        assert c.state().pending_vms == 1

    def test_delete_drains_pending_fifo(self):
        c = controller(n=1, cpus=4)
        first = c.request(VMSpec(4, 4.0), LEVEL_1_1)
        queued = c.request(VMSpec(4, 4.0), LEVEL_1_1)
        c.delete(first.vm_id)
        assert c.ticket(queued.vm_id).state is VMState.ACTIVE
        assert c.state().pending_vms == 0

    def test_smaller_request_can_overtake_blocked_head(self):
        c = controller(n=1, cpus=4)
        filler = c.request(VMSpec(3, 3.0), LEVEL_1_1)
        big = c.request(VMSpec(4, 4.0), LEVEL_1_1)  # blocked
        small = c.request(VMSpec(2, 2.0), LEVEL_1_1)  # also queued
        c.delete(filler.vm_id)
        # 4 CPUs free: big (head) takes them; small stays queued.
        assert c.ticket(big.vm_id).state is VMState.ACTIVE
        assert c.ticket(small.vm_id).state is VMState.PENDING

    def test_pending_vm_can_be_cancelled(self):
        c = controller(n=1, cpus=2)
        c.request(VMSpec(2, 2.0), LEVEL_1_1)
        queued = c.request(VMSpec(2, 2.0), LEVEL_1_1)
        c.delete(queued.vm_id)
        assert c.state().pending_vms == 0

    def test_drain_is_fifo_fair_across_multiple_deletes(self):
        # Regression for the serving layer's fairness contract: with
        # equally-sized waiters, repeated deletes must promote them in
        # strict arrival order — no later request may jump the queue.
        c = controller(n=1, cpus=4)
        active = [c.request(VMSpec(2, 2.0), LEVEL_1_1) for _ in range(2)]
        waiters = [c.request(VMSpec(2, 2.0), LEVEL_1_1) for _ in range(4)]
        assert all(w.state is VMState.PENDING for w in waiters)
        for i, victim in enumerate(active):
            c.delete(victim.vm_id)
            promoted = [w for w in waiters
                        if c.ticket(w.vm_id).state is VMState.ACTIVE]
            assert promoted == waiters[: i + 1]
        assert c.state().pending_vms == 2

    def test_queue_cap(self):
        c = controller(n=1, cpus=1, max_pending=1)
        c.request(VMSpec(1, 1.0), LEVEL_1_1)
        c.request(VMSpec(1, 1.0), LEVEL_1_1)  # queued
        with pytest.raises(CapacityError):
            c.request(VMSpec(1, 1.0), LEVEL_1_1)


class TestInspection:
    def test_cluster_state_shares(self):
        c = controller(n=2, cpus=8, mem=32.0)
        c.request(VMSpec(4, 16.0), LEVEL_1_1)
        state = c.state()
        assert state.cpu_allocation_share == pytest.approx(4 / 16)
        assert state.mem_allocation_share == pytest.approx(16 / 64)

    def test_describe_host(self):
        c = controller()
        t = c.request(VMSpec(2, 4.0), LEVEL_2_1)
        snap = c.describe_host(t.host)
        assert snap["num_vms"] == 1

    def test_audit_log_records_decisions(self):
        c = controller(n=1, cpus=4)
        t = c.request(VMSpec(4, 4.0), LEVEL_1_1)
        c.request(VMSpec(2, 2.0), LEVEL_1_1)  # queued
        c.delete(t.vm_id)
        actions = [a for a, _, _ in c.audit_log]
        assert actions == ["place", "queue", "delete", "place"]

    def test_list_vms_filter(self):
        c = controller(n=1, cpus=4)
        c.request(VMSpec(4, 4.0), LEVEL_1_1)
        c.request(VMSpec(4, 4.0), LEVEL_1_1)
        assert len(c.list_vms(VMState.ACTIVE)) == 1
        assert len(c.list_vms(VMState.PENDING)) == 1
        assert len(c.list_vms()) == 2


class TestPoolingThroughService:
    def test_pooled_placement_reported(self):
        c = controller(n=1, cpus=8, mem=32.0,
                       config=SlackVMConfig(pooling=True))
        c.request(VMSpec(6, 4.0), LEVEL_1_1)
        c.request(VMSpec(3, 4.0), LEVEL_2_1)
        t = c.request(VMSpec(1, 2.0), LEVEL_3_1)
        assert t.state is VMState.ACTIVE
        assert t.pooled

    def test_describe_host_lists_pooled_vm_under_its_hosting_vnode(self):
        c = controller(n=1, cpus=8, mem=32.0,
                       config=SlackVMConfig(pooling=True))
        a = c.request(VMSpec(6, 4.0), LEVEL_1_1)
        b = c.request(VMSpec(3, 4.0), LEVEL_2_1)
        t = c.request(VMSpec(1, 2.0), LEVEL_3_1)  # no free core: pooled on 2:1
        snap = c.describe_host(0)
        assert snap["allocated_cpus"] == 8
        assert snap["num_vms"] == 3
        assert snap["vnodes"] == [
            {"level": "1:1", "cpus": 6, "vcpus": 6, "capacity_vcpus": 6.0,
             "vms": [a.vm_id]},
            {"level": "2:1", "cpus": 2, "vcpus": 4, "capacity_vcpus": 4.0,
             "vms": [b.vm_id, t.vm_id]},
        ]
