"""One service shard: placement, the capacity-pending FIFO and its audit log."""

import pytest

from repro.core import (
    CapacityError,
    LEVEL_1_1,
    LEVEL_2_1,
    LEVEL_3_1,
    SlackVMConfig,
    VMSpec,
)
from repro.hardware import MachineSpec
from repro.serving.service import _Shard


def shard(n=2, cpus=8, mem=32.0, config=None, max_pending=1000):
    return _Shard(
        [MachineSpec(f"pm-{i}", cpus, mem) for i in range(n)],
        config or SlackVMConfig(), "progress", max_pending,
    )


class TestLifecycle:
    def test_request_places_vm(self):
        s = shard()
        vm_id, host, pooled = s.request(VMSpec(2, 4.0), LEVEL_2_1)
        assert host in (0, 1)
        assert not pooled
        assert s.active == {vm_id: host}
        assert s.pending == {}

    def test_ids_are_unique_and_sequential(self):
        s = shard()
        ids = [s.request(VMSpec(1, 1.0), LEVEL_1_1)[0] for _ in range(3)]
        assert ids == ["vm-000000", "vm-000001", "vm-000002"]

    def test_delete_frees_capacity(self):
        s = shard(n=1, cpus=4)
        vm_id, _, _ = s.request(VMSpec(4, 4.0), LEVEL_1_1)
        s.delete(vm_id)
        assert s.active == {}
        assert s.request(VMSpec(4, 4.0), LEVEL_1_1)[1] == 0


class TestPendingQueue:
    def test_overflow_goes_pending(self):
        s = shard(n=1, cpus=4)
        s.request(VMSpec(4, 4.0), LEVEL_1_1)
        vm_id, host, pooled = s.request(VMSpec(2, 2.0), LEVEL_1_1)
        assert (host, pooled) == (None, False)
        assert list(s.pending) == [vm_id]

    def test_delete_drains_pending_fifo(self):
        s = shard(n=1, cpus=4)
        first, _, _ = s.request(VMSpec(4, 4.0), LEVEL_1_1)
        queued, _, _ = s.request(VMSpec(4, 4.0), LEVEL_1_1)
        s.delete(first)
        assert s.active == {queued: 0}
        assert s.pending == {}

    def test_smaller_request_can_overtake_blocked_head(self):
        s = shard(n=1, cpus=4)
        a, _, _ = s.request(VMSpec(2, 2.0), LEVEL_1_1)
        b, _, _ = s.request(VMSpec(2, 2.0), LEVEL_1_1)
        big, _, _ = s.request(VMSpec(4, 4.0), LEVEL_1_1)  # queued head
        small, _, _ = s.request(VMSpec(2, 2.0), LEVEL_1_1)  # queued behind it
        s.delete(a)
        # 2 CPUs free: the head still does not fit, the smaller one does.
        assert list(s.pending) == [big]
        assert small in s.active
        s.delete(b)
        s.delete(small)
        # 4 CPUs free: the head goes first.
        assert list(s.active) == [big]

    def test_pending_vm_can_be_cancelled(self):
        s = shard(n=1, cpus=2)
        s.request(VMSpec(2, 2.0), LEVEL_1_1)
        queued, _, _ = s.request(VMSpec(2, 2.0), LEVEL_1_1)
        s.delete(queued)
        assert s.pending == {}
        assert s.audit_log[-1] == ("delete", queued, "")

    def test_drain_is_fifo_fair_across_multiple_deletes(self):
        # The serving layer's fairness contract: with equally-sized
        # waiters, repeated deletes must promote them in strict arrival
        # order — no later request may jump the queue.
        s = shard(n=1, cpus=4)
        active = [s.request(VMSpec(2, 2.0), LEVEL_1_1)[0] for _ in range(2)]
        waiters = [s.request(VMSpec(2, 2.0), LEVEL_1_1)[0] for _ in range(4)]
        assert list(s.pending) == waiters
        for i, victim in enumerate(active):
            s.delete(victim)
            assert [w for w in waiters if w in s.active] == waiters[: i + 1]
        assert list(s.pending) == waiters[2:]

    def test_queue_cap(self):
        s = shard(n=1, cpus=1, max_pending=1)
        s.request(VMSpec(1, 1.0), LEVEL_1_1)
        s.request(VMSpec(1, 1.0), LEVEL_1_1)  # queued
        with pytest.raises(CapacityError, match="pending queue full"):
            s.request(VMSpec(1, 1.0), LEVEL_1_1)
        assert list(s.pending) == ["vm-000001"]
        s.delete("vm-000000")  # promotes vm-000001, so the FIFO has room
        # The refused request spent its id.
        assert s.request(VMSpec(1, 1.0), LEVEL_1_1)[0] == "vm-000003"


class TestInspection:
    def test_audit_log_records_decisions(self):
        s = shard(n=1, cpus=4)
        vm_id, _, _ = s.request(VMSpec(4, 4.0), LEVEL_1_1)
        s.request(VMSpec(2, 2.0), LEVEL_1_1)  # queued
        s.delete(vm_id)
        assert s.audit_log == [
            ("place", "vm-000000", "host 0 vNode 1:1"),
            ("queue", "vm-000001", "no host fits; queued"),
            ("delete", "vm-000000", ""),
            ("place", "vm-000001", "host 0 vNode 1:1"),
        ]


class TestPoolingThroughService:
    def test_pooled_placement_reported(self):
        s = shard(n=1, cpus=8, mem=32.0, config=SlackVMConfig(pooling=True))
        s.request(VMSpec(6, 4.0), LEVEL_1_1)
        s.request(VMSpec(3, 4.0), LEVEL_2_1)
        # No free core is left for a 3:1 vNode: pooled on the 2:1 one.
        vm_id, host, pooled = s.request(VMSpec(1, 2.0), LEVEL_3_1)
        assert (host, pooled) == (0, True)
        assert s.audit_log[-1] == ("place", vm_id, "host 0 vNode 2:1 (pooled)")
