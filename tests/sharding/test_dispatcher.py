"""Dispatcher units: plan geometry, guardrails, metrics, merge identity."""

import pytest

from repro.core import OversubscriptionLevel, SlackVMConfig, VMRequest, VMSpec
from repro.core.errors import ConfigError
from repro.hardware import MachineSpec
from repro.obs import names as metric_names
from repro.obs.metrics import MetricsRegistry
from repro.obs.records import MemoryRecorder
from repro.oversub.controller import OversubParams
from repro.oversub.estimators import make_estimator
from repro.sharding import ShardPlan, ShardedSimulation, workload_digest
from repro.simulator import result_stream


def _machines(n: int, cpus: int = 16, mem: float = 64.0):
    return [MachineSpec(f"pm-{i}", cpus, mem) for i in range(n)]


def _workload(n: int, lifetime: float = 20.0):
    vms = []
    for i in range(n):
        vms.append(
            VMRequest(
                vm_id=f"vm-{i:04d}",
                spec=VMSpec(2 + (i % 3), float(4 << (i % 3))),
                level=OversubscriptionLevel(float(1 + i % 3)),
                arrival=float(i),
                departure=float(i) + lifetime if i % 4 else None,
            )
        )
    return vms


class TestShardPlan:
    def test_balanced_contiguous_blocks(self):
        plan = ShardPlan(num_hosts=10, shards=4)
        assert plan.sizes == (3, 3, 2, 2)
        assert plan.offsets == (0, 3, 6, 8)
        assert [plan.block(s) for s in range(4)] == [
            slice(0, 3), slice(3, 6), slice(6, 8), slice(8, 10)
        ]

    def test_geometry_validation(self):
        with pytest.raises(ConfigError, match="shards"):
            ShardPlan(num_hosts=4, shards=0)
        with pytest.raises(ConfigError, match="cannot split"):
            ShardPlan(num_hosts=3, shards=4)
        with pytest.raises(ConfigError, match="unknown router"):
            ShardPlan(num_hosts=4, shards=2, router="nope")
        with pytest.raises(ConfigError, match="unknown policy"):
            ShardPlan(num_hosts=4, shards=2, policy="nope")
        with pytest.raises(ConfigError, match="unknown kernel"):
            ShardPlan(num_hosts=4, shards=2, kernel="nope")
        # A payload is validated like a constructor call, blocks included.
        payload = ShardPlan(num_hosts=10, shards=3).to_dict()
        with pytest.raises(ConfigError, match="shards"):
            ShardPlan.from_dict({**payload, "shards": 0})
        with pytest.raises(ConfigError, match="balanced split"):
            ShardPlan.from_dict({**payload, "sizes": [3, 3, 4]})

    def test_fingerprint_keys_plan_and_trace(self):
        a = ShardPlan(num_hosts=8, shards=2)
        b = ShardPlan(num_hosts=8, shards=4)
        assert a.fingerprint() != b.fingerprint()
        assert a.fingerprint("abc") != a.fingerprint("def")
        assert a.fingerprint("abc") == ShardPlan(8, 2).fingerprint("abc")


def test_workload_digest_is_order_insensitive():
    wl = _workload(12)
    assert workload_digest(wl) == workload_digest(list(reversed(wl)))
    assert workload_digest(wl) != workload_digest(wl[:-1])


class TestGuardrails:
    def test_global_features_require_one_shard(self):
        machines = _machines(4)
        with pytest.raises(ConfigError, match="fail_fast"):
            ShardedSimulation(machines, shards=2, fail_fast=True)
        with pytest.raises(ConfigError, match="oversubscription"):
            ShardedSimulation(
                machines,
                shards=2,
                oversub=OversubParams(estimator=make_estimator("percentile")),
            )
        with pytest.raises(ConfigError, match="decision recording"):
            ShardedSimulation(machines, shards=2, recorder=MemoryRecorder())

    def test_geometry_validated_eagerly(self):
        with pytest.raises(ConfigError, match="cannot split"):
            ShardedSimulation(_machines(2), shards=3)


def test_pool_and_inline_execution_are_byte_identical():
    # Worker scheduling must be invisible: a process pool and the
    # serial in-process path produce the same merged stream.
    machines = _machines(8)
    wl = _workload(60)
    pooled = ShardedSimulation(machines, shards=4, workers=4).run(wl)
    inline = ShardedSimulation(machines, shards=4, workers=1).run(wl)
    assert result_stream(pooled) == result_stream(inline)


@pytest.mark.parametrize("router", ["hash", "score"])
def test_runs_are_seed_reproducible(router):
    machines = _machines(6)
    wl = _workload(40)
    one = ShardedSimulation(machines, shards=3, router=router, workers=1).run(wl)
    two = ShardedSimulation(machines, shards=3, router=router, workers=1).run(wl)
    assert result_stream(one) == result_stream(two)


def test_merged_result_respects_shard_blocks():
    machines = _machines(8)
    wl = _workload(60)
    sim = ShardedSimulation(machines, shards=4, workers=1)
    result = sim.run(wl)
    # Every placement's global host index lies inside the block of the
    # shard that owns the VM.
    events, event_shards, sub = sim._route(wl)
    owner = {}
    for vms, shard in ((vms, s) for s, vms in enumerate(sub)):
        for vm in vms:
            owner[vm.vm_id] = shard
    for vm_id, rec in result.placements.items():
        block = sim.plan.block(owner[vm_id])
        assert block.start <= rec.host < block.stop
    # Accounting closes: every arrival is placed or rejected.
    assert len(result.placements) + len(result.rejections) == len(wl)
    assert result.num_hosts == 8


def test_same_timestamp_departure_and_arrival_merge_cleanly():
    # lifetime=4 makes vm-0001's departure (5.0) collide with
    # vm-0005's arrival (5.0).  Departures sort before arrivals at
    # equal timestamps; the merge must keep every shard cursor aligned
    # through the collision.
    machines = _machines(4)
    wl = _workload(20, lifetime=4.0)
    result = ShardedSimulation(machines, shards=2, workers=1).run(wl)
    assert len(result.placements) + len(result.rejections) == len(wl)


def test_shard_metrics_are_emitted():
    metrics = MetricsRegistry()
    machines = _machines(6)
    wl = _workload(40)
    sim = ShardedSimulation(machines, shards=3, workers=1, metrics=metrics)
    sim.run(wl)
    snapshot = metrics.to_dict()
    assert snapshot[metric_names.SHARD_COUNT]["value"] == 3
    assert snapshot[metric_names.SHARD_ROUTED]["value"] == len(wl)
    assert snapshot[metric_names.SHARD_QUEUE_DEPTH]["count"] == 3
    assert snapshot[metric_names.SHARD_IMBALANCE]["value"] >= 1.0
    assert snapshot[metric_names.SHARD_WALL_S]["count"] == 3
    assert snapshot[metric_names.SHARD_MERGE_S]["count"] == 1
    assert sim.shard_walls and len(sim.shard_walls) == 3


def test_resumed_shards_report_no_wall_of_this_run(tmp_path):
    # The checkpoint keeps no wall-clock telemetry, and a resume does not
    # pass another process's shard walls off as its own.
    out = tmp_path / "shards.jsonl"
    machines, wl = _machines(6), _workload(40)
    ShardedSimulation(machines, shards=3, workers=1, checkpoint=str(out)).run(wl)
    assert "wall_s" not in out.read_text(encoding="utf-8")
    metrics = MetricsRegistry()
    sim = ShardedSimulation(
        machines, shards=3, workers=1, metrics=metrics,
        checkpoint=str(out), resume=True,
    )
    sim.run(wl)
    assert metrics.timer(metric_names.SHARD_WALL_S).count == 0
    assert sim.shard_walls == (0.0,) * 3


def test_single_shard_emits_count_gauge_only():
    metrics = MetricsRegistry()
    sim = ShardedSimulation(_machines(3), shards=1, metrics=metrics)
    sim.run(_workload(10))
    assert metrics.to_dict()[metric_names.SHARD_COUNT]["value"] == 1
    assert sim.shard_walls == ()


def test_custom_config_reaches_the_workers():
    # Pooling off must survive the payload round-trip into the shard
    # workers: no pooled placements can come back.
    machines = _machines(4)
    wl = _workload(40)
    result = ShardedSimulation(
        machines, SlackVMConfig(pooling=False), shards=2, workers=1
    ).run(wl)
    assert result.pooled_placements == 0
