"""Property tests for the sharding layer (hypothesis).

The two properties ISSUE 8's determinism contract rests on:

* routing is a pure function of ``(seed, plan, workload)`` — repeated
  runs agree, and the assignment never depends on list order beyond
  the canonical event sort;
* the merged result is invariant to worker scheduling — harvesting
  shard results in *any* order produces the same stream, because the
  merge is keyed by shard index, not completion order.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core import OversubscriptionLevel, VMRequest, VMSpec
from repro.hardware import MachineSpec
from repro.sharding import ShardedSimulation
from repro.sharding.dispatcher import _run_shard
from repro.sharding.merge import merge_shard_results
from repro.simulator import result_stream

pytestmark = pytest.mark.slow

NUM_HOSTS = 8


@st.composite
def workload(draw):
    n = draw(st.integers(min_value=1, max_value=25))
    vms = []
    for i in range(n):
        arrival = draw(st.floats(min_value=0.0, max_value=40.0))
        departs = draw(st.booleans())
        vms.append(
            VMRequest(
                vm_id=f"vm-{i:03d}",
                spec=VMSpec(
                    draw(st.sampled_from([1, 2, 4])),
                    float(draw(st.sampled_from([2, 4, 8]))),
                ),
                level=OversubscriptionLevel(draw(st.sampled_from([1.0, 2.0, 3.0]))),
                arrival=arrival,
                departure=arrival + draw(st.floats(min_value=0.5, max_value=30.0))
                if departs
                else None,
            )
        )
    return vms


def _sim(wl_unused, shards, router, seed, workers=1):
    machines = [MachineSpec(f"pm-{i}", 16, 64.0) for i in range(NUM_HOSTS)]
    return ShardedSimulation(
        machines, shards=shards, router=router, seed=seed, workers=workers
    )


@settings(max_examples=40, deadline=None)
@given(
    wl=workload(),
    shards=st.sampled_from([2, 3, 4]),
    router=st.sampled_from(["hash", "score"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_routing_is_deterministic_in_the_seed(wl, shards, router, seed):
    one = _sim(wl, shards, router, seed)
    two = _sim(wl, shards, router, seed)
    ev1, shards1, sub1 = one._route(list(wl))
    ev2, shards2, sub2 = two._route(list(wl))
    assert shards1 == shards2
    assert [[vm.vm_id for vm in s] for s in sub1] == [
        [vm.vm_id for vm in s] for s in sub2
    ]
    # ...and the full runs agree byte-for-byte.
    assert result_stream(one.run(list(wl))) == result_stream(two.run(list(wl)))


@settings(max_examples=25, deadline=None)
@given(
    wl=workload(),
    shards=st.sampled_from([2, 4]),
    router=st.sampled_from(["hash", "score"]),
    order_seed=st.randoms(use_true_random=False),
)
def test_merge_is_invariant_to_worker_completion_order(
    wl, shards, router, order_seed
):
    # Execute every shard payload by hand in a shuffled order — a
    # stand-in for arbitrary pool completion order — and merge.  The
    # stream must match the dispatcher's own serial run.
    sim = _sim(wl, shards, router, seed=7)
    reference = result_stream(sim.run(list(wl)))

    events, event_shards, sub = sim._route(list(wl))
    from repro.runner import derive_seeds
    from repro.sharding.dispatcher import _config_payload
    from repro.workload.traces import vm_to_dict

    seeds = derive_seeds(sim.seed, shards)
    payloads = [
        {
            "shard": s,
            "seed": seeds[s],
            "policy": sim.policy,
            "kernel": sim.kernel,
            "config": _config_payload(sim.config),
            "machines": [
                [m.name, m.cpus, m.mem_gb]
                for m in sim.machines[sim.plan.block(s)]
            ],
            "workload": [vm_to_dict(vm) for vm in sub[s]],
        }
        for s in range(shards)
    ]
    order = list(range(shards))
    order_seed.shuffle(order)
    harvested: dict[int, dict] = {}
    for s in order:
        harvested[s] = _run_shard(payloads[s])
        assert harvested[s]["ok"]
    merged = merge_shard_results(
        sim.plan, events, event_shards, [harvested[s] for s in range(shards)]
    )
    assert result_stream(merged) == reference


@settings(max_examples=40, deadline=None)
@given(
    wl=workload(),
    shards=st.sampled_from([1, 2, 3, 4]),
    router=st.sampled_from(["hash", "score"]),
)
def test_accounting_closes_for_any_shard_count(wl, shards, router):
    result = _sim(wl, shards, router, seed=3).run(list(wl))
    assert len(result.placements) + len(result.rejections) == len(wl)
    assert result.num_hosts == NUM_HOSTS
    # One timeline sample per event, exactly.
    n_events = len(wl) + sum(1 for vm in wl if vm.departure is not None)
    assert len(result.timeline.times) == n_events
