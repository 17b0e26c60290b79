"""Tests of the event queue ordering and same-timestamp batching."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core import LEVEL_1_1, SimulationError, VMRequest, VMSpec
from repro.hardware import MachineSpec
from repro.scheduling.baselines import scheduler_for_policy
from repro.sharding import ShardedSimulation
from repro.simulator import (
    EventKind,
    EventQueue,
    Simulation,
    VectorSimulation,
    build_hosts,
    workload_events,
)
from repro.simulator.events import iter_event_batches, workload_event_list


def vm(vm_id, arrival=0.0, departure=None):
    return VMRequest(
        vm_id=vm_id, spec=VMSpec(1, 1.0), level=LEVEL_1_1,
        arrival=arrival, departure=departure,
    )


def test_events_fire_in_time_order():
    q = workload_events([vm("a", 5.0), vm("b", 1.0), vm("c", 3.0)])
    assert [e.vm.vm_id for e in q.drain()] == ["b", "c", "a"]


def test_departures_fire_before_arrivals_at_equal_time():
    q = workload_events([vm("incoming", 2.0), vm("leaving", 0.0, 2.0)])
    kinds = [e.kind for e in q.drain() if e.time == 2.0]
    assert kinds == [EventKind.DEPARTURE, EventKind.ARRIVAL]


def test_arrival_numbering_breaks_remaining_ties():
    # Equal-time arrivals are numbered in ``vm_id`` order, whatever
    # order the trace lists them in.
    q = workload_events([vm("second", 1.0), vm("first", 1.0)])
    assert [e.vm.vm_id for e in q.drain()] == ["first", "second"]


def test_workload_events_includes_finite_departures_only():
    trace = [vm("a", 0.0, 10.0), vm("b", 5.0, None)]
    q = workload_events(trace)
    events = list(q.drain())
    assert len(events) == 3
    kinds = [(e.time, e.kind) for e in events]
    assert kinds == [
        (0.0, EventKind.ARRIVAL),
        (5.0, EventKind.ARRIVAL),
        (10.0, EventKind.DEPARTURE),
    ]


def test_queue_drains_exactly_the_event_list_and_keeps_numbering():
    trace = [vm(f"vm-{i}", float(i % 3), float(i % 3) + 2.0) for i in range(12)]
    events = workload_event_list(trace)
    assert list(workload_events(trace).drain()) == events


@pytest.mark.parametrize(
    "second",
    [vm("dup", 1.0, 3.0), vm("dup", 7.0, None)],
    ids=["while-alive", "after-departure"],
)
def test_duplicate_vm_id_is_refused_by_every_engine(second):
    trace = [vm("dup", 0.0, 5.0), vm("other", 0.0, None), second]
    machine = MachineSpec("pm", 8, 32.0)
    engines = [
        Simulation(build_hosts(machine, 2), scheduler_for_policy("first_fit")),
        VectorSimulation([machine] * 2),
        ShardedSimulation([machine] * 2, shards=2, workers=1),
    ]
    for engine in engines:
        with pytest.raises(SimulationError, match="duplicate vm_id 'dup'"):
            engine.run(trace)


def test_queue_len_and_bool():
    assert not EventQueue()
    q = workload_events([vm("a")])
    assert q and len(q) == 1
    q.pop()
    assert not q


def test_batches_split_departures_from_arrivals_per_timestamp():
    trace = [
        vm("a", 0.0, 2.0),
        vm("b", 0.0, 5.0),
        vm("c", 2.0, None),  # arrives exactly when "a" departs
    ]
    batches = list(iter_event_batches(workload_event_list(trace)))
    assert [(len(d), len(a)) for d, a in batches] == [(0, 2), (1, 1), (1, 0)]
    deps, arrs = batches[1]
    assert deps[0].vm.vm_id == "a" and deps[0].kind is EventKind.DEPARTURE
    assert arrs[0].vm.vm_id == "c" and arrs[0].kind is EventKind.ARRIVAL


def test_batch_concatenation_reproduces_the_event_list():
    trace = [vm(f"vm-{i}", float(i % 3), float(i % 3) + 2.0) for i in range(12)]
    events = workload_event_list(trace)
    flattened = [
        e for deps, arrs in iter_event_batches(events) for e in (*deps, *arrs)
    ]
    assert flattened == events


@given(
    arrivals=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5),  # arrival tick
            st.integers(min_value=0, max_value=5),  # lifetime ticks (0: forever)
        ),
        max_size=25,
    )
)
@settings(max_examples=100, deadline=None)
def test_batches_partition_any_trace_without_reordering(arrivals):
    trace = [
        vm(
            f"vm-{i:02d}",
            float(t),
            None if life == 0 else float(t + life),
        )
        for i, (t, life) in enumerate(arrivals)
    ]
    events = workload_event_list(trace)
    batches = list(iter_event_batches(events))
    # Lossless partition, in order.
    flattened = [e for d, a in batches for e in (*d, *a)]
    assert flattened == events
    # Each batch holds exactly one timestamp, kinds fully split.
    for deps, arrs in batches:
        assert deps or arrs
        times = {e.time for e in (*deps, *arrs)}
        assert len(times) == 1
        assert all(e.kind is EventKind.DEPARTURE for e in deps)
        assert all(e.kind is EventKind.ARRIVAL for e in arrs)
    # Batches are strictly time-ordered.
    batch_times = [(d or a)[0].time for d, a in batches]
    assert batch_times == sorted(set(batch_times))
