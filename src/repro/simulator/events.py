"""Discrete-event machinery for the cloud simulation.

A minimal, deterministic event queue: events fire in timestamp order;
at equal timestamps departures fire before arrivals (so a leaving VM's
resources are reusable immediately, matching CloudSimPlus semantics),
and the events' numbering breaks remaining ties.
"""

from __future__ import annotations

import heapq
from enum import IntEnum
from typing import Iterator, NamedTuple

from repro.core.errors import SimulationError
from repro.core.types import VMRequest

__all__ = [
    "EventKind",
    "Event",
    "EventQueue",
    "workload_events",
    "workload_event_list",
    "iter_event_batches",
]


class EventKind(IntEnum):
    """Priority doubles as the equal-timestamp ordering."""

    DEPARTURE = 0
    ARRIVAL = 1


class Event(NamedTuple):
    """One arrival or departure.

    Events order as plain tuples: by ``time``, then ``kind``
    (departures first), then ``seq``.  Every producer numbers ``seq``
    uniquely, so a comparison is decided by ``(time, kind, seq)`` and
    never reaches ``vm``.
    """

    time: float
    kind: EventKind
    seq: int
    vm: VMRequest


class EventQueue:
    """A heap-backed event queue with deterministic ordering."""

    def __init__(self) -> None:
        self._heap: list[Event] = []

    def pop(self) -> Event:
        return heapq.heappop(self._heap)

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def drain(self) -> Iterator[Event]:
        while self._heap:
            yield heapq.heappop(self._heap)


def workload_events(workload: list[VMRequest]) -> EventQueue:
    """Queue every arrival and (finite) departure of a trace.

    The queue holds :func:`workload_event_list` — a list sorted by the
    total order ``(time, kind, seq)`` already satisfies the heap
    invariant — so ``drain()`` yields exactly that list.
    """
    q = EventQueue()
    q._heap = workload_event_list(workload)
    return q


def workload_event_list(workload: list[VMRequest]) -> list[Event]:
    """Every event of a trace as a time-ordered list.

    The one place a trace becomes events: arrivals are numbered in
    ``(arrival, vm_id)`` order, each finite departure takes the next
    ``seq``, and the list is sorted by ``(time, kind, seq)``.  A trace
    that uses a ``vm_id`` twice is refused — the engines key placements
    and live VMs by id, so a reused id would be mis-accounted.
    """
    events: list[Event] = []
    seen: set[str] = set()
    seq = 0
    for vm in sorted(workload, key=lambda v: (v.arrival, v.vm_id)):
        if vm.vm_id in seen:
            raise SimulationError(f"duplicate vm_id {vm.vm_id!r} in the workload")
        seen.add(vm.vm_id)
        events.append(Event(vm.arrival, EventKind.ARRIVAL, seq, vm))
        seq += 1
        if vm.departure is not None:
            events.append(Event(vm.departure, EventKind.DEPARTURE, seq, vm))
            seq += 1
    events.sort()
    return events


def iter_event_batches(
    events: list[Event],
) -> Iterator[tuple[list[Event], list[Event]]]:
    """Group a time-ordered event list into same-timestamp batches.

    Yields ``(departures, arrivals)`` per distinct timestamp, in
    timestamp order.  Concatenating every batch reproduces ``events``
    exactly: within a timestamp the total order ``(time, kind, seq)``
    already places all departures (kind 0) before all arrivals (kind 1),
    so the split is a cut, not a reorder.  Timestamps are grouped by
    exact float equality — the same comparison the event ordering uses,
    so "same batch" and "tied in the queue" are the same predicate.

    :func:`repro.simulator.engine.run_events` is the one consumer.
    """
    n = len(events)
    i = 0
    while i < n:
        t = events[i].time
        j = i
        while j < n and events[j].time == t:
            j += 1
        k = i
        while k < j and events[k].kind == EventKind.DEPARTURE:
            k += 1
        yield events[i:k], events[k:j]
        i = j
