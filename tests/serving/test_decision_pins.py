"""Bit-level pins of ``serve()``'s decisions under every policy.

Each pin records, for one :class:`~repro.serving.ServiceSpec`, the full
``report.fingerprint`` (sha256 over the decision log and every shard's
audit log), ``report.counts``, ``report.cluster`` and two tallies read
off the audit logs: placements that used §V-B pooling and pending
tickets later promoted to ACTIVE.  Three small specs run under each of
the six placement policies:

* ``pooled`` — a 4-host fleet under a 3:1-heavy mix: pooled placements
  and pending→active promotions;
* ``pressure`` — 2 hosts, a 6-deep admission queue, a 3-deep pending
  queue and slow decisions: rejects and timeouts at both stages;
* ``sharded`` — an auto-sized fleet split over 3 controller shards;

and the ``serve_steady`` benchmark's 90-host fleet runs a 7.5-second
slice under ``progress``.  Five tie-heavy specs fix the order in which
timers due at the same virtual instant fire:

* ``ties/constant`` — constant gaps, decision times and lifetimes on one
  host, a 3-deep queue and a 2-deep pending queue: arrivals, decision
  ends, departures and expiries land on equal deadlines;
* ``ties/constant@5`` — the same spec on a clock started at 5.0, where
  the float sums tie differently;
* ``ties/diurnal`` — Poisson gaps (whole virtual seconds, mostly 0 at
  this rate: same-timestamp bursts) under a diurnal amplitude of 0.5,
  with lognormal lifetimes;
* ``ties/zero-decision`` — Poisson gaps, decision times and lifetimes,
  mostly 0: timers armed while one fires are due at once, so where the
  resumed scheduler sits in the ready FIFO changes the outcome;
* ``ties/zero-expiry`` — a pending request whose expiry is already due
  when it is placed and whose Poisson lifetime is 0: its expiry timer
  must be armed, and fire, before its departure timer.

A change to how the controller places VMs
must leave ``data/decision_pins.json`` untouched; regenerate it (only
for an intended change of the decisions) with
``PYTHONPATH=src python tests/serving/test_decision_pins.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.serving import PlacementService, ServiceSpec, VirtualClock, run_virtual
from repro.simulator.vectorpool import POLICIES

PINS = Path(__file__).resolve().parent / "data" / "decision_pins.json"

SPECS = {
    "pooled": ServiceSpec(rate=30, duration=8, seed=3, num_hosts=4, mix=(20, 30, 50)),
    "pressure": ServiceSpec(
        rate=30, duration=4, seed=17, num_hosts=2, queue_bound=6,
        service_mean=0.05, timeout_s=0.5, max_pending=3,
    ),
    "sharded": ServiceSpec(rate=40, duration=5, seed=5, shards=3),
}
PINNED = {
    f"{name}/{policy}": spec.replace(policy=policy)
    for name, spec in SPECS.items()
    for policy in POLICIES
}
#: A slice of perf/workloads.py's ``serve_steady`` (auto-sized to 90 hosts).
PINNED["steady/progress"] = ServiceSpec(rate=80, duration=7.5, mean_lifetime=20, seed=11)
PINNED["ties/constant"] = ServiceSpec(
    rate=10, duration=12, seed=9, num_hosts=1, queue_bound=3, max_pending=2,
    timeout_s=0.6, interarrival_kind="constant", lifetime_kind="constant",
    service_kind="constant", service_mean=0.2, mean_lifetime=4.0,
)
PINNED["ties/constant@5"] = PINNED["ties/constant"]
PINNED["ties/diurnal"] = ServiceSpec(
    rate=3, duration=20, seed=4, num_hosts=1, diurnal_amplitude=0.5,
    interarrival_kind="poisson", lifetime_kind="lognormal", mean_lifetime=6,
    max_pending=4, timeout_s=2.0,
)
PINNED["ties/zero-decision"] = ServiceSpec(
    rate=5, duration=6, seed=192, num_hosts=1, queue_bound=1, max_pending=0,
    interarrival_kind="poisson", lifetime_kind="poisson", service_kind="poisson",
    service_mean=0.2, mean_lifetime=1, policy="first_fit",
)
PINNED["ties/zero-expiry"] = ServiceSpec(
    rate=40, duration=4, seed=641, num_hosts=1, queue_bound=3, timeout_s=0.2,
    interarrival_kind="lognormal", lifetime_kind="poisson", service_mean=0.25,
    mean_lifetime=4, policy="first_fit",
)
#: Virtual start time of each pin's clock (0.0 where not listed).
STARTS = {"ties/constant@5": 5.0}


def decision_pin(key: str) -> dict:
    clock = VirtualClock()
    clock.call_later(STARTS.get(key, 0.0), lambda _: None)  # move to the start
    clock.advance()
    service = PlacementService(PINNED[key], clock=clock)
    report = run_virtual(service.run(), service.clock)
    audit = [entry for c in service.controllers for entry in c.audit_log]
    queued = {vm_id for action, vm_id, _ in audit if action == "queue"}
    placed = [(vm_id, detail) for action, vm_id, detail in audit if action == "place"]
    return {
        "fingerprint": report.fingerprint,
        "counts": report.counts,
        "cluster": report.cluster,
        "pooled": sum(1 for _, detail in placed if detail.endswith("(pooled)")),
        "promoted": sum(1 for vm_id, _ in placed if vm_id in queued),
    }


def compute_pins() -> dict:
    return {key: decision_pin(key) for key in PINNED}


@pytest.fixture(scope="module")
def pins() -> dict:
    return json.loads(PINS.read_text(encoding="utf-8"))


@pytest.mark.parametrize("key", sorted(PINNED))
def test_serve_decisions_are_pinned(pins, key):
    assert decision_pin(key) == pins[key]


def test_pins_cover_exactly_the_pinned_specs(pins):
    assert set(pins) == set(PINNED)


if __name__ == "__main__":
    PINS.parent.mkdir(exist_ok=True)
    recorded = compute_pins()
    PINS.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(recorded)} pins to {PINS}")
