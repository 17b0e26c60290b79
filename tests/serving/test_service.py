"""PlacementService behaviour: spec validation, SLO report, sharding."""

import dataclasses

import pytest

from repro.core import VMSpec
from repro.core.errors import ConfigError, ServingError
from repro.obs import names as metric_names
from repro.obs.metrics import MetricsRegistry
from repro.serving import (
    PlacementService,
    RequestSource,
    ServiceSpec,
    run_virtual,
    serve,
)
from repro.serving.config import RVConfig, TrafficConfig
from repro.serving.service import auto_size, build_fleet
from repro.sharding import ShardPlan
from repro.workload import Catalog
from tests.serving.harness import clock_at


def small_spec(**kw) -> ServiceSpec:
    defaults = dict(rate=20.0, duration=3.0, seed=11, queue_bound=16)
    defaults.update(kw)
    return ServiceSpec(**defaults)


def test_spec_round_trip_and_fingerprint():
    spec = small_spec(shards=2, mix=(50, 30, 20), diurnal_amplitude=0.25)
    clone = ServiceSpec.from_dict(spec.to_dict())
    assert clone == spec
    assert clone.fingerprint() == spec.fingerprint()
    assert clone.fingerprint() != small_spec().fingerprint()
    # A literal, not a round trip: the wire form must not move by a byte.
    assert ServiceSpec().fingerprint() == "c6f37dcdfbec0747"


@pytest.mark.parametrize("kw", [
    {"rate": 0.0},
    {"rate": -5.0},
    {"duration": 0.0},
    {"seed": 0, "mix": "Z"},
    {"provider": "nimbus"},
    {"policy": "round_robin"},
    {"shards": 0},
    {"num_hosts": 2, "shards": 4},
    {"queue_bound": 0},
    {"timeout_s": 0.0},
    {"diurnal_amplitude": 1.0},
    {"interarrival_kind": "weibull"},
    {"mean_lifetime": float("inf")},
    {"max_pending": -1},
])
def test_invalid_specs_raise(kw):
    with pytest.raises(ConfigError):
        small_spec(**kw)


#: Probe values a numeric field must refuse, unless listed in ACCEPTED.
FLOAT_PROBES = (float("nan"), float("inf"), -1, 0)
INT_PROBES = FLOAT_PROBES + (2.5,)
ACCEPTED = {
    ("seed", 0),
    ("num_hosts", 0),  # auto-size the fleet
    ("diurnal_amplitude", 0),
    ("max_pending", 0),  # no capacity-pending queue
}
NUMERIC_CASES = [
    (f.name, value)
    for f in dataclasses.fields(ServiceSpec)
    if f.type in ("int", "float")
    for value in (INT_PROBES if f.type == "int" else FLOAT_PROBES)
]


@pytest.mark.parametrize(("name", "value"), NUMERIC_CASES,
                         ids=[f"{n}={v}" for n, v in NUMERIC_CASES])
def test_numeric_fields_refuse_non_finite_negative_and_fractional(name, value):
    if (name, value) in ACCEPTED:
        assert getattr(ServiceSpec(**{name: value}), name) == value
        return
    with pytest.raises(ConfigError, match=name):
        ServiceSpec(**{name: value})


def test_from_dict_rejects_unknown_fields_and_versions():
    spec = small_spec()
    payload = spec.to_dict()
    payload["burst"] = True
    with pytest.raises(ConfigError, match="unknown ServiceSpec fields"):
        ServiceSpec.from_dict(payload)
    payload = spec.to_dict()
    payload["version"] = 99
    with pytest.raises(ConfigError, match="version"):
        ServiceSpec.from_dict(payload)


def test_auto_size_scales_with_load():
    light = small_spec(rate=5.0)
    heavy = small_spec(rate=50.0)
    assert auto_size(heavy) > auto_size(light)
    assert len(build_fleet(light)) == auto_size(light)


def test_explicit_fleet_size_respected():
    spec = small_spec(num_hosts=7)
    assert len(build_fleet(spec)) == 7


def test_report_accounts_for_every_arrival():
    report = serve(small_spec())
    c = report.counts
    assert c["arrivals"] > 0
    # Every arrival is either placed, pending, rejected, or queue-timed-out.
    # (pending-expiry timeouts double-count a "pend", so use >=.)
    assert c["placed"] + c["pending"] + c["rejected"] + c["timeouts"] >= \
        c["arrivals"]
    assert report.latency["placement_count"] == c["placed"] + c["pending"]
    assert report.cluster["hosts"] >= 1
    assert 0.0 <= report.rates["timeout"] <= 1.0
    assert 0.0 <= report.rates["reject"] <= 1.0
    assert len(report.fingerprint) == 64


def test_departures_free_capacity():
    # Lifetimes far shorter than the window: most VMs depart in-run.
    report = serve(small_spec(duration=10.0, mean_lifetime=0.5))
    assert report.counts["departures"] > 0
    assert report.cluster["active_vms"] < report.counts["placed"]


def test_sharded_run_routes_to_every_shard():
    spec = small_spec(rate=40.0, duration=5.0, shards=3)
    service = PlacementService(spec)
    run_virtual(service.run(), service.clock)
    per_shard = [sum(1 for action, _, _ in c.audit_log if action == "place")
                 for c in service.controllers]
    assert len(per_shard) == 3
    assert all(per_shard)
    assert sum(per_shard) == service.counts["placed"]


def test_premium_only_source_accepts_a_large_flavor_catalog():
    # No flavor fits under the 8 GB cap; a 1:1-only mix never needs one.
    big = Catalog("big", ((VMSpec(8, 32.0), 0.5), (VMSpec(16, 64.0), 0.5)))
    traffic = TrafficConfig(RVConfig("exponential", 1.0 / 10.0), RVConfig("exponential", 5.0))
    source = RequestSource(big, (100, 0, 0), traffic, seed=1)
    requests = [r for _, r in source.window(10.0)]
    assert requests and {r.level.ratio for r in requests} == {1.0}
    assert {r.spec for r in requests} <= set(big.specs)


def test_shard_and_unsharded_totals_agree():
    placed_1 = serve(small_spec(seed=5)).counts["placed"]
    placed_4 = serve(small_spec(seed=5, shards=4)).counts["placed"]
    # Same stream, ample capacity: sharding must not lose requests.
    assert placed_1 == placed_4


@pytest.mark.parametrize(
    ("shards", "fingerprint"),
    [(1, "76e0e29a22c891d4"), (2, "be81d6e30dfb26a2"), (3, "a11204d3c15d832a")],
)
def test_uneven_fleet_split_replays_the_pinned_decision_log(shards, fingerprint):
    # 7 hosts divide by neither 2 nor 3: the shards' blocks are
    # ShardPlan's balanced contiguous ones, remainder to the low shards.
    spec = ServiceSpec(provider="ovhcloud", mix="F", rate=40.0, duration=8.0,
                       seed=3, num_hosts=7, shards=shards)
    sizes = [len(c.hosts) for c in PlacementService(spec).controllers]
    assert sizes == list(ShardPlan(7, shards).sizes)
    assert serve(spec).fingerprint.startswith(fingerprint)


def test_metrics_emitted_under_registry():
    metrics = MetricsRegistry()
    report = serve(small_spec(), metrics=metrics)
    snap = metrics.to_dict()
    assert snap[metric_names.SERVING_ARRIVALS]["value"] == \
        report.counts["arrivals"]
    assert snap[metric_names.SERVING_PLACED]["value"] == \
        report.counts["placed"]
    assert snap[metric_names.SERVING_QUEUE_DEPTH]["kind"] == "histogram"
    assert snap[metric_names.SERVING_LATENCY_PLACEMENT]["kind"] == "histogram"
    assert snap[metric_names.SERVING_TIMEOUT_RATE]["value"] == \
        report.rates["timeout"]
    assert snap[metric_names.SERVING_REJECT_RATE]["value"] == \
        report.rates["reject"]


def test_null_metrics_does_not_change_report():
    from repro.obs.metrics import NULL_METRICS

    with_metrics = serve(small_spec(), metrics=MetricsRegistry())
    without = serve(small_spec(), metrics=NULL_METRICS)
    assert with_metrics.counts == without.counts
    assert with_metrics.fingerprint == without.fingerprint


def test_injected_clock_is_used():
    clock = clock_at(100.0)
    service = PlacementService(small_spec(duration=2.0), clock=clock)
    run_virtual(service.run(), clock)
    assert clock.now() >= 100.0
    assert service.decision_log  # the window opens at the injected start
    assert all(float(line.split()[0]) >= 100.0
               for line in service.decision_log)


def test_a_service_runs_once():
    service = PlacementService(small_spec(duration=1.0))
    first = run_virtual(service.run(), service.clock)
    log, now = list(service.decision_log), service.clock.now()
    with pytest.raises(ServingError, match="runs once"):
        run_virtual(service.run(), service.clock)
    # The refused run neither counted, logged nor moved the clock.
    assert service.counts == first.counts
    assert service.decision_log == log
    assert service.clock.now() == now


def test_report_summary_mentions_slos():
    summary = serve(small_spec()).summary()
    assert "p99" in summary
    assert "timeout rate" in summary
    assert "rejection rate" in summary
