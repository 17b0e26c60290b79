"""Backpressure and overload regression suite.

Drives the service at ~2x its service rate into a small bounded queue
and pins the shedding contract: rejections land in the ledger *and*
the ``serving.rejected`` counter, observed queue depth never exceeds
the bound, and the timeout-rate gauge agrees with the ledger.
"""

import pytest

from repro.obs import names as metric_names
from repro.obs.metrics import MetricsRegistry
from repro.serving import PlacementService, ServiceSpec, run_virtual


QUEUE_BOUND = 8


def saturating_spec(**kw) -> ServiceSpec:
    # Arrival rate 100/s vs service rate 1/0.02 = 50/s: sustained 2x
    # overload, so the queue saturates and stays saturated.
    defaults = dict(
        rate=100.0,
        duration=5.0,
        seed=3,
        num_hosts=4,
        queue_bound=QUEUE_BOUND,
        service_mean=0.02,
        service_kind="constant",
        timeout_s=0.5,
        max_pending=4,
    )
    defaults.update(kw)
    return ServiceSpec(**defaults)


@pytest.fixture(scope="module")
def overloaded():
    metrics = MetricsRegistry()
    service = PlacementService(saturating_spec(), metrics=metrics)
    run_virtual(service.run(), service.clock)
    return service, metrics, service.report()


def test_overload_sheds_requests(overloaded):
    service, _, report = overloaded
    assert report.counts["rejected"] > 0
    assert report.rates["reject"] > 0.3  # 2x overload sheds a lot


def test_rejections_counted_in_metric_and_ledger(overloaded):
    service, metrics, report = overloaded
    rejected_metric = metrics.to_dict()[metric_names.SERVING_REJECTED]["value"]
    assert rejected_metric == report.counts["rejected"]
    ledger_rejects = sum(
        1 for line in service.decision_log if line.split()[1] == "reject"
    )
    assert ledger_rejects == report.counts["rejected"]


def test_queue_depth_clamped_at_bound(overloaded):
    _, metrics, report = overloaded
    assert report.queue["depth_max"] <= QUEUE_BOUND
    depth = metrics.to_dict()[metric_names.SERVING_QUEUE_DEPTH]
    assert depth["max"] <= QUEUE_BOUND
    # The queue actually filled — otherwise this test proves nothing.
    assert report.queue["depth_max"] == QUEUE_BOUND


def test_timeout_rate_matches_ledger(overloaded):
    service, metrics, report = overloaded
    ledger_timeouts = sum(
        1 for line in service.decision_log if line.split()[1] == "timeout"
    )
    assert ledger_timeouts == report.counts["timeouts"]
    gauge = metrics.to_dict()[metric_names.SERVING_TIMEOUT_RATE]["value"]
    assert gauge == pytest.approx(
        report.counts["timeouts"] / report.counts["arrivals"]
    )


def test_overload_replays_byte_identically():
    # Backpressure must not introduce nondeterminism: the saturated
    # path (rejects + timeouts + pending expiries) replays exactly.
    first = PlacementService(saturating_spec())
    run_virtual(first.run(), first.clock)
    second = PlacementService(saturating_spec())
    run_virtual(second.run(), second.clock)
    assert first.decision_log == second.decision_log
    assert first.audit_fingerprint() == second.audit_fingerprint()


def test_wider_queue_sheds_less():
    narrow = PlacementService(saturating_spec())
    run_virtual(narrow.run(), narrow.clock)
    wide = PlacementService(saturating_spec(queue_bound=64))
    run_virtual(wide.run(), wide.clock)
    assert wide.counts["rejected"] < narrow.counts["rejected"]
