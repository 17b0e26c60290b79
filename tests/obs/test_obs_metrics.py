"""Unit tests for the repro.obs metrics registry."""

import json
import time

import pytest

from repro.obs import NULL_METRICS, MetricsRegistry, NullMetricsRegistry


class TestInstruments:
    def setup_method(self):
        self.reg = MetricsRegistry()

    def test_counter(self):
        c = self.reg.counter("arrivals")
        c.inc()
        c.inc(4)
        assert c.value == 5
        assert self.reg.counter("arrivals") is c  # same instrument

    def test_gauge(self):
        g = self.reg.gauge("alloc")
        g.set(3.5)
        g.add(0.5)
        assert g.value == 4.0

    def test_histogram_summary(self):
        h = self.reg.histogram("candidates")
        for v in [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]:
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 10
        assert snap["min"] == 1.0
        assert snap["max"] == 10.0
        assert snap["mean"] == pytest.approx(5.5)
        assert snap["p50"] == pytest.approx(5.5)
        assert snap["p90"] == pytest.approx(9.1)

    def test_empty_histogram(self):
        assert self.reg.histogram("empty").snapshot() == {
            "kind": "histogram",
            "count": 0,
        }

    def test_timer_context_manager(self):
        t = self.reg.timer("select_s")
        with t:
            time.sleep(0.001)
        assert t.count == 1
        assert t.total_s > 0.0
        t.observe(1.0)
        assert t.count == 2
        assert t.snapshot()["mean_s"] == pytest.approx(t.total_s / 2)

    def test_kind_conflict_rejected(self):
        self.reg.counter("x")
        with pytest.raises(ValueError, match="Counter"):
            self.reg.gauge("x")


class TestExport:
    def test_to_dict_and_json(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(3)
        reg.gauge("b").set(1.5)
        d = reg.to_dict()
        assert d["a"] == {"kind": "counter", "value": 3}
        assert d["b"] == {"kind": "gauge", "value": 1.5}
        assert json.loads(json.dumps(d)) == d  # JSON primitives only


class TestNullRegistry:
    def test_disabled_and_inert(self):
        reg = NullMetricsRegistry()
        assert not reg.enabled
        reg.counter("a").inc()
        reg.gauge("b").set(5)
        reg.histogram("c").observe(1.0)
        with reg.timer("d"):
            pass
        assert reg.to_dict() == {}
        assert len(reg) == 0

    def test_shared_singleton(self):
        assert not NULL_METRICS.enabled
        # All instruments collapse to one shared no-op object.
        assert NULL_METRICS.counter("x") is NULL_METRICS.timer("y")
