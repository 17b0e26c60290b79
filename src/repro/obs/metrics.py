"""Lightweight metrics registry for the scheduling/simulation paths.

Production schedulers are debugged through their telemetry; this module
provides the minimal instrument set the repro needs — counters, gauges,
histograms and wall-clock timers — behind a registry that can be
swapped for a zero-cost no-op implementation.

Design constraints:

* **Zero cost when disabled** — every engine guards its instrumentation
  with ``if metrics.enabled``; :data:`NULL_METRICS` additionally makes
  each instrument operation a no-op, so a stray unguarded call is still
  nearly free.
* **No dependencies** — instruments are plain Python; histograms store
  raw samples (simulation runs are bounded) and summarize on export.
* **Uniform export** — :meth:`MetricsRegistry.to_dict` produces a
  JSON-compatible snapshot.
"""

from __future__ import annotations

import math
import time
from typing import Iterator, Optional

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Timer",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_METRICS",
]


class Counter:
    """A monotonically increasing count (arrivals, rejections, ...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def snapshot(self) -> dict:
        return {"kind": "counter", "value": self.value}


class Gauge:
    """A point-in-time value (cluster allocation, queue depth, ...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, delta: float) -> None:
        self.value += float(delta)

    def snapshot(self) -> dict:
        return {"kind": "gauge", "value": self.value}


class Histogram:
    """A sample distribution, summarized on export.

    Stores raw samples; simulation runs are bounded (one sample per
    placement decision at most), so memory stays proportional to the
    workload size.
    """

    __slots__ = ("name", "samples")

    def __init__(self, name: str):
        self.name = name
        self.samples: list[float] = []

    def observe(self, value: float) -> None:
        self.samples.append(float(value))

    def _percentile(self, q: float) -> float:
        data = sorted(self.samples)
        if not data:
            return math.nan
        pos = q * (len(data) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(data) - 1)
        frac = pos - lo
        return data[lo] * (1 - frac) + data[hi] * frac

    def snapshot(self) -> dict:
        n = len(self.samples)
        if not n:
            return {"kind": "histogram", "count": 0}
        return {
            "kind": "histogram",
            "count": n,
            "sum": sum(self.samples),
            "min": min(self.samples),
            "max": max(self.samples),
            "mean": sum(self.samples) / n,
            "p50": self._percentile(0.50),
            "p90": self._percentile(0.90),
            "p99": self._percentile(0.99),
        }


class Timer:
    """Accumulated wall-clock time, usable as a context manager.

    ``with registry.timer("select"):`` accumulates into ``total_s``;
    nested/manual use goes through :meth:`observe`.
    """

    __slots__ = ("name", "total_s", "count", "_started")

    def __init__(self, name: str):
        self.name = name
        self.total_s = 0.0
        self.count = 0
        self._started: Optional[float] = None

    def observe(self, seconds: float) -> None:
        self.total_s += seconds
        self.count += 1

    def __enter__(self) -> "Timer":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        if self._started is not None:
            self.observe(time.perf_counter() - self._started)
            self._started = None

    @property
    def rate(self) -> float:
        """Observations per accumulated second (0 while idle).

        For a per-op timer this is the op throughput *inside* the
        timed region — e.g. the ``select_s`` timer's rate is selection
        decisions/sec excluding everything around them.
        """
        return self.count / self.total_s if self.total_s > 0 else 0.0

    def snapshot(self) -> dict:
        return {
            "kind": "timer",
            "count": self.count,
            "total_s": self.total_s,
            "mean_s": self.total_s / self.count if self.count else 0.0,
        }


class MetricsRegistry:
    """Named instruments, created on first use.

    Instruments live in one flat namespace; asking twice for the same
    name returns the same instrument, asking for a name already held by
    a different instrument kind raises ``ValueError``.
    """

    #: Engines guard instrumentation blocks on this flag.
    enabled: bool = True

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Gauge | Histogram | Timer] = {}

    def _get(self, name: str, cls):
        inst = self._instruments.get(name)
        if inst is None:
            inst = cls(name)
            self._instruments[name] = inst
        elif not isinstance(inst, cls):
            raise ValueError(
                f"metric {name!r} is a {type(inst).__name__}, not a {cls.__name__}"
            )
        return inst

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def timer(self, name: str) -> Timer:
        return self._get(name, Timer)

    def __iter__(self) -> Iterator[Counter | Gauge | Histogram | Timer]:
        return iter(self._instruments.values())

    def __len__(self) -> int:
        return len(self._instruments)

    # -- export --------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-compatible snapshot of every instrument."""
        return {name: inst.snapshot() for name, inst in sorted(self._instruments.items())}


class _NullInstrument:
    """Absorbs every instrument operation; shared by all null metrics."""

    __slots__ = ()
    name = "null"
    value = 0
    total_s = 0.0
    count = 0
    samples: list[float] = []

    def inc(self, amount: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def add(self, delta: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def __enter__(self) -> "_NullInstrument":
        return self

    def __exit__(self, *exc_info) -> None:
        pass

    def snapshot(self) -> dict:
        return {}


_NULL_INSTRUMENT = _NullInstrument()


class NullMetricsRegistry(MetricsRegistry):
    """The zero-cost mode: hands out one shared do-nothing instrument."""

    enabled = False

    def __init__(self) -> None:
        super().__init__()

    def _get(self, name: str, cls):
        return _NULL_INSTRUMENT

    def to_dict(self) -> dict:
        return {}


#: Shared default; engines use it when no registry is supplied.
NULL_METRICS = NullMetricsRegistry()
