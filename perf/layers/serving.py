"""Traced ``serve``: the service's own run, with its collaborators timed.

``serve(spec)`` is ``PlacementService(spec)`` + ``run_virtual``.  The
coroutines between them are the service's private business, so instead
of re-implementing them we build the same service and stand timing
proxies in front of the public objects it calls into — its
``RequestSource`` (``next_request``), each ``CloudController``
(``request``/``delete``) and that controller's scheduler (``select``) —
then run it the way ``serve`` does.  The decision and audit logs, and
so the fingerprint, are the service's own.

The virtual clock cannot be timed that way (a sleep suspends; the cost
is the event loop's wake-up), so ``clock.wakeup_us`` comes from a bench
of ``run_virtual`` over no-op sleepers and is charged per sleep the
service made.
"""

from __future__ import annotations

import asyncio
import functools
from time import perf_counter
from typing import Any, Callable

from repro.obs.metrics import MetricsRegistry
from repro.serving import PlacementService, ServiceSpec, VirtualClock, run_virtual

from layers.spans import Tracer

#: Sleepers in the clock bench: enough for a steady per-wake-up figure.
CLOCK_BENCH_SLEEPERS = 20000


def _timed(fn: Callable, sink: list) -> Callable:
    pc = perf_counter

    def call(*args: Any, **kwargs: Any) -> Any:
        t0 = pc()
        try:
            return fn(*args, **kwargs)
        finally:
            sink.append(pc() - t0)

    return call


class TimedProxy:
    """Forwards everything to ``inner``; times the named methods."""

    def __init__(self, inner: Any, sinks: dict[str, list]):
        self._inner = inner
        for name, sink in sinks.items():
            setattr(self, name, _timed(getattr(inner, name), sink))

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


class CountingClock(VirtualClock):
    sleeps = 0

    async def sleep(self, delay: float) -> None:
        self.sleeps += 1
        await super().sleep(delay)


@functools.lru_cache(maxsize=None)
def clock_wakeup_us(sleepers: int = CLOCK_BENCH_SLEEPERS) -> float:
    """Wall per sleeper of ``run_virtual`` over ``sleepers`` no-op tasks
    (benched once per process)."""
    clock = VirtualClock()

    async def nap(delay: float) -> None:
        await clock.sleep(delay)

    async def main() -> None:
        await asyncio.gather(*(nap(i * 1e-3) for i in range(sleepers)))

    t0 = perf_counter()
    run_virtual(main(), clock)
    return (perf_counter() - t0) / sleepers * 1e6


def traced_serve(tr: Tracer, spec: ServiceSpec, wakeup_us: float) -> tuple[Any, MetricsRegistry]:
    draws: list[float] = []
    requests: list[float] = []
    deletes: list[float] = []
    selects: list[float] = []
    registry = MetricsRegistry()
    with tr.span("service.build"):
        clock = CountingClock()
        service = PlacementService(spec, clock=clock, metrics=registry)
        service.source = TimedProxy(service.source, {"next_request": draws})
        for controller in service.controllers:
            controller.scheduler = TimedProxy(controller.scheduler, {"select": selects})
        service.controllers = [
            TimedProxy(c, {"request": requests, "delete": deletes})
            for c in service.controllers
        ]
    with tr.span("service.run"):
        start = perf_counter()
        report = run_virtual(service.run(), service.clock)
        end = perf_counter()
        tr.add_class("generator.draw", len(draws), sum(draws), start, end)
        request_span = tr.add_class("controlplane.request", len(requests),
                                    sum(requests), start, end, samples=requests)
        tr.add_class("controlplane.delete", len(deletes), sum(deletes), start, end)
        # ``delete`` re-runs the scheduler only for capacity-pending
        # tickets; both serving workloads keep that queue empty (the
        # fleet is auto-sized with headroom), so every select ran
        # inside a ``request``.
        tr.add_class("scheduling.select", len(selects), sum(selects), start, end,
                     samples=selects,
                     parent=request_span["id"] if request_span else None,
                     hosts=sum(len(c.hosts) for c in service.controllers))
        tr.add_class("clock.wakeup", clock.sleeps, clock.sleeps * wakeup_us * 1e-6,
                     start, end, estimated=True)
    return report, registry
